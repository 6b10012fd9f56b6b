"""The semiring-generalized multiplicity core.

Six concerns, one file:

* the algebraic contract of every shipped instance (axioms, natural
  order, count codec round-trips);
* cross-engine agreement — tree oracle, physical, codegen, and the
  morsel-parallel executor must compute the same annotated bag under
  every semiring, with the process backend shipping annotations
  through the shard codec's pickled count column end to end;
* the semiring-parameterized metamorphic law catalogue
  (:func:`repro.testkit.metamorphic.laws_for_semiring`) on seeded
  generated cases;
* the A ≡ B tri-equivalence: Bool-engine, relational-algebra, and
  delta-applied-to-bags backends agree on set semantics;
* plumbing: plan-cache isolation by semiring tag, the ``:explain``
  footer, CLI/REPL selection, and the N fast path's structural purity
  (no ``_sr`` in the codegen source listing);
* adapt once: ``Semiring.adapt_bag``'s memo contract, statistics that
  stay warm across non-N queries, and the warm-equals-cold sweep of
  ``tests/semiring_warm_cold.py``.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import random
import sys
import threading
import time

import pytest

from repro.cli import Session
from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError, ReproError
from repro.core.eval import evaluate as tree_evaluate
from repro.core.expr import (
    AdditiveUnion, Dedup, Intersection, MaxUnion, Subtraction, var,
)
from repro.core.memo import CAPACITY
from repro.core.semiring import (
    _ADAPTED, BOOL, NAT, PROVENANCE, TROPICAL, Prov, Trop,
    known_semirings, resolve_semiring, semiring_name,
)
from repro.core.typecheck import infer_type
from repro.engine import (
    PlanCache, evaluate as engine_evaluate, explain_physical, plan_for,
)
from repro.engine.parallel import codec
from repro.engine.parallel.codec import decode_shard, encode_shard
from repro.planner import PassConfig
from repro.planner.stats import _STATS_MEMO, stats_scan_count
from repro.relational import deep_dedup
from repro.testkit import Harness, generate_case, load_corpus
from repro.testkit.corpus import case_from_json
from repro.testkit.differential import SET_BACKENDS, delta_commutes
from repro.testkit.metamorphic import (
    LAWS, check_laws, laws_for_semiring,
)
from tests import semiring_warm_cold

INSTANCES = (NAT, BOOL, TROPICAL, PROVENANCE)
SPECS = ("nat", "bool", "tropical", "provenance")

R = Bag({Tup("a", "b"): 3, Tup("c", "d"): 1})
S = Bag({Tup("a", "b"): 1, Tup("e", "f"): 2})
EXPR = AdditiveUnion(
    Dedup(Subtraction(AdditiveUnion(var("R"), var("R")), var("S"))),
    Intersection(var("S"), var("R")))
DB = {"R": R, "S": S}
_CORPUS = load_corpus(
    os.path.join(os.path.dirname(__file__), "corpus"))


def _samples(sr):
    """A few domain values including zero and one."""
    if sr is NAT:
        return (0, 1, 2, 5)
    if sr is BOOL:
        return (0, 1)
    if sr is TROPICAL:
        return (sr.zero, sr.one, Trop(2.5), Trop(7.0))
    return (sr.zero, sr.one, Prov({("x",): 2}),
            Prov({("x",): 1, ("y", "y"): 3}))


class TestAxioms:
    @pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
    def test_monoid_identities(self, sr):
        for a in _samples(sr):
            assert sr.add(a, sr.zero) == a
            assert sr.add(sr.zero, a) == a
            assert sr.mul(a, sr.one) == a
            assert sr.mul(sr.one, a) == a
            assert sr.mul(a, sr.zero) == sr.zero
            assert sr.is_zero(sr.mul(a, sr.zero))

    @pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
    def test_commutativity_and_distributivity(self, sr):
        values = _samples(sr)
        for a in values:
            for b in values:
                assert sr.add(a, b) == sr.add(b, a)
                assert sr.mul(a, b) == sr.mul(b, a)
                for c in values:
                    assert sr.mul(a, sr.add(b, c)) == \
                        sr.add(sr.mul(a, b), sr.mul(a, c))

    @pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
    def test_monus_residuates_the_natural_order(self, sr):
        values = _samples(sr)
        for a in values:
            assert sr.is_zero(sr.monus(a, a))
            assert sr.monus(a, sr.zero) == a
            for b in values:
                # a <= b  iff  a monus b = 0 (natural order)
                assert sr.leq(a, b) == sr.is_zero(sr.monus(a, b))

    @pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
    def test_idempotency_flag_matches_addition(self, sr):
        for a in _samples(sr):
            if sr.idempotent_add:
                assert sr.add(a, a) == a
            assert sr.scale(a, 2) == sr.add(a, a)

    def test_from_int_collapses_under_idempotency(self):
        assert BOOL.from_int(7) == BOOL.one
        assert TROPICAL.from_int(7) == TROPICAL.one
        assert PROVENANCE.from_int(7) == Prov.const(7)
        assert NAT.from_int(7) == 7

    @pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
    def test_count_codec_round_trip(self, sr):
        for a in _samples(sr):
            assert sr.decode_count(sr.encode_count(a)) == a

    @pytest.mark.parametrize("sr", (TROPICAL, PROVENANCE),
                             ids=lambda s: s.name)
    def test_annotations_pickle(self, sr):
        for a in _samples(sr):
            assert pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize("sr", (BOOL, TROPICAL, PROVENANCE),
                             ids=lambda s: s.name)
    def test_adapt_bag_is_idempotent(self, sr):
        """A result bag re-entering as a binding (the REPL stores
        evaluated bags in its environment) must not be re-annotated."""
        adapted = sr.adapt_bag(R, "R")
        assert sr.adapt_bag(adapted, "R") == adapted

    @pytest.mark.parametrize("source, target", [
        (TROPICAL, PROVENANCE), (PROVENANCE, TROPICAL),
        (TROPICAL, BOOL), (PROVENANCE, BOOL),
    ], ids=lambda s: getattr(s, "name", s))
    def test_cross_domain_adaptation_is_governed(self, source, target):
        """A bag annotated under one semiring fed to another must raise
        the governed error family, not crash or silently reinterpret."""
        from repro.core.errors import BagTypeError
        foreign = source.adapt_bag(R, "R")
        with pytest.raises(BagTypeError, match="another semiring"):
            target.adapt_bag(foreign, "R")

    def test_cross_domain_binding_survives_repl(self):
        """The REPL sequence that stores a tropical-annotated binding
        and re-uses it under provenance prints a governed error and the
        session keeps going."""
        out = io.StringIO()
        session = Session(out=out)  # nat: B keeps plain int counts
        session.handle("B = {{'a', 'a', 'b'}}")
        session.handle(":semiring tropical")
        session.handle("C = eps(B)")
        session.handle(":semiring provenance")
        session.handle("C (+) C")
        assert "error:" in out.getvalue()
        assert "another semiring" in out.getvalue()
        # the session survives: an N-count binding still adapts fine
        out.truncate(0), out.seek(0)
        session.handle("B (+) B")
        assert "error:" not in out.getvalue()


class TestRegistry:
    def test_known_semirings(self):
        assert known_semirings() == SPECS

    def test_nat_resolves_to_fast_path(self):
        assert resolve_semiring(None) is None
        assert resolve_semiring("nat") is None
        assert semiring_name(None) == "nat"

    def test_named_instances_resolve(self):
        assert resolve_semiring("bool") is BOOL
        assert resolve_semiring("tropical") is TROPICAL
        assert resolve_semiring("provenance") is PROVENANCE
        assert resolve_semiring(BOOL) is BOOL

    def test_unknown_name_raises(self):
        with pytest.raises(Exception):
            resolve_semiring("viterbi")


class TestCrossEngineAgreement:
    """Every engine computes the same annotated bag, per semiring."""

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("engine",
                             ("physical", "codegen", "parallel"))
    def test_fixed_query(self, spec, engine):
        expected = tree_evaluate(EXPR, DB, semiring=spec)
        actual = engine_evaluate(
            EXPR, DB, engine=engine, cache=None, semiring=spec)
        assert actual == expected

    @pytest.mark.parametrize("spec", SPECS)
    def test_seeded_generated_cases(self, spec):
        for seed in range(103, 109):
            case = generate_case(seed=seed, fragment="balg1", size=7)
            expected = tree_evaluate(case.expr, case.database,
                                     semiring=spec)
            for engine in ("physical", "codegen"):
                actual = engine_evaluate(
                    case.expr, case.database, engine=engine,
                    cache=None, powerset_budget=512, semiring=spec)
                assert actual == expected, (seed, engine)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("engine",
                             ("tree", "physical", "codegen", "parallel"))
    def test_order_comparison_is_total_over_annotated_values(
            self, spec, engine):
        """``generate_case(1993, 55)`` and its shrunk corpus form:
        source adaptation is shallow under tropical/provenance, so
        ``<=`` meets an int-counted nested bag and an annotated
        constant — once a bare ``TypeError`` out of ``canonical_key``.
        Every engine must reach the tree walker's outcome (the full
        case ends in a typed powerset error off N and Bool)."""
        options = {}
        if engine == "parallel":
            options = dict(workers=2, parallel_threshold=0.0,
                           min_morsel_rows=1)

        def outcome(run):
            try:
                return run()
            except ReproError as error:
                return type(error)

        with open(os.path.join(
                os.path.dirname(__file__), "corpus",
                "select_order_annotated_nested.json")) as handle:
            shrunk = case_from_json(json.load(handle))
        for case in (shrunk, generate_case(seed=1993, index=55)):
            expected = outcome(lambda: tree_evaluate(
                case.expr, case.database, semiring=spec))
            actual = outcome(lambda: engine_evaluate(
                case.expr, case.database, engine=engine, cache=None,
                semiring=spec, **options))
            assert actual == expected
        assert isinstance(tree_evaluate(shrunk.expr, semiring=spec), Bag)

    def test_nat_spec_is_bit_identical_to_default(self):
        for seed in range(41, 45):
            case = generate_case(seed=seed, fragment="balg1", size=7)
            default = engine_evaluate(case.expr, case.database,
                                      cache=None, powerset_budget=512)
            tagged = engine_evaluate(case.expr, case.database,
                                     cache=None, powerset_budget=512,
                                     semiring="nat")
            assert default == tagged


class TestParallelSemiring:
    """Forced multi-shard execution: shard merge and the shard codec's
    pickled count column."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_thread_backend_multi_shard(self, spec):
        expected = tree_evaluate(EXPR, DB, semiring=spec)
        actual = engine_evaluate(
            EXPR, DB, engine="parallel", workers=2,
            parallel_backend="thread", parallel_threshold=0,
            min_morsel_rows=1, cache=None, semiring=spec)
        assert actual == expected

    @pytest.mark.parametrize("spec", ("tropical", "provenance"))
    def test_process_backend_ships_annotations(self, spec):
        expected = tree_evaluate(EXPR, DB, semiring=spec)
        actual = engine_evaluate(
            EXPR, DB, engine="parallel", workers=2,
            parallel_backend="process", parallel_threshold=0,
            min_morsel_rows=1, cache=None, semiring=spec)
        assert actual == expected


class TestShardCodec:
    """The count column's tag names its format: packed ints for every
    N and Bool shard, one pickled list for annotations."""

    def test_int_shards_keep_the_packed_int_format(self):
        blob = encode_shard({Tup("a", 1): 3, Tup("b", 2): 1})
        assert blob[:4] == codec._MAGIC
        assert blob[5] == codec._C_PACKED
        assert decode_shard(blob) == {Tup("a", 1): 3, Tup("b", 2): 1}

    @pytest.mark.parametrize(
        "counts",
        [{Tup("a",): Trop(2.0), Tup("b",): Trop(0.0)},
         {Tup("a",): Prov({("x",): 2}), Tup("b",): Prov.const(1)}],
        ids=("tropical", "provenance"))
    def test_annotated_shards_pickle_their_count_column(self, counts):
        blob = encode_shard(counts)
        assert blob[:4] == codec._MAGIC
        assert blob[5] == codec._C_PICKLED
        assert decode_shard(blob) == counts

    def test_nested_bag_with_annotated_inner_counts(self):
        inner = Bag({Tup("p",): Trop(1.5)})
        counts = {Tup(inner, "tag"): Trop(0.5)}
        blob = encode_shard(counts)
        assert blob[:4] == codec._MAGIC
        assert blob[5] == codec._C_PICKLED
        assert decode_shard(blob) == counts


class TestMetamorphicLaws:
    def test_nat_keeps_the_full_catalogue(self):
        assert laws_for_semiring(None) is LAWS
        assert laws_for_semiring(resolve_semiring("nat")) is LAWS

    def test_gating_per_instance(self):
        names = {sr.name: [n for n, _, _ in laws_for_semiring(sr)]
                 for sr in (BOOL, TROPICAL, PROVENANCE)}
        # Idempotent instances lose cancellation, gain idempotency.
        assert "union-monus" not in names["bool"]
        assert "union-monus" not in names["tropical"]
        assert "union-monus" in names["provenance"]
        assert "union-idempotent" in names["bool"]
        assert "union-idempotent" in names["tropical"]
        assert "union-idempotent" not in names["provenance"]
        # Meet-via-monus fails only in Tropical.
        assert "inter-via-monus" in names["bool"]
        assert "inter-via-monus" not in names["tropical"]
        # Counting laws are N-only.
        for selected in names.values():
            assert "derived-dedup" not in selected
            assert "count-consistency" not in selected
            # The universal core survives everywhere.
            for core in ("dedup-idempotent", "delta-beta",
                         "monus-self", "max-via-monus"):
                assert core in selected

    @pytest.mark.parametrize("spec",
                             ("bool", "tropical", "provenance"))
    def test_laws_hold_on_seeded_cases(self, spec):
        sr = resolve_semiring(spec)
        failures = []
        for seed in range(211, 219):
            case = generate_case(seed=seed, fragment="balg1", size=7)
            typ = infer_type(case.expr, case.schema)

            def run(e):
                return tree_evaluate(e, case.database,
                                     powerset_budget=512,
                                     semiring=spec)

            value = run(case.expr)
            for res in check_laws(case, typ, value, run,
                                  laws=laws_for_semiring(sr)):
                if res.status == "failed":
                    failures.append((seed, res.name, res.detail))
        assert not failures

    def test_union_idempotent_law_is_false_over_nat(self):
        """The new law must never leak into the N catalogue: over N,
        e (+) e doubles every multiplicity."""
        assert all(name != "union-idempotent" for name, _, _ in LAWS)
        doubled = tree_evaluate(AdditiveUnion(var("R"), var("R")),
                                {"R": R})
        assert doubled != R


class TestTriEquivalence:
    """A ≡ B on the engine: three independent set-semantics backends
    (Bool-engine, relational algebra, delta-of-the-bag-result) agree
    with each other on every case where delta commutes."""

    def test_set_backends_registered(self):
        assert SET_BACKENDS == {"engine-boolean", "ralg", "delta-bag"}

    def test_fixed_query_three_ways(self):
        bool_result = engine_evaluate(EXPR, DB, cache=None,
                                      semiring="bool")
        delta_result = deep_dedup(tree_evaluate(EXPR, DB))
        assert bool_result == delta_result
        assert all(count == 1 for _, count in bool_result.items())

    def test_delta_commutes_gate(self):
        assert delta_commutes(EXPR, DB) is False  # Subtraction
        ok = AdditiveUnion(Dedup(var("R")),
                           MaxUnion(var("R"), var("S")))
        assert delta_commutes(ok, DB) is True

    def test_seeded_harness_run_has_no_mismatches(self):
        harness = Harness(
            backends=("oracle", "engine-boolean", "ralg", "delta-bag"))
        rng = random.Random(7)
        reports = [harness.run_case(
            generate_case(seed=rng.randrange(1 << 30),
                          fragment="balg1", size=7))
            for _ in range(25)]
        mismatches = [m for report in reports
                      for m in report.mismatches]
        assert mismatches == []

    def test_corpus_replays_green_three_ways(self):
        """``const_nested_duplicates_set_semantics`` is the finding: a
        literal's *inner* duplicates are duplicates under set semantics
        too (``SetEvaluator`` used to keep them)."""
        harness = Harness(
            backends=("oracle", "engine-boolean", "ralg", "delta-bag"),
            metamorphic=False)
        for path, case, _ in _CORPUS:
            report = harness.run_case(case)
            assert report.ok, (path, [m.describe()
                                      for m in report.mismatches])


class TestPlannerPlumbing:
    def test_cache_tag_includes_semiring(self):
        nat_tag = PassConfig.for_level(2).cache_tag()
        bool_tag = PassConfig.for_level(2, semiring="bool").cache_tag()
        assert nat_tag != bool_tag

    def test_plan_cache_isolation(self):
        """N and Bool plans for one expression live under distinct
        keys: planning both must never hit across the boundary."""
        cache = PlanCache()
        plan_for(EXPR, DB, cache=cache)
        misses = cache.stats.misses
        plan_for(EXPR, DB, cache=cache, semiring="bool")
        assert cache.stats.misses == misses + 1
        hits = cache.stats.hits
        plan_for(EXPR, DB, cache=cache, semiring="bool")
        assert cache.stats.hits == hits + 1

    def test_explain_footer(self):
        text = explain_physical(EXPR, DB, semiring="tropical")
        assert "-- semiring --" in text
        assert "tropical" in text
        assert "generic" in text
        nat_text = explain_physical(EXPR, DB, semiring="nat")
        assert "-- semiring --" in nat_text
        assert "fused-int" in nat_text
        plain = explain_physical(EXPR, DB)
        assert "-- semiring --" not in plain

    def test_codegen_nat_source_has_no_semiring_argument(self):
        """The N fast path is structural: default-planned codegen
        source must not mention the semiring parameter at all."""
        plan = plan_for(EXPR, DB, engine="codegen")
        source = "".join(s.source for s in plan.segments)
        assert plan.segments
        assert "_sr" not in source

    def test_codegen_generic_source_threads_semiring(self):
        plan = plan_for(EXPR, DB, engine="codegen",
                        semiring="provenance")
        source = "".join(s.source for s in plan.segments)
        assert "_sr" in source


class TestCli:
    def _session(self, **kwargs):
        out = io.StringIO()
        return Session(out=out, **kwargs), out

    def test_semiring_command_shows_and_sets(self):
        session, out = self._session()
        session.handle(":semiring")
        assert "semiring = nat" in out.getvalue()
        session.handle(":semiring bool")
        session.handle("{{'x'}} (+) {{'x'}}")
        assert "'x'*2" not in out.getvalue()
        session.handle(":semiring nat")
        session.handle("{{'x'}} (+) {{'x'}}")
        assert "'x'*2" in out.getvalue()

    def test_semiring_command_rejects_unknown(self):
        session, out = self._session()
        session.handle(":semiring viterbi")
        assert "unknown semiring" in out.getvalue()
        assert session.semiring == "nat"

    def test_session_semiring_argument(self):
        session, out = self._session(semiring="bool")
        assert session.semiring == "bool"
        session.handle("{{'x'}} (+) {{'x'}}")
        assert "'x'*2" not in out.getvalue()

    def test_explain_carries_the_session_semiring(self):
        session, out = self._session(semiring="tropical")
        session.handle("B = {{'x', 'x'}}")
        session.handle(":explain eps(B)")
        assert "-- semiring --" in out.getvalue()
        assert "tropical" in out.getvalue()


NON_NAT = (BOOL, TROPICAL, PROVENANCE)


def _variables(adapted):
    """The provenance variables a provenance-adapted bag mentions."""
    return {name for _, count in adapted.items()
            for name in count.variables()}


class TestAdaptOnce:
    """``adapt_bag`` is the one adaptation entry, memoised per
    ``(bag identity, semiring, label)``."""

    @pytest.mark.parametrize("sr", (BOOL, TROPICAL), ids=lambda s: s.name)
    def test_reseal_equals_per_member_adaptation(self, sr):
        """Bool and tropical reseal a bag-free bag without rebuilding
        its members: values, counts and shape are what adapting each
        member and count gives, flat or nested; a foreign annotation
        is still rejected."""
        nested = Bag.from_counts({Tup("a", Bag.of("x", "x", "y")): 2,
                                  Tup("b", Bag.of("y")): 1})
        for bag in (R, Bag.of("a", "a", "b"), Bag.of(1, 2, 2, 2),
                    Bag.from_counts({Tup("a", Tup(1, "b")): 5}), nested,
                    Bag.from_counts({Bag.of("x", "x"): 3}),
                    TROPICAL.adapt_bag(R, "R"), Bag()):
            if bag._counts and sr is BOOL and not all(
                    isinstance(count, int) for count in bag._counts.values()):
                with pytest.raises(BagTypeError, match="another semiring"):
                    sr._adapt_bag(bag, "R")
                continue
            expected = Bag.from_counts({sr.adapt_value(value):
                                        sr.coerce(count)
                                        for value, count in bag.items()})
            adapted = sr._adapt_bag(bag, "R")
            assert adapted._counts == expected._counts
            assert [type(count) for count in adapted._counts.values()] \
                == [type(count) for count in expected._counts.values()]
            assert adapted._shape == expected._shape
            assert adapted.cardinality == expected.cardinality

    @pytest.mark.parametrize("sr", NON_NAT, ids=lambda s: s.name)
    def test_second_adaptation_is_the_same_object(self, sr):
        bag = Bag.from_counts({Tup("a", "b"): 3, Tup("c", "d"): 1})
        first = sr.adapt_bag(bag, "R")
        assert sr.adapt_bag(bag, "R") is first
        twin = Bag.from_counts(dict(bag.items()))
        assert sr.adapt_bag(twin, "R") is not first

    def test_rejection_is_recomputed_every_call(self):
        """A failed adaptation is never cached: the foreign bag raises
        on the first call and again on the second."""
        foreign = TROPICAL.adapt_bag(R, "R")
        before = len(_ADAPTED)
        for _ in range(2):
            with pytest.raises(BagTypeError, match="another semiring"):
                BOOL.adapt_bag(foreign, "R")
        assert len(_ADAPTED) == before

    def test_label_is_part_of_the_key(self):
        """The same bag bound as R and as S mints R.i and S.i."""
        bag = Bag.from_counts({Tup("a"): 2, Tup("b"): 1})
        assert _variables(PROVENANCE.adapt_bag(bag, "R")) == {
            "R.0", "R.1"}
        assert _variables(PROVENANCE.adapt_bag(bag, "S")) == {
            "S.0", "S.1"}
        assert _variables(PROVENANCE.adapt_bag(bag, "R")) == {
            "R.0", "R.1"}

    def test_one_entry_per_semiring(self):
        _ADAPTED.clear()
        bag = Bag.from_counts({Tup("a"): 2, Tup("b"): 1})
        adapted = [sr.adapt_bag(bag, "R") for sr in NON_NAT]
        assert len(_ADAPTED) == 3
        assert adapted[0] == Bag.from_counts({Tup("a"): 1, Tup("b"): 1})
        assert adapted[1].multiplicity(Tup("a")) == TROPICAL.one
        assert adapted[2].multiplicity(Tup("a")) == Prov.variable("R.0", 2)

    def test_memo_is_bounded_and_an_evictee_readapts_equal(self):
        bags = [Bag.from_counts({Tup(i, "x"): 2, Tup(i, "y"): 1})
                for i in range(CAPACITY + 50)]
        adapted = [PROVENANCE.adapt_bag(bag, "R") for bag in bags]
        assert len(_ADAPTED) <= CAPACITY
        again = PROVENANCE.adapt_bag(bags[0], "R")
        assert again is not adapted[0]  # evicted, so recomputed
        assert again == adapted[0]
        assert PROVENANCE.adapt_bag(bags[-1], "R") is adapted[-1]

    def test_id_reuse_never_returns_another_bags_adaptation(self):
        """Create, adapt, drop, re-create: a dead bag's id comes back
        for a different bag, whose adaptation must be its own."""
        seen_ids = set()
        reused = 0
        for i in range(20 * CAPACITY):
            bag = Bag.from_counts({Tup(i): 1 + i % 3})
            reused += id(bag) in seen_ids
            seen_ids.add(id(bag))
            adapted = PROVENANCE.adapt_bag(bag, "R")
            assert set(adapted.distinct()) == {Tup(i)}
            assert adapted.multiplicity(Tup(i)) == Prov.variable(
                "R.0", 1 + i % 3)
        assert reused  # the probe did see ids come back

    def test_concurrent_mixed_semiring_queries_agree(self):
        """8 threads x 200 ``evaluate()`` calls over shared relations,
        semirings and engines mixed, memo cold at the start."""
        relations = {
            "R": Bag.from_counts(
                {Tup(i % 17, i % 5): 1 + i % 3 for i in range(120)}),
            "S": Bag.from_counts(
                {Tup(i % 13, i % 5): 1 + i % 2 for i in range(90)})}
        mix = [(spec, engine) for spec in SPECS
               for engine in ("tree", "physical", "codegen", "parallel")]
        expected = {(spec, engine): engine_evaluate(
            EXPR, relations, engine=engine, semiring=spec, cache=None)
            for spec, engine in mix}
        _ADAPTED.clear()
        failures = []

        def work(offset):
            try:
                for step in range(200):
                    spec, engine = mix[(offset + step) % len(mix)]
                    actual = engine_evaluate(
                        EXPR, relations, engine=engine, semiring=spec,
                        cache=None)
                    if actual != expected[spec, engine]:
                        failures.append((spec, engine, actual))
            except BaseException as error:  # noqa: BLE001 - reported
                failures.append(error)

        threads = [threading.Thread(target=work, args=(3 * n,))
                   for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert len(_ADAPTED) <= CAPACITY

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_does_not_inherit_a_held_lock(self):
        """A process worker forked while another thread is inside the
        memo must still be able to adapt (its lock is made afresh)."""
        with _ADAPTED._lock:
            child = os.fork()
            if child == 0:
                try:
                    BOOL.adapt_bag(Bag.from_counts({Tup("a"): 2}), "R")
                finally:
                    os._exit(0)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            done, status = os.waitpid(child, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(child, 9)
            os.waitpid(child, 0)
            pytest.fail("the forked child hung on the inherited lock")
        assert status == 0


class TestStatisticsStayWarm:
    """Adapted bags keep their identity across queries, so a warm
    non-N query scans nothing and pins nothing new.  At the parent
    every call added one scan and one dead adapted bag per referenced
    relation."""

    @pytest.mark.parametrize("engine",
                             ("physical", "codegen", "parallel"))
    def test_fifty_warm_bool_calls_leave_the_stats_memo_flat(
            self, engine):
        options = {}
        if engine == "parallel":
            options = dict(workers=2, parallel_threshold=0.0,
                           min_morsel_rows=1)
        relations = {
            "R": Bag.from_counts({Tup(i, i % 7): 2 for i in range(64)}),
            "S": Bag.from_counts({Tup(i, i % 5): 1 for i in range(48)})}
        expected = engine_evaluate(EXPR, relations, engine=engine,
                                   semiring="bool", **options)
        scans, pinned = stats_scan_count(), len(_STATS_MEMO)
        adapted = len(_ADAPTED)
        for _ in range(50):
            assert engine_evaluate(EXPR, relations, engine=engine,
                                   semiring="bool",
                                   **options) == expected
        assert stats_scan_count() == scans
        assert len(_STATS_MEMO) == pinned
        assert len(_ADAPTED) == adapted

    def test_stale_foreign_binding_does_not_poison_other_queries(self):
        """Only referenced bindings are adapted — warm or cold."""
        database = dict(DB, T=TROPICAL.adapt_bag(R, "T"))
        for _ in range(2):
            assert engine_evaluate(EXPR, database, semiring="bool",
                                   cache=None) == tree_evaluate(
                EXPR, DB, semiring="bool")
            with pytest.raises(BagTypeError):
                engine_evaluate(var("T"), database, semiring="bool",
                                cache=None)


class TestWarmEqualsCold:
    """{bool, tropical, provenance} x {tree, physical, codegen,
    parallel thread, parallel process}: a memo-warm run is
    indistinguishable from a cold one (see semiring_warm_cold.py)."""

    def test_fixed_seed_sweep(self):
        problems = semiring_warm_cold.sweep(
            semiring_warm_cold.SEED, semiring_warm_cold.CASES)
        assert not problems, problems[:5]

    @pytest.mark.parametrize(
        "path,case,meta", _CORPUS,
        ids=[os.path.splitext(os.path.basename(path))[0]
             for path, _, _ in _CORPUS])
    def test_corpus_case(self, path, case, meta):
        assert not semiring_warm_cold.check_case(case)
