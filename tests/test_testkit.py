"""Tests for the conformance testkit itself: the typed generator, the
structural shrinker, the corpus (de)serialization, the differential
harness, the SQL recognizer, the metamorphic catalogue, and the fuzz
CLI.

The mutation checks at the bottom are the teeth: each reintroduces a
historical kernel-bug shape (monus keeping zero-count rows, nest
collapsing group multiplicities, unnest dropping the multiplicity
product) and asserts the ``oracle`` vs ``engine`` differential catches
it within a small bounded number of generated cases.  The detection
bounds are documented in ``docs/testkit.md``.
"""

from __future__ import annotations

import random

import pytest

import repro.engine.columnar as columnar
import repro.engine.kernels as kernels
from repro.core.bag import Bag, Tup
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Lam, Map,
    Powerset, Select, Subtraction, Tupling, Var,
)
from repro.core.fragments import max_bag_nesting
from repro.core.typecheck import TypeChecker, infer_type
from repro.core.types import BagType, TupleType, U
from repro.guard import FaultPlan, FaultSequence, Limits, is_injected
from repro.sql import run_sql
from repro.testkit import (
    Case, CaseGenerator, Harness, LAWS, balg1_expr, case_from_json,
    case_to_json, check_laws, flat_input_bag, generate_case,
    load_corpus, save_case, shrink_case,
)
from repro.testkit.differential import DEFAULT_BACKENDS, sql_view
from repro.testkit.generate import (
    FRAGMENT_NESTING, _node_count, subterms_with_rebuild,
)
from repro.testkit.corpus import value_from_json, value_to_json


def _simple_case(expr, schema, database, fragment="balg2"):
    return Case(schema=schema, database=database, expr=expr,
                fragment=fragment)


def _contains(expr, cls) -> bool:
    if isinstance(expr, cls):
        return True
    return any(_contains(child, cls)
               for child, _ in subterms_with_rebuild(expr))


FLAT = BagType(TupleType((U, U)))


class TestGenerator:
    def test_deterministic_replay(self):
        for index in (0, 3, 17):
            first = generate_case(42, index)
            second = generate_case(42, index)
            assert first.expr == second.expr
            assert first.schema == second.schema
            assert first.database == second.database

    def test_indices_give_distinct_streams(self):
        exprs = {generate_case(7, index).expr for index in range(12)}
        assert len(exprs) > 6

    def test_cases_are_well_typed(self):
        for index in range(40):
            case = generate_case(11, index, fragment="mixed")
            typ = TypeChecker().check(case.expr, case.schema)
            assert isinstance(typ, BagType)

    def test_fragment_nesting_bound_respected(self):
        for fragment, cap in FRAGMENT_NESTING.items():
            for index in range(25):
                case = generate_case(3, index, fragment=fragment)
                assert case.fragment == fragment
                assert max_bag_nesting(case.expr, case.schema) <= cap

    def test_database_matches_schema(self):
        for index in range(15):
            case = generate_case(23, index)
            assert set(case.database) == set(case.schema)
            for name, bag in case.database.items():
                assert isinstance(bag, Bag)

    def test_balg1_port_is_well_typed(self):
        schema = {"B": FLAT}
        for seed in range(30):
            rng = random.Random(seed)
            expr = balg1_expr(rng)
            typ = TypeChecker().check(expr, schema)
            assert typ == FLAT
            assert max_bag_nesting(expr, schema) <= 1

    def test_flat_input_bag_shape(self):
        rng = random.Random(5)
        bag = flat_input_bag(rng, arity=3, max_size=4)
        assert isinstance(bag, Bag)
        for element in bag.distinct():
            assert isinstance(element, Tup) and element.arity == 3

    def test_generator_object_respects_size(self):
        generator = CaseGenerator(random.Random(1), fragment="balg2",
                                  size=6)
        case = generator.case()
        assert _node_count(case.expr) <= 3 * 6  # loose structural cap


class TestShrinker:
    def test_subterms_cover_lambda_bodies(self):
        expr = Map(Lam("t", Tupling(Attribute(Var("t"), 1))),
                   Var("R"))
        children = [child for child, _ in subterms_with_rebuild(expr)]
        assert Var("R") in children
        assert Tupling(Attribute(Var("t"), 1)) in children

    def test_rebuild_round_trips(self):
        expr = AdditiveUnion(Dedup(Var("R")), Var("S"))
        for child, rebuild in subterms_with_rebuild(expr):
            assert rebuild(child) == expr

    def test_shrink_preserves_predicate_and_shrinks(self):
        # predicate: the expression still mentions a Dedup node
        big = AdditiveUnion(
            Cartesian(Dedup(Var("R")), Var("R")),
            AdditiveUnion(Var("R"), Var("R")))
        case = _simple_case(
            big, {"R": FLAT},
            {"R": Bag.of(Tup("a", "b"), Tup("a", "b"), Tup("c", "d"))})

        def still_fails(candidate):
            return _contains(candidate.expr, Dedup)

        small = shrink_case(case, still_fails)
        assert still_fails(small)
        assert _node_count(small.expr) < _node_count(case.expr)
        # the minimal Dedup-containing well-typed expression here is
        # Dedup(R) itself (promotion all the way up)
        assert small.expr == Dedup(Var("R"))

    def test_shrink_drops_unused_relations(self):
        case = _simple_case(
            Dedup(Var("R")),
            {"R": FLAT, "S": FLAT},
            {"R": Bag.of(Tup("a", "b")), "S": Bag.of(Tup("c", "d"))})
        small = shrink_case(case,
                            lambda c: _contains(c.expr, Dedup))
        assert set(small.schema) == {"R"}
        assert set(small.database) == {"R"}

    def test_shrink_shrinks_constants(self):
        case = _simple_case(
            Const(Bag.of("a", "a", "b", "c")), {}, {})
        small = shrink_case(
            case,
            lambda c: isinstance(c.expr, Const)
            and not c.expr.value.is_empty())
        assert isinstance(small.expr, Const)
        assert small.expr.value.cardinality == 1

    def test_shrunk_case_stays_well_typed(self):
        case = generate_case(2, 4)
        small = shrink_case(case, lambda c: True)
        TypeChecker().check(small.expr, small.schema)


class TestCorpus:
    def test_value_json_round_trip(self):
        nested = Bag.of(
            Tup("a", Bag.of(Tup(1), Tup(1), Tup(2))),
            Tup("b", Bag()))
        assert value_from_json(value_to_json(nested)) == nested

    def test_value_json_is_deterministic(self):
        one = Bag.of("b", "a", "a")
        two = Bag.of("a", "a", "b")
        assert value_to_json(one) == value_to_json(two)

    def test_case_json_round_trip(self):
        for index in range(10):
            case = generate_case(9, index, fragment="mixed")
            back = case_from_json(case_to_json(case))
            assert back.schema == case.schema
            assert back.database == case.database
            # surface text round trip is semantic (pi-sugar), so
            # compare by evaluation through the harness oracle
            harness = Harness(backends=("oracle",), metamorphic=False)
            original = harness.run_case(case).outcomes["oracle"]
            replayed = harness.run_case(back).outcomes["oracle"]
            assert original.status == replayed.status
            if original.status == "ok":
                assert original.value == replayed.value

    def test_save_and_load(self, tmp_path):
        case = generate_case(13, 2)
        path = save_case(case, str(tmp_path), meta={"kind": "value"})
        assert path.endswith(".json")
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        saved_path, saved_case, meta = loaded[0]
        assert saved_path == path
        assert meta["kind"] == "value"
        assert saved_case.schema == case.schema

    def test_malformed_value_rejected(self):
        from repro.core.errors import ReproError
        with pytest.raises(ReproError):
            value_from_json(["nope", 1])
        with pytest.raises(ReproError):
            value_to_json(object())


class TestHarness:
    def test_clean_case_reports_ok(self):
        harness = Harness()
        report = harness.run_case(generate_case(0, 0))
        assert report.ok
        assert set(report.outcomes) == set(DEFAULT_BACKENDS)
        assert report.outcomes["oracle"].status == "ok"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Harness(backends=("oracle", "quantum"))

    def test_powerset_blowup_is_governed_not_mismatch(self):
        rows = Bag.of(*(Tup(i, i) for i in range(12)))
        case = _simple_case(Powerset(Var("R")), {"R": FLAT},
                            {"R": rows}, fragment="balg2")
        harness = Harness(backends=("oracle", "engine"),
                          limits=Limits(max_steps=100_000,
                                        max_size=10_000,
                                        powerset_budget=64,
                                        max_depth=300),
                          metamorphic=False)
        report = harness.run_case(case)
        assert report.ok
        assert report.outcomes["oracle"].status == "governed"

    def test_engine_warm_hits_plan_cache(self):
        harness = Harness(backends=("oracle", "engine-warm"),
                          metamorphic=False)
        case = generate_case(4, 1)
        report = harness.run_case(case)
        assert report.ok
        assert harness.cache.stats.hits >= 1

    def test_injected_fault_degrades_to_governed(self):
        harness = Harness(
            backends=("oracle", "engine"), metamorphic=False,
            faults=FaultSequence([FaultPlan(at_step=1, kind="budget")]))
        report = harness.run_case(generate_case(0, 2))
        assert report.ok
        for outcome in report.outcomes.values():
            assert outcome.status == "governed"
            assert is_injected(outcome.error)

    def test_value_disagreement_is_reported(self):
        # a fake backend disagreement via a broken kernel, one case
        original = columnar.c_monus

        def broken(left, right, sr=None):
            return {value: count + 1
                    for value, count in original(left, right, sr).items()}

        # Subtraction drives monus; the mutant inflates every count
        case = _simple_case(
            Subtraction(AdditiveUnion(Var("R"), Var("R")), Var("R")),
            {"R": FLAT}, {"R": Bag.of(Tup("a", "b"))})
        columnar.c_monus = broken
        try:
            harness = Harness(backends=("oracle", "engine"),
                              metamorphic=False)
            report = harness.run_case(case)
        finally:
            columnar.c_monus = original
        assert not report.ok
        assert report.mismatches[0].kind == "value"
        assert report.mismatches[0].backend == "engine"


class TestSqlView:
    SCHEMA = {"R": FLAT, "S": FLAT}

    def _check(self, expr, database):
        view = sql_view(expr, self.SCHEMA)
        assert view is not None
        text, catalog = view
        rows = run_sql(text, catalog, database)
        from repro.core.eval import evaluate
        expected = evaluate(expr, **database)
        decoded = sorted((tuple(element.items())
                          for element in expected.elements()),
                         key=repr)
        assert rows == decoded
        return text

    def test_select_project_dedup(self):
        database = {"R": Bag.of(Tup("a", "b"), Tup("a", "b"),
                                Tup("b", "b")),
                    "S": Bag.of(Tup("c", "d"))}
        expr = Dedup(Map(
            Lam("t", Tupling(Attribute(Var("t"), 2))),
            Select(Lam("t", Attribute(Var("t"), 1)),
                   Lam("t", Attribute(Var("t"), 2)),
                   Var("R"), op="eq")))
        text = self._check(expr, database)
        assert text.startswith("SELECT DISTINCT")
        assert "WHERE t1.c1 = t1.c2" in text

    def test_join_and_setop(self):
        database = {"R": Bag.of(Tup("a", "b"), Tup("c", "d")),
                    "S": Bag.of(Tup("a", "b"))}
        expr = AdditiveUnion(Cartesian(Var("R"), Var("S")),
                             Cartesian(Var("R"), Var("S")))
        text = self._check(expr, database)
        assert "UNION ALL" in text
        assert "FROM R t1, S t2" in text

    def test_constant_comparison(self):
        database = {"R": Bag.of(Tup("a", "b"), Tup("x", "y")),
                    "S": Bag.of(Tup("c", "d"))}
        expr = Select(Lam("t", Attribute(Var("t"), 1)),
                      Lam("t", Const("a")), Var("R"), op="eq")
        text = self._check(expr, database)
        assert "t1.c1 = 'a'" in text

    def test_unsupported_shapes_return_none(self):
        assert sql_view(Powerset(Var("R")), self.SCHEMA) is None
        assert sql_view(Dedup(Powerset(Var("R"))), self.SCHEMA) is None
        quoted = Select(Lam("t", Attribute(Var("t"), 1)),
                        Lam("t", Const("a'b")), Var("R"), op="eq")
        assert sql_view(quoted, self.SCHEMA) is None


class TestMetamorphic:
    def _run(self, expr, schema, database, value=None):
        case = _simple_case(expr, schema, database)
        typ = infer_type(expr, schema)
        from repro.core.eval import Evaluator
        evaluate = lambda e: Evaluator().run(e, database)  # noqa: E731
        if value is None:
            value = evaluate(expr)
        return check_laws(case, typ, value, evaluate)

    def test_clean_case_passes_all_applicable_laws(self):
        results = self._run(
            Dedup(Var("R")), {"R": FLAT},
            {"R": Bag.of(Tup("a", "b"), Tup("a", "b"))})
        assert results
        assert not [law for law in results if law.status == "failed"]
        assert {law.name for law in results} == {name
                                                for name, _, _ in LAWS}

    def test_wrong_value_fails_a_law(self):
        results = self._run(
            Dedup(Var("R")), {"R": FLAT},
            {"R": Bag.of(Tup("a", "b"))},
            value=Bag.of(Tup("z", "z"), Tup("z", "z")))
        assert [law for law in results if law.status == "failed"]

    def test_laws_carry_paper_refs(self):
        refs = {ref for _, ref, _ in LAWS}
        assert "Proposition 3.1" in refs
        assert "Section 3" in refs


class TestFuzzCli:
    def test_small_clean_run_exits_zero(self, tmp_path, capsys):
        from repro.testkit.cli import main
        status = main(["--cases", "6", "--seed", "3",
                       "--corpus", str(tmp_path), "--quiet"])
        out = capsys.readouterr().out
        assert status == 0
        assert "fuzz: OK" in out
        assert not list(tmp_path.iterdir())

    def test_dispatch_through_repro_cli(self, tmp_path, capsys):
        from repro.cli import main
        status = main(["fuzz", "--cases", "2", "--seed", "1",
                       "--corpus", str(tmp_path), "--quiet",
                       "--backends", "oracle,engine"])
        assert status == 0

    def test_bad_seed_is_usage_error(self, capsys):
        from repro.testkit.cli import main
        assert main(["--seed", "banana", "--cases", "1"]) == 2

    def test_bad_backend_is_usage_error(self, capsys):
        from repro.testkit.cli import main
        assert main(["--backends", "oracle,quantum",
                     "--cases", "1"]) == 2

    def test_failure_persists_minimized_corpus_case(self, tmp_path,
                                                    capsys):
        from repro.testkit.cli import main
        original = columnar.c_monus

        def broken(left, right, sr=None):
            get = right.get
            return {value: max(1, count - get(value, 0))
                    for value, count in left.items()
                    if count - get(value, 0) >= 0}

        columnar.c_monus = broken
        try:
            status = main(["--cases", "40", "--seed", "0",
                           "--corpus", str(tmp_path), "--quiet",
                           "--backends", "oracle,engine",
                           "--no-metamorphic"])
        finally:
            columnar.c_monus = original
        out = capsys.readouterr().out
        assert status == 1
        assert "MISMATCH" in out
        saved = load_corpus(str(tmp_path))
        assert saved
        _, case, meta = saved[0]
        assert meta["kind"] == "value"
        # the persisted repro must still fail under the mutant...
        columnar.c_monus = broken
        try:
            harness = Harness(backends=("oracle", "engine"),
                              metamorphic=False)
            assert not harness.run_case(case).ok
        finally:
            columnar.c_monus = original
        # ... and replay green on the fixed kernels
        assert harness.run_case(case).ok


# ----------------------------------------------------------------------
# Mutation checks: reintroduced kernel bugs must be caught quickly
# ----------------------------------------------------------------------

def _detect(mutant_name, patch, cases=60, module=kernels):
    """Run oracle-vs-engine over a fixed stream with one kernel
    mutated; return the 1-based index of the first mismatch."""
    original = getattr(module, mutant_name)
    setattr(module, mutant_name, patch(original))
    try:
        harness = Harness(backends=("oracle", "engine"),
                          metamorphic=False)
        for index in range(cases):
            report = harness.run_case(
                generate_case(0, index, fragment="mixed"))
            if report.mismatches:
                return index + 1
        return None
    finally:
        setattr(module, mutant_name, original)


class TestMutationDetection:
    def test_monus_keeping_zero_rows_is_caught(self):
        def patch(orig):
            def patched(left, right):
                get = right.get
                return {value: max(1, count - get(value, 0))
                        for value, count in left.items()
                        if count - get(value, 0) >= 0}
            return patched

        assert _detect("c_monus", patch, module=columnar) is not None

    def test_nest_collapsing_group_multiplicities_is_caught(self):
        def patch(orig):
            def patched(counts, group_indices):
                for value, count in orig(counts, group_indices):
                    items = value.items()
                    inner = items[-1]
                    if isinstance(inner, Bag):
                        value = Tup(*items[:-1],
                                    Bag(list(inner.distinct())))
                    yield value, count
            return patched

        assert _detect("k_nest", patch) < 10

    def test_unnest_dropping_multiplicity_product_is_caught(self):
        def patch(orig):
            def patched(rows, index):
                seen = {}
                for value, count in orig(rows, index):
                    seen[value] = seen.get(value, 0) + 1
                yield from seen.items()
            return patched

        assert _detect("k_unnest", patch) < 10
