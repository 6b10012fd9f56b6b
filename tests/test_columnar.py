"""Tests for the columnar runtime and the plan-to-steps codegen.

Three layers:

* **representation** — ``to_columnar``/``from_columnar`` round-trips
  (including empty bags and multiplicities past 2^16) and the bulk
  kernels of :mod:`repro.engine.columnar` pinned one by one;
* **compiler** — segment fusion, super-kernel pattern matches
  (sym-diff-dedup, in-place dedup-union, scale folding), barrier
  steps, SharedScan transparency, the one plan every engine and opt
  level executes, and the ``:explain`` counters;
* **mutation teeth** — the monus count-clamp, the join multiplicity
  product, and the dedup count-collapse each get a deliberately
  broken kernel; the ``oracle`` vs ``engine-opt2`` differential
  must catch every mutant within 10 generated cases (a segment's
  steps look kernels up on the module object when they run, so
  patching ``repro.engine.columnar`` attributes reaches inside
  compiled plans).  The fused join-project path (``picks=``) gets
  four mutants of its own, each caught by the kernel pins as well;
  so does the fused join-dedup path (``dedup=``: one match per probe
  row, build/probe concatenation order, a count where one belongs),
  the nest kernel (a dropped multiplicity, the row's shape stamped on
  the inner bag) and the lambda-invariant search (one that enters an
  inner lambda's body).
"""

from __future__ import annotations

import contextlib
import importlib
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.columnar as columnar
import repro.engine.kernels as kernels
from repro.core.bag import Bag, Tup, _shape_of
from repro.core.errors import BagTypeError
from repro.core.derived import project_expr
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Lam, Map,
    Powerset, Select, Subtraction, Tupling, Var, var,
)
from repro.core.nest import Nest, Unnest, nest_bag
from repro.core.semiring import resolve_semiring
from repro.core.types import TupleType
from repro.engine import (
    EngineStats, PlanCache, evaluate, explain_physical, plan_for,
)
from repro.engine.lower import PhysicalPlan
from repro.engine.columnar import (
    ColumnarBag, c_add_union, c_dedup, c_hash_join, c_map, c_max_union,
    c_min_intersect, c_monus, c_product, c_scale, c_scale_dict,
    c_select, c_sym_diff_dedup, columnar_counts, from_columnar,
    sum_counts, to_columnar,
)
from repro.planner.pipeline import _combined_tag
from repro.planner import PassConfig, PlanContext
from repro.planner.context import toggleable_passes
from repro.testkit import Case, Harness, generate_case
from repro.workloads import random_multigraph, random_relation
from tests import rearrangement_sweep
from tests.strategies import input_bags

#: the module (``repro.engine.lower`` the attribute is the function)
lower = importlib.import_module("repro.engine.lower")


def _ab(a_count, b_count):
    counts = {}
    if a_count:
        counts[Tup("a",)] = a_count
    if b_count:
        counts[Tup("b",)] = b_count
    return counts


# ----------------------------------------------------------------------
# Representation round-trips
# ----------------------------------------------------------------------

class TestColumnarRoundTrip:
    def test_empty_bag(self):
        col = to_columnar(Bag([]))
        assert len(col) == 0
        assert from_columnar(col) == Bag([])

    def test_small_bag(self):
        bag = Bag.from_counts({Tup("a", "b"): 3, Tup("b", "a"): 1})
        assert from_columnar(to_columnar(bag)) == bag

    def test_multiplicity_past_2_16(self):
        # counts are unbounded ints, not fixed-width column cells
        bag = Bag.from_counts({Tup("a",): 2 ** 16 + 7,
                               Tup("b",): 2 ** 40})
        round_tripped = from_columnar(to_columnar(bag))
        assert round_tripped == bag
        assert round_tripped.multiplicity(Tup("a",)) == 2 ** 16 + 7

    @given(input_bags())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, bag):
        assert from_columnar(to_columnar(bag)) == bag

    def test_to_columnar_rejects_non_bags(self):
        with pytest.raises(BagTypeError):
            to_columnar([("a", 1)])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnarBag([Tup("a",)], [1, 2])

    def test_non_distinct_columns_sum_on_materialisation(self):
        col = ColumnarBag([Tup("a",), Tup("a",)], [2, 3],
                          distinct=False)
        assert columnar_counts(col) == {Tup("a",): 5}
        assert from_columnar(col) == Bag.from_counts({Tup("a",): 5})


# ----------------------------------------------------------------------
# Kernels, pinned one by one
# ----------------------------------------------------------------------

class TestKernels:
    def test_monus_clamps_at_zero_and_drops_rows(self):
        assert c_monus(_ab(5, 2), _ab(3, 2)) == _ab(2, 0)
        assert c_monus(_ab(1, 0), _ab(4, 0)) == {}

    def test_monus_does_not_mutate_inputs(self):
        left, right = _ab(5, 2), _ab(3, 1)
        c_monus(left, right)
        assert left == _ab(5, 2) and right == _ab(3, 1)

    def test_min_intersect(self):
        assert c_min_intersect(_ab(5, 2), _ab(3, 0)) == _ab(3, 0)

    def test_max_union(self):
        assert c_max_union(_ab(5, 2), _ab(3, 7)) == _ab(5, 7)

    def test_add_union(self):
        assert c_add_union(_ab(5, 2), _ab(3, 7)) == _ab(8, 9)

    def test_dedup_collapses_the_count_column(self):
        # not just repeats: a count of 40 collapses to 1 too
        assert c_dedup([Tup("a",), Tup("a",), Tup("b",)]) == _ab(1, 1)
        assert c_dedup(_ab(40, 2)) == _ab(1, 1)

    def test_sym_diff_dedup_matches_composed_kernels(self):
        left = {Tup(x,): (ord(x) % 5) + 1 for x in "abcdef"}
        right = {Tup(x,): (ord(x) % 3) + 1 for x in "defghi"}
        composed = c_dedup(c_add_union(c_monus(left, right),
                                       c_monus(right, left)))
        assert c_sym_diff_dedup(left, right) == composed

    def test_scale(self):
        assert c_scale([1, 2, 3], 4) == [4, 8, 12]
        assert c_scale_dict(_ab(1, 2), 3) == _ab(3, 6)

    def test_map_and_select(self):
        values = [Tup("a", "b"), Tup("b", "a")]
        assert c_map(values, lambda t: Tup(t.items()[1])) == \
            [Tup("b",), Tup("a",)]
        kept_v, kept_c = c_select(values, [2, 3],
                                  lambda t: t.items()[0] == "a")
        assert kept_v == [Tup("a", "b")] and kept_c == [2]

    def test_product_multiplies_counts_and_requires_tups(self):
        out_v, out_c = c_product([Tup("a",)], [2], {Tup("b",): 3})
        assert out_v == [Tup("a", "b")] and out_c == [6]
        with pytest.raises(BagTypeError):
            c_product(["a"], [1], {Tup("b",): 1})

    def test_hash_join_multiplies_counts(self):
        out_v, out_c = c_hash_join(
            [Tup("a", "b")], [2], {Tup("b", "c"): 3},
            probe_key=lambda t: t.items()[1],
            build_key=lambda t: t.items()[0],
            probe_is_left=True)
        assert out_v == [Tup("a", "b", "b", "c")] and out_c == [6]

    def test_fused_projection_sums_on_raw_item_tuples(self):
        _fused_projection_pins()

    def test_fused_projection_is_the_projected_join(self):
        # picks= against the unfused kernel, a closure and sum_counts
        for picks in [(4, 4, 1), (2,), (3, 1)]:
            pick = columnar.pick_getter(picks)
            for probe, build, keys, probe_is_left in _JOIN_SIDES:
                args = (list(probe), list(probe.values()), build, *keys,
                        probe_is_left)
                values, counts = c_hash_join(*args)
                projected = sum_counts(
                    [Tup(*pick(value.items())) for value in values],
                    counts)
                assert c_hash_join(*args, picks=picks) == (
                    projected, len(values))
            values, counts = c_product(list(_PL), list(_PL.values()),
                                       _PR)
            assert c_product(list(_PL), list(_PL.values()), _PR,
                             picks=picks) == (
                sum_counts([Tup(*pick(value.items()))
                            for value in values], counts), len(values))

    def test_fused_projection_rejects_a_pick_past_the_arity(self):
        probe, build, keys, probe_is_left = _JOIN_SIDES[0]
        with pytest.raises(BagTypeError,
                           match="attribute index 5 out of range for "
                                 "arity 4"):
            c_hash_join(list(probe), list(probe.values()), build,
                        *keys, probe_is_left, picks=(1, 5))
        with pytest.raises(BagTypeError, match="index 7 out of range"):
            c_product(list(_PL), list(_PL.values()), _PR, picks=(7,))
        # no pair, no pick, no error
        assert c_product([], [], _PR, picks=(7,)) == ({}, 0)

    def test_fused_dedup_is_the_deduped_join(self):
        _fused_dedup_pins()

    def test_fused_dedup_reads_no_count_and_keeps_the_checks(self):
        probe, build, keys, probe_is_left = _JOIN_SIDES[0]
        # no probe count column at all, and a build dict whose counts
        # would fail any arithmetic
        poisoned = dict.fromkeys(build, object())
        got, pairs = c_hash_join(list(probe), None, poisoned, *keys,
                                 probe_is_left, dedup=True)
        assert got == dict.fromkeys(
            c_hash_join(list(probe), list(probe.values()), build,
                        *keys, probe_is_left)[0], 1) and pairs == 5
        assert c_product(list(_PL), None, dict.fromkeys(_PR, object()),
                         dedup=True)[1] == 9
        with pytest.raises(BagTypeError, match="hash join requires"):
            c_hash_join(["a"], None, build, *keys, probe_is_left,
                        dedup=True)
        with pytest.raises(BagTypeError, match="cartesian product"):
            c_product(list(_PL), None, {"b": 1}, dedup=True)
        with pytest.raises(BagTypeError,
                           match="attribute index 5 out of range for "
                                 "arity 4"):
            c_hash_join(list(probe), None, build, *keys, probe_is_left,
                        picks=(1, 5), dedup=True)
        ticks = []
        c_product([Tup("x",)] * 3, None,
                  {Tup(str(i),): 1 for i in range(columnar.TICK_CHUNK)},
                  tick=lambda: ticks.append(1), dedup=True)
        assert len(ticks) == 3

    def test_quadratic_kernels_tick(self):
        ticks = []
        build = {Tup(str(i),): 1 for i in range(columnar.TICK_CHUNK)}
        c_product([Tup("x",)] * 3, [1] * 3, build,
                  tick=lambda: ticks.append(1))
        assert ticks  # at least one chunk boundary crossed

    def test_sum_counts_sums_repeats(self):
        assert sum_counts([Tup("a",), Tup("a",)], [2, 5]) == \
            {Tup("a",): 7}


#: ``sigma_{2=3}(L x R)`` on a fixed input whose ``pi_4`` images
#: collide across probe rows, every count distinct
_PL = {Tup("a", 1): 2, Tup("b", 1): 3, Tup("c", 2): 1}
_PR = {Tup(1, "x"): 5, Tup(1, "y"): 1, Tup(2, "x"): 7}
_KEY_L, _KEY_R = (lambda tup: tup.attribute(2),
                  lambda tup: tup.attribute(1))
#: (probe, build, (probe key, build key), probe_is_left): build right,
#: then build left
_JOIN_SIDES = [(_PL, _PR, (_KEY_L, _KEY_R), True),
               (_PR, _PL, (_KEY_R, _KEY_L), False)]


def _fused_projection_pins():
    """The fused kernels on the fixed input: colliding images sum,
    counts multiply, concatenation follows the logical left/right
    order whichever side probes, and one pick is a 1-ary ``Tup``."""
    for probe, build, keys, probe_is_left in _JOIN_SIDES:
        args = (list(probe), list(probe.values()), build, *keys,
                probe_is_left)
        assert columnar.c_hash_join(*args, picks=(4,)) == (
            {Tup("x"): 2 * 5 + 3 * 5 + 1 * 7, Tup("y"): 2 * 1 + 3 * 1},
            5)
        assert columnar.c_hash_join(*args, picks=(4, 1))[0] == {
            Tup("x", "a"): 10, Tup("y", "a"): 2, Tup("x", "b"): 15,
            Tup("y", "b"): 3, Tup("x", "c"): 7}
    assert columnar.c_product(list(_PL), list(_PL.values()), _PR,
                              picks=(3,)) == (
        {Tup(1): (2 + 3 + 1) * (5 + 1), Tup(2): (2 + 3 + 1) * 7}, 9)


#: BALG^2 sides of ``sigma_{1=3}(L x R)`` for the fused dedup pins: the
#: inner bag is empty on one row and full on the others (so the rows'
#: shapes differ), one row's shape is still uncomputed (its joined
#: rows get none, as ``Tup.concat`` gives them), and the probe column
#: repeats a row, so equal joined rows meet twice
_NL_ROWS = [Tup("a", Bag()), Tup("a", Bag(["x", "x"])), Tup("b", Bag(["y"]))]
_NR_ROWS = [Tup("a", 1), Tup("a", 2), Tup("b", 1), Tup("c", 3)]


def _dedup_sides(sr):
    """``(probe values, probe counts, build dict, keys, probe_is_left)``
    in both build orientations, then with an empty side, each count
    the semiring's own."""
    def count(n):
        return n if sr is None else sr.from_int(n)

    for row in _NL_ROWS[:2] + _NR_ROWS:
        _shape_of(row)
    left = _NL_ROWS + [_NL_ROWS[1]]
    lcounts = [count(2), count(3), count(1), count(4)]
    right = {row: count(index + 2) for index, row in enumerate(_NR_ROWS)}
    keys = (lambda tup: tup.attribute(1), lambda tup: tup.attribute(1))
    yield left, lcounts, right, keys, True
    yield list(right), list(right.values()), dict(zip(left, lcounts)), \
        keys, False
    yield [], [], right, keys, True
    yield left, lcounts, {}, keys, True


def _fused_dedup_pins():
    """``dedup=True`` against ``c_dedup`` of the plain kernel's value
    column, under every semiring: the same rows in the same order,
    each key with the plain path's ``_shape``, every count one, and
    the pairs enumerated; with ``picks`` too."""
    for name in ("nat", "bool", "tropical", "provenance"):
        sr = resolve_semiring(name)
        extra = () if sr is None else (None, sr)
        for values, counts, build, keys, probe_is_left in \
                _dedup_sides(sr):
            for call, args in (
                    (c_hash_join, (*keys, probe_is_left)),
                    (c_product, ())):
                plain, _ = call(values, counts, build, *args, *extra)
                got, pairs = call(values, None, build, *args, *extra,
                                  dedup=True)
                expected = c_dedup(plain, *extra[1:])
                assert list(got) == list(expected)
                assert [row._shape for row in got] == [
                    row._shape for row in expected]
                assert list(got.values()) == list(expected.values())
                assert pairs == len(plain)
                projected, _ = call(values, counts, build, *args,
                                    *extra, picks=(4, 1))
                assert call(values, None, build, *args, *extra,
                            picks=(4, 1), dedup=True) == (
                    c_dedup(projected, *extra[1:]), len(plain))
    # the shapes were checked, not vacuous: a rigid row and an unknown
    got = c_hash_join(_NL_ROWS, None, dict.fromkeys(_NR_ROWS, 1),
                      *next(_dedup_sides(None))[3], True, dedup=True)[0]
    assert {row._shape is None for row in got} == {True, False}


# ----------------------------------------------------------------------
# Compiler: fusion, super-kernels, barriers, cache keys
# ----------------------------------------------------------------------

def _sym_diff_chain(depth):
    x, y = var("X"), var("Y")
    for _ in range(depth):
        x = Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))
    return x


def _union_dedup_cascade(levels):
    x = var("A0")
    for i in range(levels):
        x = Dedup(AdditiveUnion(x, var(f"A{(i % 2) + 1}")))
    return x


def _scale_cascade(depth):
    x = var("X")
    for _ in range(depth):
        x = AdditiveUnion(x, x)
    return x


class TestCodegenCompiler:
    X = random_multigraph(10, 300, seed=1)
    Y = random_multigraph(10, 300, seed=2)

    def _parity(self, expr, database, **kwargs):
        stats = EngineStats()
        fused = evaluate(expr, database, engine="codegen", cache=None,
                         stats=stats, **kwargs)
        walked = evaluate(expr, database, engine="tree", **kwargs)
        assert fused == walked
        return stats

    def test_sym_diff_chain_fuses_to_super_kernel(self):
        expr = _sym_diff_chain(3)
        plan = plan_for(expr, {"X": self.X, "Y": self.Y},
                        engine="codegen")
        assert isinstance(plan, PhysicalPlan)
        kernels = [k for segment in plan.segments
                   for k in segment.kernels]
        assert "sym-diff-dedup" in kernels
        stats = self._parity(expr, {"X": self.X, "Y": self.Y})
        assert stats.fused_segments > 0
        assert stats.barrier_fallbacks == 0

    def test_union_dedup_cascade_merges_in_place(self):
        expr = _union_dedup_cascade(6)
        database = {f"A{i}": random_relation(12, arity=2, seed=20 + i)
                    for i in range(3)}
        plan = plan_for(expr, database, engine="codegen")
        kernels = [k for segment in plan.segments
                   for k in segment.kernels]
        assert "dedup-union" in kernels
        self._parity(expr, database)

    def test_scale_cascade_folds_to_one_factor(self):
        expr = _scale_cascade(4)
        plan = plan_for(expr, {"X": self.X}, engine="codegen")
        source = "".join(segment.source
                         for segment in plan.segments)
        # 2^4 = 16 in a single scale call, not four doublings
        assert "16" in source
        assert sum(segment.kernels.count("scale")
                   for segment in plan.segments) <= 1
        self._parity(expr, {"X": self.X})

    def test_powerset_is_a_barrier_fallback(self):
        expr = Dedup(Powerset(var("S")))
        database = {"S": random_relation(3, arity=1, seed=5)}
        stats = self._parity(expr, database)
        assert stats.barrier_fallbacks == 1

    def test_a_barrier_at_the_root_is_a_step_like_any_other(self):
        expr = Powerset(var("S"))
        database = {"S": random_relation(3, arity=1, seed=5)}
        plan = plan_for(expr, database, engine="codegen")
        assert plan.kernels() == ("scan", "powerset")
        stats = self._parity(expr, database)
        assert stats.barrier_fallbacks == 1
        assert stats.fused_segments == 1

    def test_sym_diff_super_kernel_absorbs_the_sharing(self):
        # every chain level mentions the previous level twice, but the
        # matched super-kernel reads each level exactly once — the
        # memo materialises shared levels without ever re-reading them
        expr = _sym_diff_chain(4)
        stats = self._parity(expr, {"X": self.X, "Y": self.Y})
        assert stats.shared_materialized > 0
        assert stats.shared_reused == 0
        assert stats.kernel_counts.get("sym-diff-dedup") == 4

    def test_shared_subtrees_materialise_once(self):
        # without a dedup on top the super-kernel cannot fire, so the
        # repeated subtree really is read twice — once materialised,
        # once served from the run's memo
        shared = Subtraction(var("X"), var("Y"))
        expr = AdditiveUnion(Subtraction(shared, var("Y")),
                             Subtraction(var("Y"), shared))
        stats = self._parity(expr, {"X": self.X, "Y": self.Y})
        assert stats.shared_materialized == 1
        assert stats.shared_reused == 1

    def test_scan_views_are_not_mutated(self):
        # scans hand out the bag's internal dict uncopied; an in-place
        # merge against a scan base must copy first
        bag = Bag.from_counts({Tup("a", "b"): 1, Tup("c", "d"): 1})
        other = random_relation(6, arity=2, seed=9)
        before = dict(bag._counts)
        expr = Dedup(AdditiveUnion(Dedup(var("B")), var("C")))
        self._parity(expr, {"B": bag, "C": other})
        assert bag._counts == before

    def test_every_engine_and_opt_level_runs_fused_segments(self):
        expr = _sym_diff_chain(2)
        database = {"X": self.X, "Y": self.Y}
        for engine in ("physical", "codegen", "parallel"):
            for level in (0, 1, 2, 3):
                stats = EngineStats()
                evaluate(expr, database, engine=engine, opt_level=level,
                         cache=None, stats=stats)
                assert stats.fused_segments >= 1, (engine, level)
                plan = plan_for(expr, database, engine=engine,
                                opt_level=level)
                assert isinstance(plan, PhysicalPlan)
                assert plan.root_segment in plan.segments

    def test_the_engine_name_only_picks_the_default_level(self):
        expr = _sym_diff_chain(2)
        database = {"X": self.X, "Y": self.Y}
        for level in (0, 1, 2, 3):
            physical = plan_for(expr, database, opt_level=level)
            codegen = plan_for(expr, database, engine="codegen",
                               opt_level=level)
            assert physical.render() == codegen.render()
        # levels 2 and 3 run the same passes
        assert (plan_for(expr, database, opt_level=3).render()
                == plan_for(expr, database, opt_level=2).render())
        assert (plan_for(expr, database, engine="codegen").render()
                == plan_for(expr, database, opt_level=3).render())
        # one table resolves the names: level 3 is level 2, "codegen"
        # is the physical engine, and its default level is 2
        assert PassConfig.for_level(3) == PassConfig.for_level(2)
        assert PlanContext(engine="codegen").engine == "physical"
        cache, stats = PlanCache(capacity=8), EngineStats()
        physical = plan_for(expr, database, cache=cache, stats=stats,
                            engine="physical", opt_level=2)
        codegen = plan_for(expr, database, cache=cache, stats=stats,
                           engine="codegen")
        assert codegen is physical
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)

    def test_cache_tag_has_no_engine_component(self):
        config = PassConfig.for_level(3)
        assert _combined_tag(config, None) == (config.cache_tag(), None,
                                               None)
        assert "codegen" not in toggleable_passes()
        with pytest.raises(TypeError):
            _combined_tag(config, None, codegen=True)

    def test_physical_and_codegen_share_a_cache_entry(self):
        cache = PlanCache(capacity=8)
        stats = EngineStats()
        expr = _sym_diff_chain(2)
        database = {"X": self.X, "Y": self.Y}
        first = evaluate(expr, database, engine="codegen", cache=cache,
                         stats=stats)
        assert (stats.cache_misses, stats.cache_hits) == (1, 0)
        # the same config from the other engine name: the same entry
        crossed = evaluate(expr, database, engine="physical",
                           opt_level=3, cache=cache, stats=stats)
        assert crossed == first
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)
        # another level is another plan
        evaluate(expr, database, engine="physical", cache=cache,
                 stats=stats)
        assert (stats.cache_misses, stats.cache_hits) == (2, 1)

    def test_explain_reports_fusion_counters(self):
        for engine in ("physical", "codegen"):
            text = explain_physical(_sym_diff_chain(2), engine=engine,
                                    X=self.X, Y=self.Y)
            assert "-- codegen --" in text
            assert "fused segments" in text
            assert "barrier fallbacks" in text
            assert "sym-diff-dedup" in text

    def test_compile_codegen_render_lists_segments(self):
        plan = plan_for(_sym_diff_chain(2), {"X": self.X, "Y": self.Y},
                        engine="codegen")
        rendered = plan.render()
        assert "fused segment(s)" in rendered
        assert "-- lowered plan --" in rendered


# ----------------------------------------------------------------------
# Mutation teeth: broken kernels must be caught within 10 cases
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _mutated(patches, module=columnar):
    """``module`` (``repro.engine.columnar`` unless given) with each
    named attribute replaced by ``patch(original)`` for the
    duration."""
    originals = {name: getattr(module, name) for name in patches}
    for name, patch in patches.items():
        setattr(module, name, patch(originals[name]))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def _detect(patches, cases=10, case_for=None, module=columnar):
    """Run oracle vs engine-opt2 over a fixed generated stream with
    ``module``'s kernels mutated (``patches`` maps kernel name to a
    ``patch(original)`` wrapper); return the 1-based index of the
    first mismatch, or None if the mutants survive all ``cases``.
    ``case_for(index)`` overrides the default mixed-fragment stream
    (returning None skips an index)."""
    with _mutated(patches, module):
        harness = Harness(backends=("oracle", "engine-opt2"),
                          metamorphic=False)
        for index in range(cases):
            if case_for is not None:
                case = case_for(index)
                if case is None:
                    continue
            else:
                case = generate_case(0, index, fragment="mixed")
            report = harness.run_case(case)
            if report.mismatches:
                return index + 1
        return None


def _dedup_case(index):
    """``eps(A (+) (A - B))`` over two same-typed generated relations:
    every value surviving the monus repeats one of A's, so the value
    column reaching the dedup kernel carries structural repeats (a
    plain ``R (+) R`` would be rewritten into a multiplicity scale,
    whose dedup path never sees them) and an occurrence-counting
    mutant is visible immediately."""
    base = generate_case(0, index, fragment="balg1")
    by_type = {}
    for name in sorted(base.database):
        pair = by_type.setdefault(repr(base.schema[name]), [])
        pair.append(name)
        if len(pair) == 2:
            a, b = pair
            expr = Dedup(AdditiveUnion(
                Var(a), Subtraction(Var(a), Var(b))))
            return Case(schema=base.schema, database=base.database,
                        expr=expr, fragment="balg1")
    return None


def _sym_diff_case(index):
    """``eps((A - B) (+) (B - A))`` over two same-typed generated
    relations — exactly the shape the compiler rewrites into the
    ``c_sym_diff_dedup`` super-kernel."""
    base = generate_case(0, index, fragment="balg1")
    by_type = {}
    for name in sorted(base.database):
        pair = by_type.setdefault(repr(base.schema[name]), [])
        pair.append(name)
        if len(pair) == 2:
            a, b = pair
            expr = Dedup(AdditiveUnion(
                Subtraction(Var(a), Var(b)),
                Subtraction(Var(b), Var(a))))
            return Case(schema=base.schema, database=base.database,
                        expr=expr, fragment="balg1")
    return None


def _join_case(index):
    """A join-shaped case over a generated database: the equality
    crosses the product boundary, so lowering may fuse it to a hash
    join (or keep the nested-loop product under the threshold) — the
    multiplicity-product mutation is visible either way."""
    base = generate_case(0, index, fragment="balg1")
    flat = [name for name in sorted(base.database)
            if isinstance(getattr(base.schema[name], "element", None),
                          TupleType)]
    if len(flat) < 2:
        return None
    r1, r2 = flat[:2]
    a1 = base.schema[r1].element.arity
    expr = Select(Lam("t", Attribute(Var("t"), 1)),
                  Lam("t", Attribute(Var("t"), a1 + 1)),
                  Cartesian(Var(r1), Var(r2)))
    return Case(schema=base.schema, database=base.database,
                expr=expr, fragment="balg1")


def _join_project_case(shape):
    """A stream of ``tests/rearrangement_sweep.py`` cases of one shape
    (``"join/repeat"``, ``"product/one"``, ...): a rearrangement
    straight on a join or product over a generated database."""
    def case_for(index):
        for name, _, case in rearrangement_sweep.shapes(
                random.Random(index)):
            if name.startswith(shape):
                return case
        raise AssertionError(f"no shape {shape!r}")
    return case_for


def _caught_twice(patches, shape):
    """A fused-path mutant is caught by the kernel pins and, within 10
    generated cases, by the differential."""
    _fused_projection_pins()
    with _mutated(patches), pytest.raises(AssertionError):
        _fused_projection_pins()
    return _detect(patches, case_for=_join_project_case(shape))


def _dedup_caught_twice(patches, shape):
    """A fused join-dedup mutant is caught by the kernel pins and,
    within 10 generated cases, by the differential."""
    _fused_dedup_pins()
    with _mutated(patches), pytest.raises(AssertionError):
        _fused_dedup_pins()
    return _detect(patches, case_for=_join_project_case(shape))


class TestMutationDetection:
    def test_monus_without_count_clamp_is_caught(self):
        def patch(orig):
            def patched(left, right):
                get = right.get
                # keeps zero/negative rows at count 1
                return {value: max(1, count - get(value, 0))
                        for value, count in left.items()}
            return patched

        assert _detect({"c_monus": patch}) is not None

    def test_join_dropping_multiplicity_product_is_caught(self):
        # the same semantic mutation on both members of the join
        # family (the build side's counts flattened to 1), driven by
        # join-shaped cases over generated databases
        def patch(orig):
            def patched(probe_values, probe_counts, build, *rest,
                        **kw):
                flat_build = dict.fromkeys(build, 1)
                return orig(probe_values, probe_counts, flat_build,
                            *rest, **kw)
            return patched

        assert _detect({"c_hash_join": patch, "c_product": patch},
                       case_for=_join_case) is not None

    def test_dedup_keeping_counts_is_caught(self):
        def patch(orig):
            def patched(values):
                out = {}
                get = out.get
                # occurrence-counting instead of count collapse
                for value in values:
                    out[value] = get(value, 0) + 1
                return out
            return patched

        assert _detect({"c_dedup": patch},
                       case_for=_dedup_case) is not None

    def test_sym_diff_super_kernel_mutant_is_caught(self):
        def patch(orig):
            def patched(left, right):
                out = orig(left, right)
                # forgets the right-only values
                return {value: 1 for value in out if value in left}
            return patched

        assert _detect({"c_sym_diff_dedup": patch},
                       case_for=_sym_diff_case) is not None

    def test_projected_join_overwriting_colliding_images_is_caught(self):
        def patch(orig):
            def patched(sums, *rest):
                fresh = {}
                orig(fresh, *rest)
                sums.update(fresh)  # a later probe row's image wins
            return patched

        assert _caught_twice({"_sum_picked": patch},
                             "join/repeat") is not None

    def test_projected_join_in_build_probe_order_is_caught(self):
        def patch(orig):
            def patched(sums, picks, getter, items, items_first, *rest):
                # probe + build, whichever side is the logical left
                return orig(sums, picks, getter, items, True, *rest)
            return patched

        assert _caught_twice({"_sum_picked": patch},
                             "join/cross-side") is not None

    def test_projected_join_dropping_the_count_product_is_caught(self):
        def patch(orig):
            def patched(sums, picks, getter, items, items_first, count,
                        matches, *rest):
                return orig(sums, picks, getter, items, items_first, 1,
                            [(other, 1) for other, _ in matches], *rest)
            return patched

        for shape in ("join/cross-side", "product/cross-side"):
            assert _caught_twice({"_sum_picked": patch},
                                 shape) is not None

    def test_one_pick_projection_of_the_wrong_arity_is_caught(self):
        def patch(orig):
            # a bare itemgetter hands back the item, not a 1-tuple
            return lambda picks: itemgetter(
                *(pick - 1 for pick in picks))

        for shape in ("join/one", "product/one"):
            assert _caught_twice({"pick_getter": patch},
                                 shape) is not None


    def test_join_dedup_keeping_one_match_per_probe_row_is_caught(self):
        def patch(orig):
            def patched(seen, value, value_first, matches, *rest):
                return orig(seen, value, value_first, matches[:1], *rest)
            return patched

        for shape in ("eps/join", "dedup-join/cross-side"):
            assert _dedup_caught_twice({"_dedup_pairs": patch},
                                       shape) is not None

    def test_join_dedup_in_build_probe_order_is_caught(self):
        def patch(orig):
            def patched(seen, value, value_first, *rest):
                # probe + build, whichever side is the logical left
                return orig(seen, value, True, *rest)
            return patched

        for shape in ("eps/join", "dedup-join/cross-side"):
            assert _dedup_caught_twice({"_dedup_pairs": patch},
                                       shape) is not None

    def test_join_dedup_keeping_the_count_is_caught(self):
        def patch(orig):
            def patched(seen, value, value_first, matches, one, *rest):
                # each pair keeps the count the kernel has in reach
                for other, count in matches:
                    orig(seen, value, value_first, [(other, count)],
                         count, *rest)
            return patched

        for shape in ("eps/join", "eps/product", "dedup-join/repeat"):
            assert _dedup_caught_twice({"_dedup_pairs": patch},
                                       shape) is not None

    def test_nest_dropping_the_multiplicity_is_caught(self):
        def patch(orig):
            def patched(counts, *rest):
                return orig(dict.fromkeys(counts, 1), *rest)
            return patched

        assert _nested_caught_twice(
            {"k_nest": patch}, kernels, "nest", _nest_pins) is not None

    def test_nest_stamping_the_rows_shape_on_the_inner_bag_is_caught(
            self):
        def patch(orig):
            def patched(*args):
                for row, count in orig(*args):
                    # the row's shape where the members' belongs
                    row._items[-1]._shape = row._shape
                    yield row, count
            return patched

        # value equality cannot see a shape: the unnested rows meet
        # checked ones in a union, and the seal refuses the mix
        assert _nested_caught_twice(
            {"k_nest": patch}, kernels, "unnest-union",
            _nest_pins) is not None

    def test_hoisting_from_inside_an_inner_lambda_is_caught(self):
        def patch(orig):
            def patched(expr, fn, dataflow_only=False):
                # every child, the inner binder's body too
                return orig(expr, fn)
            return patched

        assert _nested_caught_twice(
            {"map_children": patch}, lower, "inner-lambda",
            _hoist_pins) is not None


def _nested_case(shape):
    """``shape`` over the first relation of arity >= 2 of a generated
    database (duplicate-rich, like every generated one)."""
    def case_for(index):
        base = generate_case(0, index, fragment="balg1")
        for name in sorted(base.database):
            element = getattr(base.schema[name], "element", None)
            if (isinstance(element, TupleType) and element.arity >= 2
                    and not base.database[name].is_empty()):
                break
        else:
            return None
        rel, arity = Var(name), element.arity
        t, u = Var("t"), Var("u")
        expr = {
            "nest": Nest(rel, arity),
            # a checked row no unnested one equals (equal rows would
            # share the first one's key object, and shape)
            "unnest-union": AdditiveUnion(
                Unnest(Nest(rel, arity), arity),
                Const(Bag([Tup(*["fresh"] * arity)]))),
            # the inner body mentions the row and its own parameter
            "inner-lambda": Map(Lam("t", Map(
                Lam("u", Tupling(Attribute(u, 1), Attribute(t, 1))),
                rel)), rel),
        }[shape]
        return Case(schema=base.schema, database=base.database,
                    expr=expr, fragment="balg2")
    return case_for


def _nest_pins():
    relation = Bag([Tup(g, m % 5) for g in range(4) for m in range(15)])
    nested = kernels.collect(kernels.k_nest(relation._counts, (2,)))
    assert Bag.from_counts(nested) == nest_bag(relation, (2,))
    for row in nested:
        assert _shape_of(row[1]) == _shape_of(Bag(row[1].elements()))


def _hoist_pins():
    t, u = Var("t"), Var("u")
    inner = Lam("u", Tupling(Attribute(u, 1), Attribute(t, 1)))
    lam = Lam("t", Map(inner, AdditiveUnion(var("V"), var("V"))))
    (rewritten,), invariants = lower.hoist_invariants(lam)
    assert [expr for _, expr in invariants] == [
        AdditiveUnion(var("V"), var("V"))]
    assert rewritten.body.lam is inner


def _nested_caught_twice(patches, module, shape, pins):
    """The mutant is caught by the unit pins and, within 10 generated
    cases, by the differential."""
    pins()
    with _mutated(patches, module), pytest.raises(AssertionError):
        pins()
    return _detect(patches, case_for=_nested_case(shape), module=module)


# ----------------------------------------------------------------------
# One Tup per distinct output row
# ----------------------------------------------------------------------

def test_projected_join_builds_one_tup_per_distinct_row(monkeypatch):
    """``pi_{1,4}(sigma_{2=3}(L x R))``: 144 joined pairs, 9 distinct
    images — ``Tup.trusted`` (which ``concat`` would call once per
    pair) runs once per distinct output row of each kernel call."""
    database = {
        "L": Bag([Tup(a, k) for a in range(3) for k in range(16)]),
        "R": Bag([Tup(k, b) for k in range(16) for b in range(3)])}
    expr = project_expr(
        Select(Lam("t", Attribute(Var("t"), 2)),
               Lam("t", Attribute(Var("t"), 3)),
               Cartesian(var("L"), var("R"))), 1, 4)
    expected = Bag.from_counts(
        {Tup(a, b): 16 for a in range(3) for b in range(3)})
    calls = []
    trusted = Tup.trusted

    def counting(items, shape=None):
        calls.append(items)
        return trusted(items, shape)

    monkeypatch.setattr(Tup, "trusted", staticmethod(counting))
    stats = EngineStats()
    assert evaluate(expr, database, engine="physical", cache=None,
                    stats=stats) == expected
    assert stats.kernel_counts["hash-join"] == 1
    assert stats.rows_emitted == 48 + 48 + 144 + 144
    assert len(calls) == 9
    # inside thread shards: once per distinct row of each shard
    del calls[:]
    stats = EngineStats()
    assert evaluate(expr, database, engine="parallel", workers=2,
                    parallel_threshold=0.0, min_morsel_rows=1,
                    cache=None, stats=stats) == expected
    assert stats.morsels_executed >= 2
    assert 9 <= len(calls) <= 9 * stats.morsels_executed < 144


# ----------------------------------------------------------------------
# No annotation arithmetic under eps
# ----------------------------------------------------------------------

@pytest.mark.parametrize("semiring", ["bool", "tropical", "provenance"])
def test_a_join_under_eps_multiplies_no_annotation(monkeypatch,
                                                   semiring):
    """``eps(sigma_{2=3}(L x R))`` asks only for the support, and a
    product of non-zero annotations is non-zero in each shipped
    semiring: the fused join-dedup step calls ``mul`` not once, while
    the same join without ``eps`` calls it once per joined pair."""
    database = {"L": random_relation(12, arity=2, seed=5),
                "R": random_relation(12, arity=2, seed=6)}
    join = Select(Lam("t", Attribute(Var("t"), 2)),
                  Lam("t", Attribute(Var("t"), 3)),
                  Cartesian(var("L"), var("R")))
    sr = type(resolve_semiring(semiring))
    expected = {expr: evaluate(expr, database, engine="tree",
                               semiring=semiring)
                for expr in (Dedup(join), join)}
    calls = []
    mul = sr.mul

    def counting(self, left, right):
        calls.append(1)
        return mul(self, left, right)

    monkeypatch.setattr(sr, "mul", counting)
    stats = EngineStats()
    assert evaluate(Dedup(join), database, engine="codegen",
                    cache=None, semiring=semiring,
                    stats=stats) == expected[Dedup(join)]
    assert stats.kernel_counts["hash-join"] == 1 and calls == []
    stats = EngineStats()
    assert evaluate(join, database, engine="codegen", cache=None,
                    semiring=semiring, stats=stats) == expected[join]
    scanned = sum(bag.distinct_count for bag in database.values())
    pairs = stats.rows_emitted - scanned
    assert pairs > scanned and len(calls) == pairs
