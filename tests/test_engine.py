"""Tests for the physical execution engine (:mod:`repro.engine`).

Three layers of evidence:

* **differential fuzzing** — the engine is bag-equal to the tree
  walker (the semantics oracle) on random well-typed BALG^1
  expressions, and governed engine runs fail only with structured
  :class:`~repro.core.errors.ReproError` subclasses;
* **unit tests** — kernels, lowering decisions (hash-join fusion,
  intersection reordering, multiplicity scaling, shared-subexpression
  materialisation), and the LRU plan cache;
* **estimator regression** — the planner's cardinality estimates
  dominate the engine's *measured* per-node row counts on the
  bench-E01 workload family (uniform bags, delta-of-powerset).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.bag import Bag, Tup
from repro.core.errors import (
    BudgetExceeded, ReproError, UnboundVariableError,
)
from repro.core.eval import evaluate as oracle_evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Cartesian, Const, Dedup,
    Intersection, Lam, Map, Powerset, Select, Subtraction, Var, var,
)
from repro.core.nest import Nest, Unnest
from repro.core.typecheck import static_types
from repro.core.types import flat_bag_type
from repro.engine import (
    EngineStats, PlanCache, canonical_key, default_cache, evaluate,
    explain_physical, lower, plan_for,
)
from repro.engine import columnar, kernels
from repro.engine.physical import (
    HashJoin, MultiplicityScale, NestedLoopProduct, OracleEval,
    PhysicalNode, ScanBag, SharedScan,
)
from repro.guard import Limits
from repro.planner import estimate, stats_of
from repro.workloads import random_relation, uniform_family
from tests.strategies import balg1_exprs, input_bags

FUZZ_SETTINGS = dict(max_examples=120, deadline=None)


def _eval_both(expr, bag):
    """(oracle result, engine result) with caching disabled."""
    reference = oracle_evaluate(expr, B=bag)
    result = evaluate(expr, B=bag, cache=None)
    return reference, result


class TestDifferentialFuzz:
    """The engine agrees with the oracle on random programs."""

    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_engine_matches_oracle(self, expr, bag):
        reference, result = _eval_both(expr, bag)
        assert result == reference

    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_engine_matches_oracle_through_shared_cache(self, expr,
                                                        bag):
        """The process-wide plan cache must never change results."""
        reference = oracle_evaluate(expr, B=bag)
        assert evaluate(expr, B=bag) == reference
        assert evaluate(expr, B=bag) == reference  # cached plan

    @given(balg1_exprs(max_depth=3), input_bags(max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_governed_runs_raise_only_repro_errors(self, expr, bag):
        limits = Limits(max_steps=200, max_size=400,
                        powerset_budget=64)
        try:
            governed = evaluate(expr, B=bag, cache=None, limits=limits)
        except ReproError:
            return
        assert governed == oracle_evaluate(expr, B=bag)


class TestEngineSemanticsUnits:
    """Hand-picked expressions outside the fuzz grammar."""

    def test_powerset_and_destroy(self):
        bag = uniform_family(2, 2)
        wrapped = Bag([Tup(element) for element in bag.elements()])
        for expr in (Powerset(var("B")), BagDestroy(Powerset(var("B")))):
            reference = oracle_evaluate(expr, B=wrapped)
            assert evaluate(expr, B=wrapped, cache=None) == reference

    def test_nest_unnest_roundtrip(self):
        relation = Bag.from_counts(
            {Tup("a", 1): 2, Tup("a", 2): 1, Tup("b", 1): 3})
        expr = Unnest(Nest(var("R"), 2), 2)
        reference = oracle_evaluate(expr, R=relation)
        assert evaluate(expr, R=relation, cache=None) == reference

    def test_extension_nodes_fall_back_to_oracle(self):
        from repro.machines import Ifp
        graph = Bag([Tup("a", "b"), Tup("b", "c")])
        expr = Ifp("X", Var("X") | Var("G"), var("G"))
        stats = EngineStats()
        reference = oracle_evaluate(expr, G=graph)
        assert evaluate(expr, G=graph, cache=None,
                        stats=stats) == reference
        assert stats.oracle_fallbacks >= 1

    def test_non_bag_root_result(self):
        expr = Const(42)
        assert evaluate(expr, cache=None) == oracle_evaluate(expr)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(var("ghost"), cache=None)

    def test_unknown_engine_name(self):
        with pytest.raises(ValueError):
            evaluate(var("B"), B=Bag.of("a"), engine="quantum")

    def test_tree_engine_dispatch(self):
        bag = Bag.of("a", "a", "b")
        assert evaluate(Dedup(var("B")), B=bag,
                        engine="tree") == Bag.of("a", "b")

    def test_powerset_budget_enforced(self):
        bag = Bag([Tup(str(i)) for i in range(30)])
        wrapped = Bag([Tup(element) for element in bag.elements()])
        with pytest.raises(BudgetExceeded):
            evaluate(Powerset(var("B")), B=wrapped, cache=None,
                     powerset_budget=100)

    def test_size_budget_attaches_stats(self):
        bag = Bag([Tup(str(i), str(i)) for i in range(50)])
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate(var("B") * var("B"), B=bag, cache=None,
                     limits=Limits(max_size=100))
        assert excinfo.value.stats is not None


class TestKernels:
    """What the row kernels' unit checks asserted that
    ``tests/test_columnar.py`` does not already assert of the bulk
    twins: values only one side has, and first-occurrence order."""

    def test_monus(self):
        left = {"a": 5, "b": 2}
        right = {"a": 3, "b": 2, "c": 9}
        assert columnar.c_monus(left, right) == {"a": 2}

    def test_min_intersect(self):
        small = {"a": 2, "z": 1}
        large = {"a": 5, "b": 2}
        assert columnar.c_min_intersect(small, large) == {"a": 2}

    def test_max_union(self):
        left = {"a": 2}
        right = {"a": 5, "b": 1}
        assert columnar.c_max_union(left, right) == {"a": 5, "b": 1}

    def test_dedup_streams_first_occurrence(self):
        assert list(columnar.c_dedup(["a", "b", "a"]).items()) == \
            [("a", 1), ("b", 1)]


_FLAT_LR = {"L": flat_bag_type(2), "R": flat_bag_type(2)}


class TestLoweringDecisions:
    def test_join_fusion_on_large_product(self):
        # domain of 12 atoms -> ~70 tuples/side, well over the
        # hash-join threshold but cheap for the oracle to cross-check
        left = random_relation(12, arity=2, seed=1)
        right = random_relation(12, arity=2, seed=2)
        expr = Select(Lam("t", Attribute(Var("t"), 2)),
                      Lam("t", Attribute(Var("t"), 3)),
                      Cartesian(var("L"), var("R")))
        plan = lower(expr, {"L": stats_of(left), "R": stats_of(right)},
                     types=static_types(expr, _FLAT_LR))
        assert isinstance(plan.root, HashJoin)
        bindings = {"L": left, "R": right}
        assert evaluate(expr, bindings, cache=None) == \
            oracle_evaluate(expr, bindings)

    def test_tiny_product_stays_nested_loop(self):
        left = Bag([Tup("a", "b")])
        right = Bag([Tup("b", "c")])
        expr = Select(Lam("t", Attribute(Var("t"), 2)),
                      Lam("t", Attribute(Var("t"), 3)),
                      Cartesian(var("L"), var("R")))
        plan = lower(expr, {"L": stats_of(left), "R": stats_of(right)},
                     types=static_types(expr, _FLAT_LR))
        assert not isinstance(plan.root, HashJoin)

    def test_intersection_probes_smaller_side(self):
        small = Bag([Tup("a")])
        large = Bag([Tup(str(i)) for i in range(50)])
        plan = lower(Intersection(var("Big"), var("Small")),
                     {"Big": stats_of(large), "Small": stats_of(small)})
        # the estimated-smaller operand becomes the left/probe child
        assert isinstance(plan.root.left, ScanBag)
        assert plan.root.left.name == "Small"

    def test_self_union_becomes_multiplicity_scale(self):
        plan = lower(AdditiveUnion(var("B"), var("B")), None)
        assert isinstance(plan.root, MultiplicityScale)
        assert plan.root.factor == 2

    def test_repeated_subexpression_shared(self):
        heavy = Dedup(var("B") * var("B"))
        expr = Subtraction(heavy, Dedup(heavy))
        plan = lower(expr, None)
        shared = [node for node in _walk_plan(plan.root)
                  if isinstance(node, SharedScan)]
        assert len(shared) >= 2
        bag = random_relation(6, arity=1, seed=3)
        stats = EngineStats()
        assert evaluate(expr, B=bag, cache=None, stats=stats) == \
            oracle_evaluate(expr, B=bag)
        assert stats.shared_materialized >= 1
        assert stats.shared_reused >= 1

    def test_lambda_bodies_not_shared(self):
        """A repeated constant inside two lambdas must not become a
        SharedScan (lambda bodies are per-element programs)."""
        body = Attribute(Var("t"), 1)
        expr = Map(Lam("t", Tupling_safe(body)),
                   Map(Lam("t", Tupling_safe(body)), var("B")))
        plan = lower(expr, None)
        assert not [node for node in _walk_plan(plan.root)
                    if isinstance(node, SharedScan)]


def Tupling_safe(part):
    from repro.core.expr import Tupling
    return Tupling(part)


def _walk_plan(node):
    yield node
    for name in ("child", "left", "right", "inner"):
        sub = getattr(node, name, None)
        if isinstance(sub, PhysicalNode):
            yield from _walk_plan(sub)


class TestPlanCache:
    def test_hit_skips_lowering(self):
        cache = PlanCache(capacity=4)
        bag = Bag.of("a", "b")
        stats = EngineStats()
        expr = Dedup(var("B"))
        evaluate(expr, B=bag, cache=cache, stats=stats)
        evaluate(expr, B=bag, cache=cache, stats=stats)
        assert stats.lowerings == 1
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1

    def test_commutative_operands_share_plans(self):
        key_ab = PlanCache.key_for(var("A") + var("B"))
        key_ba = PlanCache.key_for(var("B") + var("A"))
        assert key_ab == key_ba
        # subtraction is NOT commutative
        assert PlanCache.key_for(var("A") - var("B")) != \
            PlanCache.key_for(var("B") - var("A"))

    def test_canonical_key_recurses(self):
        nested_ab = Dedup(Intersection(var("A"), var("B")))
        nested_ba = Dedup(Intersection(var("B"), var("A")))
        assert canonical_key(nested_ab) == canonical_key(nested_ba)

    def test_arity_signature_misses_on_schema_change(self):
        expr = var("R")
        assert PlanCache.key_for(expr, {"R": flat_bag_type(2)}) != \
            PlanCache.key_for(expr, {"R": flat_bag_type(3)})

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        plans = {}
        for name in ("A", "B", "C"):
            key = PlanCache.key_for(var(name))
            plans[name] = lower(var(name), None)
            cache.put(key, plans[name])
        assert PlanCache.key_for(var("A")) not in cache  # evicted
        assert PlanCache.key_for(var("C")) in cache
        assert cache.stats.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_default_cache_is_process_wide(self):
        assert default_cache() is default_cache()


class TestExplainPhysical:
    def test_reports_kernels_and_actuals(self):
        bag = Bag.of("a", "a", "b")
        text = explain_physical(Dedup(var("B")) - var("B"), B=bag)
        assert "kernel=monus" in text
        assert "kernel=dedup" in text
        assert "actual rows" in text

    def test_without_execution_no_actuals(self):
        text = explain_physical(Dedup(var("B")), execute=False,
                                B=Bag.of("a"))
        assert "actual rows" not in text

    def test_actuals_belong_to_the_run_not_the_cached_plan(self):
        cache = PlanCache(capacity=4)
        expr = Dedup(var("B"))
        first = explain_physical(expr, cache=cache,
                                 B=Bag.of("a", "a", "b"))
        assert "actual rows 2" in first
        # the same cached plan, another database, no execution: the
        # first run's counts are not on the plan to leak into this
        again = explain_physical(expr, cache=cache, execute=False,
                                 B=Bag.of("x"))
        assert cache.stats.hits == 1
        assert "actual rows" not in again

    def test_rejects_engines_that_have_no_physical_plan(self):
        bag = Bag.of("a")
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            explain_physical(var("B"), engine="bogus", B=bag)
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            evaluate(var("B"), engine="bogus", B=bag)
        with pytest.raises(ValueError, match="no physical plan"):
            explain_physical(var("B"), engine="tree", B=bag)


class TestEstimatorVsEngineMeasurements:
    """Satellite regression: cardinality estimates vs the engine's
    measured per-node row counts on bench-E01 workloads."""

    def _measured_root_rows(self, expr, bindings):
        stats = EngineStats()
        plan = plan_for(expr, bindings, cache=None, stats=stats)
        result = evaluate(expr, bindings, cache=None)
        return result.cardinality

    def test_delta_of_powerset_estimate_exact_on_uniform_family(self):
        for k, m in [(2, 2), (3, 2), (2, 3)]:
            bag = uniform_family(k, m)
            wrapped = Bag([Tup(element) for element in bag.elements()])
            expr = BagDestroy(Powerset(var("B")))
            estimated = estimate(expr, {"B": stats_of(wrapped)})
            measured = self._measured_root_rows(expr, {"B": wrapped})
            assert estimated.cardinality == measured

    def test_scale_chain_estimate_exact(self):
        bag = uniform_family(4, 3)
        expr = AdditiveUnion(var("B"), var("B"))
        for _ in range(3):
            expr = AdditiveUnion(expr, expr)
        estimated = estimate(expr, {"B": stats_of(bag)})
        measured = self._measured_root_rows(expr, {"B": bag})
        assert estimated.cardinality == measured
        assert estimated.distinct == bag.distinct_count

    def test_estimates_dominate_measured_rows(self):
        """Worst-case selectivity estimates bound what the engine
        actually emits, node by node."""
        left = random_relation(12, arity=2, seed=7)
        right = random_relation(9, arity=2, seed=8)
        bindings = {"L": left, "R": right}
        statistics = {name: stats_of(bag)
                      for name, bag in bindings.items()}
        battery = [
            var("L") + var("R"),
            Dedup(var("L") + var("L")),
            var("L") - var("R"),
            var("L") & var("R"),
            var("L") * var("R"),
            Dedup(var("L") * var("R")),
        ]
        for expr in battery:
            estimated = estimate(expr, statistics, selectivity=1.0)
            plan = lower(expr, statistics)
            ctx_result = evaluate(expr, bindings, cache=None)
            assert ctx_result.cardinality <= \
                estimated.cardinality + 1e-9, expr
            assert ctx_result.distinct_count <= \
                estimated.distinct + 1e-9, expr

    def test_plan_nodes_record_actuals(self):
        bag = Bag.of("a", "a", "b")
        stats = EngineStats()
        plan = plan_for(Dedup(var("B")), {"B": bag}, cache=None,
                        stats=stats)
        from repro.core.eval import Evaluator
        from repro.engine.physical import ExecContext
        ctx = ExecContext({"B": bag}, Evaluator(track_stats=False),
                          stats=stats)
        plan.execute(ctx)
        # per-run state, not plan state: the cached plan is untouched
        assert ctx.actual_rows[id(plan.root)] == 2
        assert not hasattr(plan.root, "actual_rows")
        assert "actual rows 2" in plan.render(ctx.actual_rows)
        assert "actual rows" not in plan.render()
        assert stats.kernel_counts.get("dedup") == 1
        assert stats.rows_emitted > 0


class TestPlanCacheKeys:
    """Canonical-key collision safety and LRU recency: structurally
    close expressions must key apart, and re-access must refresh
    eviction order (the plan-cache hotspots the differential harness
    leans on through its ``engine-warm`` backend)."""

    def test_nest_indices_key_apart(self):
        assert PlanCache.key_for(Nest(var("R"), 1)) != \
            PlanCache.key_for(Nest(var("R"), 2))
        assert PlanCache.key_for(Nest(var("R"), 1, 2)) != \
            PlanCache.key_for(Nest(var("R"), 2, 1))

    def test_unnest_index_keys_apart(self):
        assert PlanCache.key_for(Unnest(var("R"), 1)) != \
            PlanCache.key_for(Unnest(var("R"), 2))

    def test_select_op_keys_apart(self):
        def select(op):
            return Select(Lam("t", Attribute(Var("t"), 1)),
                          Lam("t", Attribute(Var("t"), 2)),
                          var("R"), op=op)
        keys = {PlanCache.key_for(select(op))
                for op in ("eq", "ne", "le", "lt")}
        assert len(keys) == 4

    def test_lambda_param_and_body_key(self):
        same = Map(Lam("t", Attribute(Var("t"), 1)), var("R"))
        other = Map(Lam("t", Attribute(Var("t"), 2)), var("R"))
        assert PlanCache.key_for(same) != PlanCache.key_for(other)

    def test_const_value_keys_apart(self):
        assert PlanCache.key_for(Const(Bag.of("a"))) != \
            PlanCache.key_for(Const(Bag.of("b")))

    def test_commutative_key_shares_but_executes_right(self):
        """A n B and B n A share one plan; running both orders against
        the same cache must still produce the right (identical) bag."""
        cache = PlanCache(capacity=8)
        A = Bag.of("a", "a", "b")
        B = Bag.of("a", "b", "b")
        first = evaluate(Intersection(var("A"), var("B")),
                         A=A, B=B, cache=cache)
        second = evaluate(Intersection(var("B"), var("A")),
                          A=A, B=B, cache=cache)
        assert first == second == Bag.of("a", "b")
        assert cache.stats.hits == 1

    def test_reaccess_refreshes_lru_order(self):
        cache = PlanCache(capacity=2)
        key_a = PlanCache.key_for(var("A"))
        key_b = PlanCache.key_for(var("B"))
        key_c = PlanCache.key_for(var("C"))
        cache.put(key_a, lower(var("A"), None))
        cache.put(key_b, lower(var("B"), None))
        assert cache.get(key_a) is not None  # A becomes most recent
        cache.put(key_c, lower(var("C"), None))
        assert key_a in cache
        assert key_b not in cache  # B was least recent, so B evicted
        assert cache.stats.evictions == 1

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = PlanCache(capacity=2)
        key_a = PlanCache.key_for(var("A"))
        key_b = PlanCache.key_for(var("B"))
        cache.put(key_a, lower(var("A"), None))
        cache.put(key_b, lower(var("B"), None))
        cache.put(key_a, lower(var("A"), None))  # refresh, not grow
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put(PlanCache.key_for(var("C")), lower(var("C"), None))
        assert key_b not in cache  # B was the stale entry

    def test_warm_cache_shared_across_databases(self):
        """Plans hold no data: one cached plan must serve two
        different databases of the same schema without leaking."""
        cache = PlanCache(capacity=4)
        expr = Subtraction(AdditiveUnion(var("R"), var("R")), var("R"))
        one = Bag.of(Tup("a", "b"), Tup("a", "b"))
        two = Bag.of(Tup("x", "y"))
        assert evaluate(expr, R=one, cache=cache) == one
        assert evaluate(expr, R=two, cache=cache) == two
        assert cache.stats.hits >= 1


class TestAdaptiveTickInterval:
    """The governor tick interval must shrink when single inter-tick
    gaps consume a large fraction of the deadline (satellite of the
    morsel-driven executor: bounds deadline overshoot to the work done
    between two consecutive ticks)."""

    @staticmethod
    def _context(timeout):
        from repro.core.eval import Evaluator
        from repro.engine.physical import ExecContext
        from repro.guard import Limits, ResourceGovernor

        clock = {"now": 0.0}
        governor = ResourceGovernor(Limits(timeout=timeout),
                                    clock=lambda: clock["now"])
        governor.start()
        evaluator = Evaluator(governor=governor, track_stats=False)
        return ExecContext({}, evaluator), clock

    def test_interval_halves_on_slow_gaps(self):
        ctx, clock = self._context(timeout=100.0)
        assert ctx.tick_interval == 128
        ctx.tick()  # first tick only records a timestamp
        assert ctx.tick_interval == 128
        for expected in (64, 32, 16, 8, 4, 2, 1):
            clock["now"] += 11.0  # gap > 10% of the 100s deadline
            ctx.tick()
            assert ctx.tick_interval == expected
        clock["now"] += 11.0
        ctx.tick()
        assert ctx.tick_interval == 1  # floor: never reaches zero

    def test_fast_gaps_keep_interval(self):
        ctx, clock = self._context(timeout=100.0)
        for _ in range(10):
            clock["now"] += 9.0  # gap < 10% of the deadline
            ctx.tick()
        assert ctx.tick_interval == 128

    def test_ungoverned_context_never_adapts(self):
        from repro.core.eval import Evaluator
        from repro.engine.physical import ExecContext

        ctx = ExecContext({}, Evaluator(track_stats=False))
        for _ in range(5):
            ctx.tick()
        assert ctx.tick_interval == 128

    def test_timeout_free_governor_never_adapts(self):
        from repro.core.eval import Evaluator
        from repro.engine.physical import ExecContext
        from repro.guard import Limits, ResourceGovernor

        governor = ResourceGovernor(Limits(max_steps=10**6))
        governor.start()
        ctx = ExecContext({}, Evaluator(governor=governor,
                                        track_stats=False))
        for _ in range(5):
            ctx.tick()
        assert ctx.tick_interval == 128

    def test_overshoot_bounded_after_adaptation(self):
        """Once adapted to interval 1, a deadline breach is noticed on
        the very next row rather than up to 127 rows later."""
        from repro.core.errors import DeadlineExceeded
        from repro.engine import kernels

        ctx, clock = self._context(timeout=100.0)
        ctx.tick()
        for _ in range(7):
            clock["now"] += 11.0
            ctx.tick()
        assert ctx.tick_interval == 1

        consumed = {"rows": 0}

        def rows():
            for i in range(10_000):
                consumed["rows"] += 1
                clock["now"] += 2.0  # deadline (t=100) passes mid-stream
                yield (Tup(i), 1)

        with pytest.raises(DeadlineExceeded):
            kernels.collect(rows(), tick=ctx.tick,
                            every=ctx.tick_interval,
                            get_every=lambda: ctx.tick_interval)
        # t was ~77 entering the stream; the deadline passes ~12 rows
        # in and must be seen within one row of interval-1 ticking.
        assert consumed["rows"] <= 14
