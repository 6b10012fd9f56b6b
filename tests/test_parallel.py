"""Unit tests for the morsel-driven parallel executor.

Covers the three tentpole layers — hash partitioning + segment
compilation (``partition.py``), the exchange scheduler
(``exchange.py``), and cross-worker governance (``governor.py``) —
plus the satellite requirements: parallel counters in
``EngineStats``/:func:`explain_physical`, associative stats merge, and
engine=parallel dispatch through ``core.eval``/``run_sql``/the CLI.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import fields

import pytest

from repro.core.bag import Bag, Tup
from repro.core.errors import (
    BudgetExceeded, Cancelled, DeadlineExceeded, GovernedError,
    IfpDivergenceError, RecursionDepthExceeded,
)
from repro.core.eval import EvalStats
from repro.core.eval import evaluate as core_evaluate
from repro.core.expr import (
    Attribute, Cartesian, Dedup, Lam, Map, Powerset, Select, Tupling,
    Var, var,
)
from repro.core.nest import Nest, Unnest
from repro.core.types import flat_bag_type
from repro.engine import EngineStats, PlanCache, evaluate, plan_for
from repro.engine import explain_physical
from repro.engine.codegen import FusedSegment
from repro.engine.lower import PhysicalPlan
from repro.engine.parallel import (
    PARTITION_COMPAT, Exchange, Gather, ParallelConfig, ParallelPolicy,
    Partition, SharedBudget, WorkerGovernor, compile_parallel_segment,
    compiled_segment_for, execute_program, merge_counts, split_counts,
)
from repro.guard import CancellationToken, Limits, ResourceGovernor

# ----------------------------------------------------------------------
# Fixtures: bags with duplicates, big enough to shard meaningfully
# ----------------------------------------------------------------------


def _bag_r() -> Bag:
    return Bag.from_counts(
        {Tup(i % 13, i % 7): (i % 3) + 1 for i in range(240)})


def _bag_s() -> Bag:
    return Bag.from_counts(
        {Tup(i % 7, i % 5): (i % 2) + 1 for i in range(150)})


def _type_of_factory(arities):
    """Static types of flat relations of the given arities."""
    def type_of(expr):
        if isinstance(expr, Var) and expr.name in arities:
            return flat_bag_type(arities[expr.name])
        return None
    return type_of


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


class TestSplitMerge:
    def test_split_merge_roundtrip(self):
        counts = dict(_bag_r().items())
        shards = split_counts(counts, 8)
        assert sum(len(s) for s in shards) == len(counts)
        assert merge_counts(shards) == counts

    def test_split_is_disjoint_and_deterministic(self):
        counts = dict(_bag_r().items())
        first = split_counts(counts, 5)
        second = split_counts(counts, 5)
        assert first == second
        seen = set()
        for shard in first:
            assert not (seen & set(shard))
            seen |= set(shard)

    def test_copartitioning_across_operands(self):
        """Every copy of a value lands in the same shard on both
        operands — the property that makes monus/intersect/dedup
        shard-local."""
        left = dict(_bag_r().items())
        right = {value: 7 for value in list(left)[::2]}
        left_shards = split_counts(left, 4)
        right_shards = split_counts(right, 4)
        for value in right:
            home = [i for i, s in enumerate(left_shards) if value in s]
            also = [i for i, s in enumerate(right_shards) if value in s]
            assert home == also

    def test_key_partitioning_groups_by_key(self):
        counts = dict(_bag_r().items())
        shards = split_counts(counts, 4, key=(1,))
        homes = {}
        for index, shard in enumerate(shards):
            for value in shard:
                key = value.attribute(1)
                assert homes.setdefault(key, index) == index

    def test_compat_table_covers_every_kernel_class(self):
        assert PARTITION_COMPAT["additive-union"] == "local"
        assert PARTITION_COMPAT["dedup"] == "local"
        assert PARTITION_COMPAT["hash-join"] == "key-local"
        assert PARTITION_COMPAT["nest-build"] == "key-local"
        assert PARTITION_COMPAT["map"] == "root-local"
        assert PARTITION_COMPAT["powerset"] == "barrier"
        assert PARTITION_COMPAT["flatten"] == "barrier"


def _kernels(segment):
    """The kernels of the fused segment a worker compiles the
    program into (scans of the input slots aside)."""
    plan = compiled_segment_for(segment.program)
    return [k for k in plan.kernels() if k != "scan"]


class TestSegmentCompiler:
    def test_union_chain_compiles_with_value_leaves(self):
        expr = Dedup((var("A") + var("B")) - var("C"))
        segment = compile_parallel_segment(expr, lambda e: None)
        assert segment is not None
        assert [leaf.key for leaf in segment.leaves] == [None] * 3
        assert segment.program.expr == Dedup(
            (var("$0") + var("$1")) - var("$2"))
        assert _kernels(segment) == ["additive-union", "monus", "dedup"]

    def test_join_compiles_with_key_leaves(self):
        join = Select(Lam("t", Attribute(Var("t"), 2)),
                      Lam("t", Attribute(Var("t"), 3)),
                      Cartesian(var("R"), var("S")), "eq")
        segment = compile_parallel_segment(
            join, _type_of_factory({"R": 2, "S": 2}))
        assert segment is not None
        assert [leaf.key for leaf in segment.leaves] == [(2,), (1,)]
        assert segment.program.types == (flat_bag_type(2),) * 2
        assert _kernels(segment)[-1] == "hash-join"

    def test_join_without_arity_falls_back_to_select_over_product(self):
        """With no arity information the compiler cannot split the
        Cartesian sides by join key, so it degrades to a shard-local
        select over the whole product as one opaque leaf."""
        join = Select(Lam("t", Attribute(Var("t"), 2)),
                      Lam("t", Attribute(Var("t"), 3)),
                      Cartesian(var("R"), var("S")), "eq")
        segment = compile_parallel_segment(join, lambda e: None)
        assert segment is not None
        assert len(segment.leaves) == 1
        assert segment.leaves[0].key is None
        assert _kernels(segment)[-1] == "select"

    def test_nest_partitions_on_group_key(self):
        segment = compile_parallel_segment(
            Nest(var("R"), 2), _type_of_factory({"R": 2}))
        assert segment is not None
        # rest of {2} in arity 2 is (1,): the group key
        assert segment.leaves[0].key == (1,)

    def test_map_only_at_root(self):
        proj = Lam("t", Tupling(Attribute(Var("t"), 2),
                                Attribute(Var("t"), 1)))
        at_root = compile_parallel_segment(
            Map(proj, Dedup(var("R") + var("R"))), lambda e: None)
        assert at_root is not None
        assert _kernels(at_root)[-1] == "map"
        # map *below* a dedup would break value-disjointness: the map
        # subtree must become an opaque leaf instead of a program step
        below = compile_parallel_segment(
            Dedup(Map(proj, var("R")) + var("S")), lambda e: None)
        assert below is not None
        assert "map" not in _kernels(below)

    def test_barrier_roots_refuse(self):
        assert compile_parallel_segment(Powerset(var("R")),
                                        lambda e: None) is None
        assert compile_parallel_segment(Unnest(var("R"), 1),
                                        lambda e: None) is None
        assert compile_parallel_segment(var("R"), lambda e: None) is None

    def test_program_executes_like_the_oracle(self):
        expr = Dedup((var("A") + var("B")) - var("C"))
        segment = compile_parallel_segment(expr, lambda e: None)
        a, b = _bag_r(), _bag_s()
        c = Bag.from_counts({Tup(i % 13, i % 7): 1 for i in range(60)})
        expected = core_evaluate(expr, {"A": a, "B": b, "C": c})
        inputs = [dict(bag.items()) for bag in (a, b, c)]
        got = execute_program(segment.program, inputs)
        assert Bag.from_counts(got) == expected

    def test_shard_segment_is_the_serial_fused_segment(self):
        """A shard has no compiler of its own: the program compiles
        through lower + codegen into the closure a serial
        ``engine="codegen"`` query would run, and ``partition.py``
        holds no second step compiler beside it."""
        segment = compile_parallel_segment(
            Dedup((var("A") + var("B")) - var("C")), lambda e: None)
        plan = compiled_segment_for(segment.program)
        assert isinstance(plan, PhysicalPlan)
        assert isinstance(plan.root_segment, FusedSegment)
        from repro.engine.parallel import partition
        for name in ("_compile_step", "_predicate_for", "_mapper_for",
                     "_select_spec", "_map_spec"):
            assert not hasattr(partition, name)


# ----------------------------------------------------------------------
# Parallel-vs-serial equality (the differential heart)
# ----------------------------------------------------------------------

_R, _S = _bag_r(), _bag_s()

_JOIN = Select(Lam("t", Attribute(Var("t"), 2)),
               Lam("t", Attribute(Var("t"), 3)),
               Cartesian(var("R"), var("S")), "eq")

_BATTERY = [
    ("union-chain", Dedup((var("R") + var("R")) - var("S"))),
    ("monus-self", var("R") - var("R")),
    ("join", _JOIN),
    ("dedup-join", Dedup(_JOIN)),
    ("nest", Nest(var("R"), 2)),
    ("map-root", Map(Lam("t", Tupling(Attribute(Var("t"), 2),
                                      Attribute(Var("t"), 1))),
                     Dedup(var("R") - var("S")))),
    ("self-join", Select(Lam("t", Attribute(Var("t"), 1)),
                         Lam("t", Attribute(Var("t"), 3)),
                         Cartesian(var("R"), var("R")), "eq")),
]


class TestShardedPrograms:
    """Every battery shape under every semiring, driven by hand: split
    the leaves on the recogniser's keys, ship the program through
    pickle, run it per shard, merge — equal to the tree walker, with
    the input shards left exactly as they were."""

    @pytest.mark.parametrize("semiring",
                             ["nat", "bool", "tropical", "provenance"])
    @pytest.mark.parametrize("label,expr",
                             _BATTERY, ids=[l for l, _ in _BATTERY])
    def test_shards_merge_to_the_oracle(self, label, expr, semiring):
        from repro.core.semiring import resolve_semiring
        sr = resolve_semiring(semiring)
        db = {"R": _R, "S": _S}
        segment = compile_parallel_segment(
            expr, _type_of_factory({"R": 2, "S": 2}))
        assert segment is not None
        program = pickle.loads(pickle.dumps(segment.program))
        assert program == segment.program
        sharded = [
            split_counts(dict(core_evaluate(leaf.expr, db,
                                            semiring=semiring).items()),
                         4, leaf.key)
            for leaf in segment.leaves]
        outputs = []
        for index in range(4):
            task = [shards[index] for shards in sharded]
            before = [dict(counts) for counts in task]
            # the tag half of the cache key is what keeps the N and
            # generic compilations of one program apart
            outputs.append(execute_program(program, task,
                                           tag=(semiring,), sr=sr))
            assert task == before
        assert (Bag.from_counts(merge_counts(outputs, sr))
                == core_evaluate(expr, db, semiring=semiring))


class TestParallelEquality:
    @pytest.mark.parametrize("label,expr",
                             _BATTERY, ids=[l for l, _ in _BATTERY])
    def test_thread_backend_matches_serial(self, label, expr):
        db = {"R": _R, "S": _S}
        serial = evaluate(expr, db, cache=None)
        for workers in (1, 2, 4):
            parallel = evaluate(expr, db, engine="parallel",
                                workers=workers, parallel_threshold=0.0,
                                cache=None)
            assert parallel == serial, f"{label} @ {workers} workers"

    def test_process_backend_matches_serial(self):
        db = {"R": _R, "S": _S}
        serial = evaluate(_JOIN, db, cache=None)
        parallel = evaluate(_JOIN, db, engine="parallel", workers=2,
                            parallel_backend="process",
                            parallel_threshold=0.0, cache=None)
        assert parallel == serial

    def test_threshold_refuses_small_inputs(self):
        stats = EngineStats()
        small = {"R": Bag.from_counts({Tup(1, 2): 1})}
        expr = Dedup(var("R") + var("R"))
        result = evaluate(expr, small, engine="parallel", workers=2,
                          cache=None, stats=stats)  # default threshold
        assert result == evaluate(expr, small, cache=None)
        assert stats.partitions_created == 0  # exchange refused

    def test_under_threshold_never_builds_the_recogniser(self,
                                                        monkeypatch):
        from repro.engine.parallel import partition

        def forbidden(expr, arity_of):
            raise AssertionError(f"recogniser entered for {expr!r}")

        monkeypatch.setattr(partition, "compile_parallel_segment",
                            forbidden)
        small = {"R": Bag.from_counts({Tup(i, i % 3): 2
                                       for i in range(9)}),
                 "S": Bag.from_counts({Tup(i % 3, i): 1
                                       for i in range(7)})}
        for expr in (_JOIN, Dedup(var("R") + var("R")),
                     Nest(Dedup(var("R") - var("S")), 2),
                     Dedup(Powerset(Dedup(var("S"))) + Powerset(var("S")))):
            plan = plan_for(expr, small, policy=ParallelPolicy())
            assert "Exchange" not in plan.render()
        # without statistics no leaf has an estimate: refused as early
        from repro.engine import lower
        lower(_JOIN, None, parallel=ParallelPolicy())

    def test_the_early_refusal_is_the_recognisers_verdict(self,
                                                          monkeypatch):
        """The input bound only ever refuses what the recogniser's own
        leaf sum would have refused: same plans at every threshold."""
        from repro.engine.lower import Lowering
        from repro.testkit import generate_case
        cases = [generate_case(5, index, fragment="mixed")
                 for index in range(40)]

        def renders():
            return [plan_for(case.expr, case.database,
                             policy=ParallelPolicy(threshold)).render()
                    for case in cases
                    for threshold in (0.5, 3.0, 8.0, 40.0, 1024.0)]

        early = renders()
        monkeypatch.setattr(Lowering, "_input_bound",
                            lambda self, expr: float("inf"))
        assert renders() == early
        assert any("Exchange" in text for text in early)
        assert any("Exchange" not in text for text in early)

    def test_exchange_counters_populate(self):
        stats = EngineStats()
        evaluate(_JOIN, {"R": _R, "S": _S}, engine="parallel",
                 workers=2, parallel_threshold=0.0, cache=None,
                 stats=stats)
        assert stats.partitions_created == 2
        assert stats.morsels_executed >= 1
        assert stats.gather_barriers == 1
        assert len(stats.worker_steps) == stats.morsels_executed

    def test_parallel_and_serial_plans_use_distinct_cache_keys(self):
        cache = PlanCache(capacity=16)
        db = {"R": _R, "S": _S}
        serial_plan = plan_for(_JOIN, db, cache=cache)
        parallel_plan = plan_for(_JOIN, db, cache=cache,
                                 policy=ParallelPolicy(threshold=0.0))
        assert serial_plan is not parallel_plan
        assert isinstance(parallel_plan.root, Gather)
        assert not isinstance(serial_plan.root, Gather)
        # both keys hit on a second fetch
        assert plan_for(_JOIN, db, cache=cache) is serial_plan
        assert plan_for(_JOIN, db, cache=cache,
                        policy=ParallelPolicy(threshold=0.0)
                        ) is parallel_plan

    def test_cached_parallel_plan_runs_inline_without_config(self):
        """A parallel plan executed without a ParallelConfig (Exchange
        sees ctx.parallel None) must still produce the right bag."""
        db = {"R": _R, "S": _S}
        plan = plan_for(_JOIN, db, policy=ParallelPolicy(threshold=0.0))
        from repro.core.eval import Evaluator
        from repro.engine.physical import ExecContext
        result = plan.execute(ExecContext(db, Evaluator(track_stats=False)))
        assert result == evaluate(_JOIN, db, cache=None)


# ----------------------------------------------------------------------
# Governance
# ----------------------------------------------------------------------

_BIG = Bag.from_counts(
    {Tup(i % 97, i % 31): (i % 3) + 1 for i in range(3000)})
_GOVERNED_EXPR = Dedup(var("R") + (var("R") - var("R")))


class TestParallelGovernance:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_step_budget_fires(self, backend):
        with pytest.raises(BudgetExceeded):
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=2, parallel_backend=backend,
                     parallel_threshold=0.0, cache=None,
                     limits=Limits(max_steps=5))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_deadline_fires(self, backend):
        with pytest.raises(DeadlineExceeded):
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=2, parallel_backend=backend,
                     parallel_threshold=0.0, cache=None,
                     limits=Limits(timeout=1e-9))

    def test_cancellation_reaches_workers(self):
        token = CancellationToken()
        token.cancel("user abort")
        governor = ResourceGovernor(Limits(max_steps=10**6), token=token)
        with pytest.raises(Cancelled):
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=2, parallel_threshold=0.0, cache=None,
                     governor=governor)

    def test_size_budget_fires_in_workers(self):
        with pytest.raises(BudgetExceeded) as info:
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=2, parallel_threshold=0.0, cache=None,
                     limits=Limits(max_size=50))
        assert info.value.details.get("budget") == "size"

    def test_governed_powerset_leaf(self):
        """Powerset is a barrier: it runs serially inside the leaf, and
        its budget raises the same error family either way."""
        bag = Bag.from_counts({Tup(i): 1 for i in range(30)})
        expr = Dedup(Powerset(var("T")) + Powerset(var("T")))
        with pytest.raises(BudgetExceeded) as serial_info:
            evaluate(expr, {"T": bag}, cache=None, powerset_budget=64)
        with pytest.raises(BudgetExceeded) as parallel_info:
            evaluate(expr, {"T": bag}, engine="parallel", workers=2,
                     parallel_threshold=0.0, cache=None,
                     powerset_budget=64)
        assert (serial_info.value.details.get("budget")
                == parallel_info.value.details.get("budget")
                == "powerset")

    def test_same_error_family_as_serial(self):
        for limits in (Limits(max_steps=5), Limits(timeout=1e-9),
                       Limits(max_size=50)):
            serial_error = parallel_error = None
            try:
                evaluate(_GOVERNED_EXPR, {"R": _BIG}, cache=None,
                         limits=limits)
            except GovernedError as err:
                serial_error = type(err)
            try:
                evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                         workers=2, parallel_threshold=0.0, cache=None,
                         limits=limits)
            except GovernedError as err:
                parallel_error = type(err)
            assert serial_error is not None
            assert parallel_error is serial_error

    @pytest.mark.parametrize("error_type", [
        GovernedError, BudgetExceeded, DeadlineExceeded, Cancelled,
        RecursionDepthExceeded, IfpDivergenceError])
    def test_governed_errors_pickle_whole(self, error_type):
        """What a process worker raises is what the parent catches:
        subtype, message, partial stats and every keyword detail."""
        stats = EvalStats(nodes_evaluated=7)
        error = error_type("the verdict", stats=stats, budget="steps",
                           limit=5, observed=6)
        thawed = pickle.loads(pickle.dumps(error))
        assert type(thawed) is error_type
        assert str(thawed) == "the verdict"
        assert thawed.stats == stats
        assert thawed.details == error.details
        assert (thawed.budget, thawed.limit, thawed.observed) == (
            "steps", 5, 6)

    @pytest.mark.parametrize("expr,limits,morsel_rows,in_worker", [
        (_GOVERNED_EXPR, Limits(max_steps=4), None, True),
        (_GOVERNED_EXPR, Limits(max_steps=4), 1, True),
        (Dedup((var("R") + var("R")) - var("R")),
         Limits(max_size=800), None, True),
        (var("R") + var("R"), Limits(max_size=800), 1, False),
    ], ids=["steps-one-morsel", "steps-many-morsels",
            "size-in-the-worker", "size-at-the-gather"])
    def test_same_verdict_serial_thread_process(self, expr, limits,
                                                morsel_rows, in_worker):
        """One budget, one verdict: the subtype and the structured
        ``.details`` do not depend on where the budget tripped — in a
        serial run, in a thread worker drawing on the shared pool, or
        in a process worker holding a pre-split share."""
        db = {"R": _bag_r()}
        verdicts = {}
        for name, options in (
                ("serial", {"engine": "codegen"}),
                ("thread", {"engine": "parallel", "workers": 2,
                            "parallel_threshold": 0.0,
                            "min_morsel_rows": morsel_rows}),
                ("process", {"engine": "parallel", "workers": 2,
                             "parallel_backend": "process",
                             "parallel_threshold": 0.0,
                             "min_morsel_rows": morsel_rows})):
            with pytest.raises(GovernedError) as info:
                evaluate(expr, db, cache=None, limits=limits, **options)
            verdicts[name] = info.value
        serial = verdicts["serial"]
        assert serial.details["limit"] in (4, 800)
        for name in ("thread", "process"):
            assert type(verdicts[name]) is type(serial), name
            assert verdicts[name].details == serial.details, name
            assert verdicts[name].stats == serial.stats, name
            assert verdicts[name].limit == serial.limit, name
        # the process verdict really crossed the boundary (the pool
        # chains the worker's traceback onto what it re-raises)
        crossed = verdicts["process"].__cause__ is not None
        assert crossed is in_worker

    def test_parent_steps_absorb_worker_work(self):
        governor = ResourceGovernor(Limits(max_steps=10**6))
        evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                 workers=2, parallel_threshold=0.0, cache=None,
                 governor=governor)
        serial_governor = ResourceGovernor(Limits(max_steps=10**6))
        evaluate(_GOVERNED_EXPR, {"R": _BIG}, cache=None,
                 governor=serial_governor)
        # parallel accounting lands in the same order of magnitude as
        # serial (exact equality is not required: tick placement
        # differs across the exchange boundary)
        assert governor.steps > 0
        assert governor.steps >= serial_governor.steps // 4


class TestSharedBudget:
    def test_acquire_drains_and_refunds(self):
        budget = SharedBudget(100)
        assert budget.acquire(64) == 64
        assert budget.acquire(64) == 36
        assert budget.acquire(64) == 0
        budget.refund(10)
        assert budget.acquire(64) == 10
        assert budget.spilled() == 100

    def test_unlimited_budget(self):
        budget = SharedBudget(None)
        assert budget.acquire(64) == 64
        assert budget.spilled() == 64

    def test_worker_governor_draws_slices(self):
        parent = ResourceGovernor(Limits(max_steps=1000))
        parent.start()
        shared = SharedBudget(100)
        worker = WorkerGovernor(parent, shared)
        for _ in range(100):
            worker.tick()
        with pytest.raises(BudgetExceeded):
            worker.tick()
        assert worker.steps == 100

    def test_worker_governor_sees_parent_cancellation(self):
        parent = ResourceGovernor(Limits(max_steps=1000))
        parent.start()
        worker = WorkerGovernor(parent, SharedBudget(None))
        worker.tick()
        parent.token.cancel("stop")
        with pytest.raises(Cancelled):
            worker.tick()


# ----------------------------------------------------------------------
# Stats merge (satellite: associativity)
# ----------------------------------------------------------------------


def _stats(seed: int) -> EngineStats:
    stats = EngineStats()
    stats.record_kernel(f"k{seed % 3}")
    stats.record_kernel("scan")
    stats.rows_emitted = seed * 11
    stats.lowerings = seed % 2
    stats.cache_hits = seed
    stats.cache_misses = 3 - (seed % 3)
    stats.shared_materialized = seed % 4
    stats.oracle_fallbacks = seed % 5
    stats.partitions_created = seed % 3
    stats.morsels_executed = seed
    stats.gather_barriers = seed % 2
    stats.worker_steps = [seed, seed + 1]
    stats.morsel_retries = seed % 3
    stats.pool_respawns = seed % 2
    stats.demotions = [f"process->thread: seed {seed}"]
    return stats


class TestStatsMerge:
    def test_merge_is_associative(self):
        a, b, c = _stats(1), _stats(2), _stats(3)
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(b.merged_with(c))
        assert left == right

    def test_merge_does_not_mutate_operands(self):
        a, b = _stats(4), _stats(5)
        a_copy, b_copy = _stats(4), _stats(5)
        a.merged_with(b)
        assert a == a_copy and b == b_copy

    def test_merge_from_accumulates(self):
        a, b = _stats(1), _stats(2)
        expected = a.merged_with(b)
        a.merge_from(b)
        assert a == expected

    def test_every_field_is_merged(self):
        """Both merges are driven by ``fields(EngineStats)``: set every
        field on both operands, so a counter added later cannot be
        summed by one and dropped by the other."""
        def filled(base):
            stats = EngineStats()
            for index, spec in enumerate(fields(EngineStats)):
                default = getattr(stats, spec.name)
                value = base + index
                if isinstance(default, dict):
                    value = {"shared": value, f"only-{base}": 1}
                elif isinstance(default, list):
                    value = [value]
                setattr(stats, spec.name, value)
            return stats

        a, b = filled(100), filled(2000)
        merged = a.merged_with(b)
        assert a == filled(100) and b == filled(2000)
        a.merge_from(b)
        assert a == merged
        for index, spec in enumerate(fields(EngineStats)):
            got = getattr(merged, spec.name)
            if isinstance(got, dict):
                assert got == {"shared": 2100 + 2 * index,
                               "only-100": 1, "only-2000": 1}
            elif isinstance(got, list):
                assert got == [100 + index, 2000 + index]
            else:
                assert got == 2100 + 2 * index


# ----------------------------------------------------------------------
# Dispatch surfaces
# ----------------------------------------------------------------------


class TestDispatch:
    def test_core_eval_parallel_engine(self):
        expr = Dedup(var("R") + var("R"))
        assert core_evaluate(expr, {"R": _R}, engine="parallel",
                             workers=2) == core_evaluate(
            expr, {"R": _R})

    def test_run_sql_parallel_engine(self):
        from repro.sql import Catalog, run_sql
        catalog = Catalog({"R": ("c1", "c2"), "S": ("c1", "c2")})
        db = {"R": _R, "S": _S}
        sql = "SELECT * FROM R t1, S t2 WHERE t1.c2 = t2.c1"
        assert run_sql(sql, catalog, db, engine="parallel",
                       workers=2) == run_sql(sql, catalog, db)

    def test_cli_session_parallel(self):
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out, engine="parallel", workers=2)
        session.handle("B = {{['a','b'], ['a','b'], ['b','a']}}")
        session.handle("eps(B (+) B)")
        assert "{{['a', 'b'], ['b', 'a']}}" in out.getvalue()

    def test_cli_explain_shows_parallel_section(self):
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out, engine="parallel", workers=2)
        session.handle("B = {{['a','b'], ['a','b'], ['b','a']}}")
        session.handle(":explain eps(B (+) B)")
        text = out.getvalue()
        assert "-- physical --" in text
        assert "-- parallel --" in text
        assert "-- exchange --" in text
        assert "morsels executed" in text

    def test_explain_physical_parallel_footer(self):
        text = explain_physical(_JOIN, {"R": _R, "S": _S},
                                engine="parallel", workers=2,
                                parallel_threshold=0.0)
        assert "Gather" in text
        assert "Exchange" in text
        assert "Partition" in text
        assert "key=[2]" in text and "key=[1]" in text
        assert "partitions created   2" in text
        # the exchange names the kernels of the fused shard segment
        assert "kernels=[scan, scan, hash-join]" in text

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            evaluate(var("R"), {"R": _R}, engine="quantum")

    def test_bad_parallel_config_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(backend="fiber")


# ----------------------------------------------------------------------
# Fail-fast error propagation
# ----------------------------------------------------------------------


class TestFailFast:
    def test_worker_error_propagates_and_token_resets(self):
        governor = ResourceGovernor(Limits(max_steps=30))
        with pytest.raises(BudgetExceeded):
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=4, parallel_threshold=0.0, cache=None,
                     governor=governor)
        # the fail-fast cancellation must not stick to the governor's
        # token after the error surfaced (a sticky token would poison
        # subsequent evaluations that reuse the same token)
        assert not governor.token.cancelled

    def test_exchange_with_no_rows(self):
        empty = Bag.from_counts({})
        expr = Dedup(var("R") + var("R"))
        result = evaluate(expr, {"R": empty}, engine="parallel",
                          workers=2, parallel_threshold=0.0, cache=None)
        assert result == Bag.from_counts({})


class TestFailFastEdges:
    """The token-reset / secondary-cancellation edges of the fail-fast
    scheduler: the *primary* failure (a worker's own governed verdict)
    must win over the secondary ``Cancelled`` errors and cancelled
    queued futures it provokes, and the sticky token must be reset."""

    def test_prefer_keeps_primary_over_secondary(self):
        from repro.engine.parallel.exchange import _prefer
        primary = BudgetExceeded("steps", budget="steps")
        secondary = Cancelled("parallel worker failed: BudgetExceeded")
        assert _prefer(None, secondary) is secondary
        assert _prefer(secondary, primary) is primary
        assert _prefer(primary, secondary) is primary
        # two non-Cancelled errors: first one wins
        other = BudgetExceeded("size", budget="size")
        assert _prefer(primary, other) is primary

    def test_uncancel_resets_only_fail_fast_tokens(self):
        from types import SimpleNamespace

        from repro.engine.parallel.exchange import _uncancel
        governor = ResourceGovernor(Limits(max_steps=10))
        governor.token.cancel("parallel worker failed: BudgetExceeded")
        _uncancel(SimpleNamespace(governor=governor),
                  BudgetExceeded("steps"))
        assert not governor.token.cancelled
        # a user-initiated cancellation is NOT reset
        governor = ResourceGovernor(Limits(max_steps=10))
        governor.token.cancel("user abort")
        _uncancel(SimpleNamespace(governor=governor),
                  BudgetExceeded("steps"))
        assert governor.token.cancelled
        # neither is a fail-fast token when the surfacing error IS the
        # cancellation (nothing more primary ever arrived)
        governor = ResourceGovernor(Limits(max_steps=10))
        governor.token.cancel("parallel worker failed: Cancelled")
        _uncancel(SimpleNamespace(governor=governor),
                  Cancelled("secondary"))
        assert governor.token.cancelled

    def test_primary_beats_first_completed_secondary_cancellation(
            self, monkeypatch):
        """The first *completed* future carries a secondary
        ``Cancelled``; the real (governed) verdict finishes later and
        must still be the error that surfaces, with the token reset."""
        import threading
        import time as time_mod

        from repro.engine.parallel import exchange as exchange_mod

        lock = threading.Lock()
        primary_running = threading.Event()
        calls = iter(range(100))

        def fake_execute(program, inputs, **kwargs):
            with lock:
                n = next(calls)
            if n == 0:
                # wait until the primary-failure morsel is running so
                # it cannot be cancelled, then fail "secondarily"
                primary_running.wait(5)
                raise Cancelled("parallel worker failed: simulated")
            if n == 1:
                primary_running.set()
                time_mod.sleep(0.1)
                raise BudgetExceeded("the real verdict", budget="steps")
            raise Cancelled("tertiary")  # queued morsels, if any run

        monkeypatch.setattr(exchange_mod, "execute_program",
                            fake_execute)
        governor = ResourceGovernor(Limits(max_steps=10**6))
        with pytest.raises(BudgetExceeded) as info:
            evaluate(_GOVERNED_EXPR, {"R": _BIG}, engine="parallel",
                     workers=2, parallel_threshold=0.0, cache=None,
                     governor=governor)
        assert info.value.details.get("budget") == "steps"
        assert not governor.token.cancelled

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_cancelled_queued_morsels_are_skipped(self, monkeypatch,
                                                  backend):
        """workers=1 queues every morsel after the first; the first
        failure cancels them, and the scheduler must *skip* those
        futures (``.exception()`` on a successfully-cancelled future
        raises ``CancelledError``, which would escape as a crash)."""
        import multiprocessing

        if (backend == "process" and "fork"
                not in multiprocessing.get_all_start_methods()):
            pytest.skip("needs fork so workers see the patched module")

        from repro.engine.parallel import exchange as exchange_mod

        def fake_execute(program, inputs, **kwargs):
            raise BudgetExceeded("worker verdict", budget="steps")

        monkeypatch.setattr(exchange_mod, "execute_program",
                            fake_execute)
        # resident process workers are forked once: start from no
        # pool so they fork *with* the patch, and leave none behind
        # that would carry it into later tests
        exchange_mod.shutdown_pools()
        try:
            with pytest.raises(BudgetExceeded):
                evaluate(_GOVERNED_EXPR, {"R": _BIG},
                         engine="parallel", workers=1,
                         parallel_backend=backend,
                         parallel_threshold=0.0, cache=None,
                         limits=Limits(max_steps=10**6))
        finally:
            exchange_mod.shutdown_pools()
