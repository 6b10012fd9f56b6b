"""Unit tests for fault-tolerant parallel execution.

Covers the tentpole layers — chaos plans (``guard.faults``), the
worker-loss-aware retry runner (``guard.retry``), the resilience
policy (``engine.resilience``), and the resilient exchange scheduler
(retry / respawn / degradation ladder in ``parallel.exchange``) —
plus the engine-level replan rung, the ``engine-chaos`` differential
backend, and the ``:explain`` / CLI surfaces.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import sys
from concurrent.futures import BrokenExecutor

import pytest

from repro.core.bag import Bag, Tup
from repro.core.errors import BudgetExceeded, Cancelled, DeadlineExceeded
from repro.core.expr import Dedup, var
from repro.engine import EngineStats, evaluate, explain_physical
from repro.engine.parallel import exchange, shutdown_pools
from repro.engine.resilience import (
    DEFAULT_RESILIENCE, LADDER, ResilienceConfig, is_transient_fault,
    next_rung, resolve_resilience,
)
from repro.guard import (
    ChaosPlan, Limits, ResourceGovernor, RetryPolicy, WorkerCrash,
)
from repro.guard.retry import (
    WORKER_LOSS_ERRORS, RunOutcome, classify_governed_error,
    run_with_retry,
)

_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(not _FORK,
                               reason="needs the fork start method")


def _db():
    return {"R": Bag.from_counts(
        {Tup(i % 13, i % 7): (i % 3) + 1 for i in range(240)})}


def _expr():
    return Dedup(var("R") + (var("R") - var("R")))


def _reference():
    return evaluate(_expr(), _db(), cache=None)


# ----------------------------------------------------------------------
# Chaos plans
# ----------------------------------------------------------------------


class TestChaosPlan:
    def test_firing_is_deterministic_per_shard_attempt(self):
        plan = ChaosPlan(probability=0.5, seed=9)
        twin = ChaosPlan(probability=0.5, seed=9)
        decisions = [(shard, attempt, plan.should_fire(shard, attempt))
                     for shard in range(8) for attempt in (1, 2, 3)]
        assert decisions == [
            (shard, attempt, twin.should_fire(shard, attempt))
            for shard in range(8) for attempt in (1, 2, 3)]
        # not degenerate: some fire, some do not
        fired = {fire for _, _, fire in decisions}
        assert fired == {True, False}

    def test_retry_rerolls_the_dice(self):
        plan = ChaosPlan(probability=0.5, seed=3)
        outcomes = {plan.should_fire(0, attempt)
                    for attempt in range(1, 30)}
        assert outcomes == {True, False}

    def test_shard_scoping(self):
        plan = ChaosPlan(probability=1.0, shards=(2, 5))
        assert plan.should_fire(2, 1) and plan.should_fire(5, 1)
        assert not plan.should_fire(0, 1)
        assert ChaosPlan(shards=(5, 2, 5)).shards == (2, 5)

    def test_max_attempt_silences(self):
        plan = ChaosPlan(probability=1.0, max_attempt=1)
        assert plan.should_fire(0, 1)
        assert not plan.should_fire(0, 2)

    def test_fire_at_lands_inside_the_program(self):
        plan = ChaosPlan(probability=1.0, seed=1)
        for shard in range(6):
            step = plan.fire_at(shard, 1, num_steps=5)
            assert step is not None and 0 <= step < 5
        assert ChaosPlan().fire_at(0, 1, 5) is None

    def test_fire_raises_worker_crash_with_scope(self):
        plan = ChaosPlan(kind="worker-crash", probability=1.0)
        with pytest.raises(WorkerCrash) as info:
            plan.fire(3, 2, in_process_worker=False)
        assert info.value.shard == 3
        assert info.value.attempt == 2
        assert info.value.injected

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(kind="meteor")
        with pytest.raises(ValueError):
            ChaosPlan(probability=1.5)

    def test_plans_and_crashes_pickle(self):
        plan = ChaosPlan(kind="worker-crash", probability=0.3, seed=7,
                         shards=(1, 2), max_attempt=4)
        assert pickle.loads(pickle.dumps(plan)) == plan
        crash = WorkerCrash("boom", shard=5, attempt=2)
        thawed = pickle.loads(pickle.dumps(crash))
        assert isinstance(thawed, WorkerCrash)
        assert (thawed.shard, thawed.attempt) == (5, 2)
        assert str(thawed) == "boom"


# ----------------------------------------------------------------------
# Retry policy: jitter + worker-loss classification
# ----------------------------------------------------------------------


class TestRetryJitter:
    def test_default_delays_are_bit_identical(self):
        policy = RetryPolicy(attempts=4, backoff=0.5)
        assert [policy.delay_for(a) for a in (1, 2, 3)] == [0.5, 1.0, 2.0]
        # passing an RNG with jitter=0 changes nothing
        rng = random.Random(1)
        assert policy.delay_for(2, rng) == 1.0

    def test_jitter_stretches_within_bounds_and_replays(self):
        policy = RetryPolicy(attempts=3, backoff=1.0, jitter=0.5)
        first = [policy.delay_for(a, random.Random(7)) for a in (1, 2)]
        second = [policy.delay_for(a, random.Random(7)) for a in (1, 2)]
        assert first == second
        base = [1.0, 2.0]
        for delay, floor in zip(first, base):
            assert floor <= delay <= floor * 1.5
        assert first != base  # the stretch actually happened

    def test_jitter_without_rng_is_ignored(self):
        policy = RetryPolicy(attempts=2, backoff=1.0, jitter=0.5)
        assert policy.delay_for(1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestWorkerLossClassification:
    def test_classify_worker_loss(self):
        assert classify_governed_error(WorkerCrash("x")) == "worker-lost"
        assert classify_governed_error(BrokenExecutor()) == "worker-lost"
        assert (classify_governed_error(BudgetExceeded("b"))
                == "budget-exceeded")
        assert (classify_governed_error(DeadlineExceeded("d"))
                == "deadline-exceeded")
        assert classify_governed_error(Cancelled("c")) == "cancelled"

    def test_run_with_retry_recovers_from_worker_loss(self):
        def flaky(attempt):
            if attempt < 3:
                raise WorkerCrash("transient")
            return 42

        outcome = run_with_retry(flaky, RetryPolicy(attempts=3),
                                 sleep=lambda _: None)
        assert outcome.status == "retried"
        assert outcome.value == 42
        assert outcome.attempts == 3

    def test_run_with_retry_reports_worker_lost_on_exhaustion(self):
        def dead(attempt):
            raise WorkerCrash("always")

        outcome = run_with_retry(dead, RetryPolicy(attempts=2),
                                 sleep=lambda _: None)
        assert outcome.status == "worker-lost"
        assert not outcome.ok
        assert isinstance(outcome.error, WorkerCrash)

    def test_mark_degraded(self):
        outcome = RunOutcome("ok", value=1)
        assert outcome.mark_degraded().status == "degraded"
        assert outcome.ok
        failed = RunOutcome("budget-exceeded")
        assert failed.mark_degraded().status == "budget-exceeded"

    def test_worker_loss_errors_are_not_governed(self):
        from repro.core.errors import GovernedError
        for cls in WORKER_LOSS_ERRORS:
            assert not issubclass(cls, GovernedError)


# ----------------------------------------------------------------------
# Resilience policy
# ----------------------------------------------------------------------


class TestResilienceConfig:
    def test_ladder_descends_to_serial(self):
        assert LADDER == ("process", "thread", "serial")
        assert next_rung("process") == "thread"
        assert next_rung("thread") == "serial"
        assert next_rung("serial") is None

    def test_transient_faults(self):
        assert is_transient_fault(WorkerCrash("x"))
        assert is_transient_fault(BrokenExecutor())
        assert is_transient_fault(OSError("fork failed"))
        assert not is_transient_fault(BudgetExceeded("b"))
        assert not is_transient_fault(ValueError("bug"))

    def test_resolve(self):
        assert resolve_resilience(None) is None
        assert resolve_resilience(False) is None
        assert resolve_resilience(True) is DEFAULT_RESILIENCE
        config = ResilienceConfig(seed=5)
        assert resolve_resilience(config) is config
        with pytest.raises(TypeError):
            resolve_resilience("yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_demotions=-1)


# ----------------------------------------------------------------------
# The resilient exchange: retry, respawn, ladder
# ----------------------------------------------------------------------


class TestThreadResilience:
    def test_zero_chaos_matches_failfast_result(self):
        stats = EngineStats()
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          resilience=True, stats=stats)
        assert result == _reference()
        assert stats.morsel_retries == 0
        assert stats.pool_respawns == 0
        assert stats.demotions == []

    def test_morsel_retry_recovers_transient_faults(self):
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="morsel-fault", probability=1.0, max_attempt=1))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert stats.morsel_retries > 0
        assert stats.demotions == []

    def test_ladder_demotes_to_serial_when_retries_exhaust(self):
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="worker-crash", probability=1.0))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert len(stats.demotions) == 1
        assert stats.demotions[0].startswith("thread->serial:")
        assert "worker-lost" in stats.demotions[0]

    def test_partial_progress_survives_demotion(self):
        """Shards that finished on the thread rung are not re-run on
        the serial rung — the merged bag is still exactly right."""
        stats = EngineStats()
        config = ResilienceConfig(
            retry=RetryPolicy(attempts=1),
            chaos=ChaosPlan(kind="morsel-fault", probability=1.0,
                            shards=(0,)))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert len(stats.demotions) == 1

    def test_governed_errors_keep_fail_fast_contract(self):
        governor = ResourceGovernor(Limits(max_steps=5))
        stats = EngineStats()
        with pytest.raises(BudgetExceeded):
            evaluate(_expr(), _db(), cache=None, engine="parallel",
                     workers=2, parallel_threshold=0.0, governor=governor,
                     resilience=True, stats=stats)
        assert stats.morsel_retries == 0
        assert stats.demotions == []
        # the fail-fast token reset still applies under resilience
        assert not governor.token.cancelled

    def test_worker_crash_without_resilience_fails_fast(self):
        # chaos only exists inside a ResilienceConfig, so simulate the
        # crash directly: a WorkerCrash escaping a worker must
        # propagate (it is not governed) when resilience is off
        from repro.engine.parallel import exchange as exchange_mod
        original = exchange_mod.execute_program

        def crashing(program, inputs, **kwargs):
            raise WorkerCrash("no safety net", shard=0, attempt=1)

        exchange_mod.execute_program = crashing
        try:
            with pytest.raises(WorkerCrash):
                evaluate(_expr(), _db(), cache=None, engine="parallel",
                         workers=2, parallel_threshold=0.0)
        finally:
            exchange_mod.execute_program = original


@fork_only
class TestProcessResilience:
    def test_pool_respawn_reschedules_unfinished_shards(self):
        """A genuine worker death (os._exit in the child) breaks the
        pool; one respawn reruns only the unfinished shards."""
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="worker-crash", probability=1.0, shards=(0,),
            max_attempt=1))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_backend="process",
                          parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert stats.pool_respawns == 1
        assert stats.demotions == []

    def test_morsel_fault_retries_inside_the_pool(self):
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="morsel-fault", probability=1.0, shards=(1,),
            max_attempt=1))
        # min_morsel_rows=1 forces the full multi-shard split so the
        # chaos scope (shard 1) exists even on this small input
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_backend="process",
                          parallel_threshold=0.0, min_morsel_rows=1,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert stats.morsel_retries == 1
        assert stats.pool_respawns == 0

    def test_full_ladder_descent(self):
        """worker-crash at p=1.0: the pool breaks, the respawn breaks
        again, the thread rung crashes out of retries, the serial
        floor answers — two recorded demotions, bag-equal result."""
        stats = EngineStats()
        config = ResilienceConfig(
            retry=RetryPolicy(attempts=2),
            chaos=ChaosPlan(kind="worker-crash", probability=1.0))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_backend="process",
                          parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert stats.pool_respawns == 1
        assert [entry.split(":")[0] for entry in stats.demotions] == [
            "process->thread", "thread->serial"]

    def test_max_demotions_zero_escalates(self):
        config = ResilienceConfig(
            retry=RetryPolicy(attempts=1), max_demotions=0,
            chaos=ChaosPlan(kind="worker-crash", probability=1.0))
        with pytest.raises(BrokenExecutor):
            evaluate(_expr(), _db(), cache=None, engine="parallel",
                     workers=2, parallel_backend="process",
                     parallel_threshold=0.0, resilience=config)


class TestReplanRung:
    def test_replan_recompiles_serially_after_ladder_exhaustion(self):
        stats = EngineStats()
        config = ResilienceConfig(
            retry=RetryPolicy(attempts=1), max_demotions=0, replan=True,
            chaos=ChaosPlan(kind="worker-crash", probability=1.0))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == _reference()
        assert stats.demotions[-1].startswith("parallel->replan:")

    def test_without_replan_the_fault_escapes(self):
        config = ResilienceConfig(
            retry=RetryPolicy(attempts=1), max_demotions=0,
            chaos=ChaosPlan(kind="worker-crash", probability=1.0))
        with pytest.raises(WorkerCrash):
            evaluate(_expr(), _db(), cache=None, engine="parallel",
                     workers=2, parallel_threshold=0.0,
                     resilience=config)


# ----------------------------------------------------------------------
# One scheduler, one pool policy: every rung runs on the resident pools
# ----------------------------------------------------------------------


def _process_pool():
    return exchange._POOLS[("process", os.getpid(), 2)]


@fork_only
class TestResilientRungsUseTheResidentPools:
    def test_resilient_process_queries_share_workers_and_segments(self):
        """Residency is a property of the exchange, not of fail-fast:
        consecutive resilient process queries reuse the same worker
        processes, so the second compiles nothing."""
        db = {"R": Bag.from_counts(
            {Tup(i, i % 97): (i % 3) + 1 for i in range(20000)})}
        expected = evaluate(_expr(), db, cache=None)

        def query():
            stats = EngineStats()
            assert evaluate(_expr(), db, cache=None, engine="parallel",
                            workers=2, parallel_backend="process",
                            parallel_threshold=0.0, resilience=True,
                            stats=stats) == expected
            assert stats.morsels_executed > 1
            return stats

        shutdown_pools()
        for _ in range(3):  # both workers get to compile the segment
            query()
        pool, workers = _process_pool(), set(_process_pool()._processes)
        stats = query()
        assert _process_pool() is pool
        assert set(pool._processes) == workers
        assert stats.segment_cache_misses == 0
        assert stats.segment_cache_hits == stats.morsels_executed
        assert stats.pool_respawns == 0

    def test_fail_fast_query_after_a_respawn_finds_a_healthy_pool(self):
        """A worker death under resilience breaks *the* resident pool;
        the respawn replaces it in the registry, so the next fail-fast
        query on the same ``(backend, workers)`` just runs."""
        def fail_fast():
            stats = EngineStats()
            assert evaluate(_expr(), _db(), cache=None,
                            engine="parallel", workers=2,
                            parallel_backend="process",
                            parallel_threshold=0.0,
                            stats=stats) == _reference()
            return stats

        fail_fast()
        broken = _process_pool()
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="worker-crash", probability=1.0, shards=(0,),
            max_attempt=1))
        assert evaluate(_expr(), _db(), cache=None, engine="parallel",
                        workers=2, parallel_backend="process",
                        parallel_threshold=0.0, resilience=config,
                        stats=stats) == _reference()
        assert stats.pool_respawns == 1
        assert stats.demotions == []
        respawned = _process_pool()
        assert respawned is not broken
        after = fail_fast()
        assert after.pool_respawns == 0
        assert after.demotions == []
        assert _process_pool() is respawned

    def test_executors_are_only_created_by_the_resident_pool(
            self, monkeypatch):
        created = []

        def recording(cls):
            def construct(*args, **kwargs):
                created.append((cls.__name__,
                                sys._getframe(1).f_code.co_name))
                return cls(*args, **kwargs)
            return construct

        for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
            monkeypatch.setattr(exchange, name,
                                recording(getattr(exchange, name)))
        shutdown_pools()
        for suite in (TestThreadResilience(), TestProcessResilience()):
            for name in sorted(vars(type(suite))):
                if name.startswith("test_"):
                    getattr(suite, name)()
        assert {cls for cls, _ in created} == {
            "ThreadPoolExecutor", "ProcessPoolExecutor"}
        assert {caller for _, caller in created} == {"_resident_pool"}
        shutdown_pools()  # drop the pools built from the patched names


# ----------------------------------------------------------------------
# Differential backend + surfaces
# ----------------------------------------------------------------------


class TestChaosBackend:
    def test_engine_chaos_in_default_backends(self):
        from repro.testkit.differential import DEFAULT_BACKENDS
        assert "engine-chaos" in DEFAULT_BACKENDS

    def test_engine_chaos_matches_oracle_under_injected_crashes(self):
        from repro.testkit.differential import Harness
        from repro.testkit.generate import generate_case
        harness = Harness(backends=("oracle", "engine-chaos"),
                          metamorphic=False)
        for index in range(12):
            report = harness.run_case(generate_case(17, index))
            assert report.mismatches == [], report.mismatches


class TestSurfaces:
    def test_explain_footer_reports_resilience(self):
        text = explain_physical(_expr(), _db(), engine="parallel",
                                workers=2, parallel_threshold=0.0,
                                resilience=True)
        assert "-- resilience --" in text
        assert "morsel retries" in text
        assert "demotions            none" in text

    def test_explain_footer_absent_without_resilience(self):
        text = explain_physical(_expr(), _db(), engine="parallel",
                                workers=2, parallel_threshold=0.0)
        assert "-- resilience --" not in text

    def test_core_eval_threads_resilience_through(self):
        from repro.core.eval import evaluate as core_evaluate
        result = core_evaluate(
            _expr(), _db(), engine="parallel", workers=2,
            resilience=ResilienceConfig(chaos=ChaosPlan(
                kind="morsel-fault", probability=1.0, max_attempt=1)))
        assert result == _reference()

    def test_cli_session_resilience_toggle(self):
        import io

        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out, engine="parallel",
                          resilience=True)
        assert session.resilience
        session.handle(":resilience off")
        assert not session.resilience
        session.handle(":resilience on")
        session.handle("B = {{['a'], ['a'], ['b']}}")
        session.handle("eps(B)")
        assert "{{['a'], ['b']}}" in out.getvalue()
