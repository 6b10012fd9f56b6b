"""Morsel-driven exchange: worker pools over hash-partitioned shards.

The parallelism pass (:mod:`repro.engine.lower`) rewrites an eligible
subtree into::

    Gather
      Exchange  <segment program>
        Partition key=(i,)   <leaf plan>
        Partition key=(j,)   <leaf plan>

:class:`Partition` materialises one leaf serially (the leaf plan is an
arbitrary physical plan — it may itself contain joins, oracles, or
powersets) and declares the partition key its slot must be sharded on.
:class:`Exchange` splits every input into ``workers x MORSEL_FACTOR``
shards, runs the segment program shard-by-shard on a
``concurrent.futures`` pool, and sum-merges the shard results *in
shard order* — the merge is deterministic regardless of completion
order.  :class:`Gather` is the explicit barrier marker above the
exchange (it is where value-disjointness ends and serial execution
resumes).

Morsels: over-partitioning by :data:`MORSEL_FACTOR` (2) gives the
pool more tasks than workers, so a skewed shard does not leave the
other workers idle — the classic morsel-driven load-balancing shape.
The shard count additionally adapts downward to the input cardinality
(:func:`adaptive_shards`): a morsel below ~``MORSEL_MIN_ROWS``
distinct rows costs more in dispatch than it saves in parallelism, so
small inputs get fewer, bigger morsels (down to one).

Columnar morsels: under the process backend each shard crosses the
process boundary as a codec blob
(:mod:`repro.engine.parallel.codec` — a packed count column plus
fixed-width value cells) instead of a pickled dict, in both
directions; the bytes actually shipped are counted in
``EngineStats.bytes_shipped``.  Both backends run on resident pools,
so process workers outlive their exchange and resolve the segment
program through a process-local compiled-segment cache
(:func:`~repro.engine.parallel.partition.compiled_segment_for`): a
worker lowers and fuses each distinct ``(pass tag, program)`` once and
every later morsel — of this query or a later one — reuses the
resident fused segment.

One scheduler (:func:`_run_rung`) runs every exchange on its
backend's resident pool; what varies is the *recovery budget*.  By
default there is none and every failure is fatal: the first one
cancels the shared fail-fast token (thread siblings stop at their next
governor tick), queued morsels are cancelled outright, and every
future is drained before the error surfaces.  A governed failure in
any worker surfaces as the same
:class:`~repro.core.errors.GovernedError` subclass a serial run would
raise.  Non-``Cancelled`` errors win over the secondary ``Cancelled``
errors they provoke.

A :class:`~repro.engine.resilience.ResilienceConfig` on the
:class:`ParallelConfig` is that budget: a *transient* failure
resubmits its morsel from the immutable input shards, a broken
process pool is discarded and re-obtained once (only the unfinished
shards are resubmitted), and when the budget is spent the exchange
descends the degradation ladder — process → thread → serial — with
every demotion recorded in :class:`~repro.engine.physical.EngineStats`.
Governed errors are fatal under any budget: they are deterministic
verdicts, not infrastructure noise.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import random
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED, BrokenExecutor, Executor, Future,
    ProcessPoolExecutor, ThreadPoolExecutor, wait,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import BudgetExceeded, Cancelled
from repro.engine.parallel.codec import decode_shard, encode_shard
from repro.engine.parallel.governor import (
    SharedBudget, WorkerGovernor, merge_worker_steps, presplit_spec,
)
from repro.engine.parallel.partition import (
    SegmentProgram, compiled_segment_for, execute_program,
    merge_counts, split_counts,
)
from repro.engine.physical import EngineStats, PhysicalNode
from repro.engine.resilience import (
    ResilienceConfig, is_transient_fault, next_rung,
)
from repro.guard import Limits, ResourceGovernor
from repro.guard.retry import classify_governed_error

__all__ = ["ParallelConfig", "Partition", "Exchange", "Gather",
           "adaptive_shards", "shutdown_pools"]

#: Shards-per-worker over-partitioning factor.  2, not 4: a
#: compiled columnar step costs microseconds per morsel, so dispatch
#: overhead — not load imbalance — dominates at high shard counts.
MORSEL_FACTOR = 2

#: Target minimum distinct rows per morsel; inputs smaller than
#: ``num_shards * MORSEL_MIN_ROWS`` get proportionally fewer shards.
MORSEL_MIN_ROWS = 512


@dataclass(frozen=True)
class ParallelConfig:
    """Run-time parallel execution settings (plan-independent).

    ``backend`` is ``"thread"`` (default: shared-memory shards, a
    work-stealing shared step budget, cross-worker cancellation within
    one morsel) or ``"process"`` (true multi-core for the pure-Python
    kernels; budgets are pre-split per task and cancellation stops at
    morsel granularity — see ``docs/parallel.md``).

    ``resilience`` (a :class:`~repro.engine.resilience.
    ResilienceConfig`, or ``None``) opts the exchange into per-morsel
    retry, pool respawn, and the degradation ladder; ``None`` makes
    every worker failure fatal.

    ``min_morsel_rows`` is the adaptive-granularity floor (see
    :func:`adaptive_shards`); ``1`` splits as finely as the input
    cardinality allows, up to ``workers x MORSEL_FACTOR`` shards —
    the differential harness uses that to fuzz the multi-shard merge
    on tiny bags.
    """

    workers: int = 2
    backend: str = "thread"
    resilience: Optional[ResilienceConfig] = None
    min_morsel_rows: int = MORSEL_MIN_ROWS

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"unknown parallel backend "
                             f"{self.backend!r} (thread | process)")

    @property
    def num_shards(self) -> int:
        return self.workers * MORSEL_FACTOR


def adaptive_shards(config: ParallelConfig,
                    inputs: Sequence[Dict[Any, int]]) -> int:
    """Shard count adapted to the exchange's input cardinality.

    ``workers x MORSEL_FACTOR`` is the ceiling (enough morsels to
    steal work across skewed shards); below it the count shrinks so
    every morsel routes at least ~:data:`MORSEL_MIN_ROWS` distinct
    rows — per-morsel dispatch (task submit, governor arming, and
    under the process backend codec + IPC) is a fixed cost, so tiny
    morsels make parallelism a net loss.  One shard means the segment
    still runs on the pool (same code path, same governance) but
    without splitting overhead.
    """
    total = sum(len(counts) for counts in inputs)
    if total <= 0:
        return 1
    floor = max(1, config.min_morsel_rows)
    by_rows = -(-total // floor)  # ceil division
    return max(1, min(config.num_shards, by_rows))


class Partition(PhysicalNode):
    """Declares the partition key for one exchange input slot.

    No step of its own: the child's steps fill the register the
    parent :class:`Exchange` shards.  The node exists so ``:explain``
    shows where the plan partitions and on what key.
    """

    __slots__ = ("child", "key")
    kernel = "partition"

    def __init__(self, child: PhysicalNode,
                 key: Optional[Tuple[int, ...]] = None, estimated=None):
        super().__init__(estimated)
        self.child = child
        self.key = key

    def children(self):
        return (self.child,)

    def label(self):
        shown = "value" if self.key is None else list(self.key)
        return super().label() + f"  key={shown}"


class Exchange(PhysicalNode):
    """Run a shard-local segment program on a worker pool.

    ``partitions`` feed the program's slots in order; ``program`` is
    the :class:`~repro.engine.parallel.partition.SegmentProgram` that
    :func:`repro.engine.parallel.partition.execute_program` runs.
    Without a :class:`ParallelConfig` on the context (``ctx.parallel
    is None``) the program runs inline on a single unsplit shard —
    byte-identical to the parallel result, which keeps cached parallel
    plans usable from serial entry points.
    """

    __slots__ = ("partitions", "program", "tag", "semiring")
    kernel = "exchange"

    def __init__(self, partitions: Sequence[Partition],
                 program: SegmentProgram, estimated=None,
                 tag: Optional[Tuple] = None, semiring=None):
        super().__init__(estimated)
        self.partitions = tuple(partitions)
        self.program = program
        #: The planner's ``PassConfig.cache_tag()`` (or ``None``):
        #: half of the worker-local compiled-segment cache key, so a
        #: pass-config change invalidates resident segments.
        self.tag = tag
        #: The semiring the plan was lowered under (``None`` = N):
        #: what ``label`` must compile the segment with to show the
        #: kernels the workers actually run.
        self.semiring = semiring

    def children(self):
        return self.partitions

    def label(self):
        plan = compiled_segment_for(self.program, tag=self.tag,
                                    sr=self.semiring)
        shown = f"  kernels=[{', '.join(plan.kernels())}]"
        inputs = plan.root_segment.inputs
        if inputs:
            # shared inner segments the root segment reads
            shown += f"  inputs=[{', '.join(inputs)}]"
        return super().label() + shown

    # -- execution --------------------------------------------------------

    def run(self, ctx, inputs: List[Dict[Any, int]]) -> Dict[Any, int]:
        """The exchange step: the program over the materialised
        ``inputs`` (one dict per partition, never mutated)."""
        if ctx.parallel is None:
            return execute_program(
                self.program, inputs, governor=ctx.governor,
                every=ctx.tick_interval, stats=ctx.stats,
                tag=self.tag, sr=ctx.semiring)
        return self._run_sharded(ctx, ctx.parallel, inputs,
                                 ctx.semiring)

    def _run_sharded(self, ctx, config: ParallelConfig,
                     inputs: List[Dict[Any, int]],
                     sr=None) -> Dict[Any, int]:
        num_shards = adaptive_shards(config, inputs)
        sharded = [split_counts(counts, num_shards, part.key)
                   for counts, part in zip(inputs, self.partitions)]
        ctx.stats.partitions_created += len(inputs)
        tasks = [(index, [shards[index] for shards in sharded])
                 for index in range(num_shards)
                 if any(shards[index] for shards in sharded)]
        if not tasks:
            return {}
        try:
            outcomes = _run_ladder(ctx, config, self.program, tasks,
                                   self.tag, sr)
        except BudgetExceeded as verdict:
            _restate_step_verdict(ctx.governor, verdict)
            raise
        ctx.stats.morsels_executed += len(tasks)
        # ordered merge: shard index order, not completion order
        outcomes.sort(key=lambda outcome: outcome[0])
        merged = merge_counts([counts for _, counts, _, _ in outcomes],
                              sr)
        worker_steps = [steps for _, _, steps, _ in outcomes]
        if ctx.governor is not None:
            merge_worker_steps(ctx.governor, worker_steps)
            ctx.check_size(merged)
        ctx.stats.worker_steps.extend(worker_steps)
        for _, _, _, stats in outcomes:
            ctx.stats.merge_from(stats)
        return merged


class Gather(PhysicalNode):
    """The barrier above an exchange: where value-disjointness ends
    and serial execution resumes (the exchange's step counts it)."""

    __slots__ = ("child",)
    kernel = "gather"

    def __init__(self, child: Exchange, estimated=None):
        super().__init__(estimated)
        self.child = child

    def children(self):
        return (self.child,)


# ----------------------------------------------------------------------
# Resident pools and morsel tasks
# ----------------------------------------------------------------------

#: Long-lived pools shared by every exchange, one per ``(backend,
#: os.getpid(), workers)``.  Spawning OS threads costs ~10 ms apiece
#: on small boxes and forking a process pool 20-25 ms, so a
#: per-exchange pool would dominate sub-50 ms queries; keeping the
#: process workers alive is also what makes their compiled-segment
#: cache resident across queries.  The pid is part of the key because
#: a forked child inherits this dict but none of the pools' threads
#: or pipes: it must create its own.
_POOLS: Dict[Tuple[str, int, int], Executor] = {}
_POOLS_LOCK = threading.Lock()


def _resident_pool(backend: str, workers: int) -> Executor:
    """The pool every exchange of this ``(backend, workers)`` shares —
    the only place an executor is created."""
    key = backend, os.getpid(), workers
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if backend == "process":
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=_process_context(),
                    initializer=_exit_with_parent)
                # a multiprocessing child joins its own children
                # before the interpreter's exit hooks would stop the
                # workers, so without this its exit hangs on them;
                # the priority puts it ahead of the finalizers (10)
                # that close the queues the stop message travels on
                multiprocessing.util.Finalize(None, shutdown_pools,
                                              exitpriority=20)
            else:
                pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"exchange-{workers}w")
            _POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Stop this process's resident pools and their workers; the next
    exchange creates fresh ones.  Waits for running morsels."""
    pid = os.getpid()
    with _POOLS_LOCK:
        mine = [_POOLS.pop(key) for key in list(_POOLS)
                if key[1] == pid]
    for pool in mine:
        pool.shutdown()


def _discard_pool(backend: str, workers: int, pool: Executor) -> None:
    """Forget a broken resident pool (it cannot run another task) so
    the next :func:`_resident_pool` call creates a fresh one."""
    key = backend, os.getpid(), workers
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]
    pool.shutdown(wait=False, cancel_futures=True)


Outcome = Tuple[int, Dict[Any, int], int, EngineStats]
Tasks = List[Tuple[int, List[Dict[Any, int]]]]


def _thread_task(ctx, program, tag: Optional[Tuple], sr, chaos):
    """The task the thread backend submits per morsel: one shard
    through :func:`execute_program`, under a :class:`WorkerGovernor`
    drawing on the parent's remaining step budget when the run is
    governed (and under the chaos plan, if any)."""
    parent = ctx.governor
    shared: Optional[SharedBudget] = None
    if parent is not None:
        parent.ensure_started()
        remaining = None
        if parent.max_steps is not None:
            remaining = max(0, parent.max_steps - parent.steps)
        shared = SharedBudget(remaining)

    def run_task(index: int, inputs: List[Dict[Any, int]],
                 attempt: int) -> Outcome:
        stats = _task_stats(chaos, index, attempt, program, tag, sr,
                            in_process_worker=False)
        worker = (None if parent is None
                  else WorkerGovernor(parent, shared))
        try:
            counts = execute_program(
                program, inputs, governor=worker,
                every=ctx.tick_interval, stats=stats, tag=tag, sr=sr)
            return (index, counts,
                    0 if worker is None else worker.steps, stats)
        finally:
            if worker is not None:
                worker.close()

    return run_task


def _process_task(payload):
    """Top-level worker entry (must be picklable by reference).

    Shard inputs arrive as columnar-codec blobs and the result goes
    back the same way — the payload never carries a pickled value
    dict.  Budgets arrive pre-split
    (:func:`~repro.engine.parallel.governor.presplit_spec`); the
    governor is armed in the child, with the remaining wall-clock as
    its timeout, so absolute deadlines carry across the process
    boundary.  ``chaos``/``attempt`` ride in the payload so injected
    faults fire *inside* the worker — a ``worker-crash`` genuinely
    kills this process.  ``tag`` keys this process's compiled-segment
    cache: the first morsel of a plan compiles, every later one hits.
    ``sr_name`` is the multiplicity semiring's registry name (``None``
    = N): instances are not shipped, the worker resolves the name
    against its own registry.
    """
    (index, program, blobs, limits_spec, every, chaos, attempt,
     tag, sr_name) = payload
    sr = None
    if sr_name is not None:
        from repro.core.semiring import resolve_semiring
        sr = resolve_semiring(sr_name)
    inputs = [decode_shard(blob) for blob in blobs]
    stats = _task_stats(chaos, index, attempt, program, tag, sr,
                        in_process_worker=True)
    governor = None
    if limits_spec is not None:
        governor = ResourceGovernor(Limits(**limits_spec)).start()
    counts = execute_program(program, inputs, governor=governor,
                             every=every, stats=stats, tag=tag, sr=sr)
    return (index, encode_shard(counts),
            0 if governor is None else governor.steps, stats)


def _exit_with_parent() -> None:
    """Resident-worker initializer: a worker idles on its call queue
    for as long as the pool lives, and a parent that is killed never
    sends the stop message — so watch the parent and die with it."""
    parent = multiprocessing.parent_process()

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True,
                     name="exchange-parent-watch").start()


def _process_context():
    """Prefer fork: shard dicts ship without re-hashing surprises and
    the pool starts fast; fall back to the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _morsel_io(ctx, backend: str, program, tasks: Tasks, chaos,
               tag: Optional[Tuple], sr):
    """Everything the two backends differ in: ``submit(pool, index,
    inputs, attempt)`` hands one morsel to the pool and ``finish``
    reads a worker's outcome back.  Thread workers take the shard
    dicts by reference and return a dict; process workers take a codec
    payload — encoded *as it is submitted*, so worker 1 decodes while
    the parent encodes morsel 2 — and hand back a blob to decode."""
    if backend == "thread":
        run_task = _thread_task(ctx, program, tag, sr, chaos)

        def submit(pool, index, inputs, attempt) -> Future:
            return pool.submit(run_task, index, inputs, attempt)

        return submit, lambda outcome: outcome

    # pre-split once per rung: a retried or respawned shard runs
    # under exactly the budget its first attempt had
    limits_spec = presplit_spec(ctx.governor, len(tasks))
    sr_name = None if sr is None else sr.name
    blobs_of: Dict[int, List[bytes]] = {}

    def submit(pool, index, inputs, attempt) -> Future:
        # encode once per shard (the blob is immutable, like the shard
        # dict it encodes) but count bytes per submission — a retried
        # or respawned morsel crosses the boundary again
        blobs = blobs_of.get(index)
        if blobs is None:
            blobs = blobs_of[index] = [encode_shard(counts)
                                       for counts in inputs]
        ctx.stats.bytes_shipped += sum(len(blob) for blob in blobs)
        return pool.submit(_process_task, (
            index, program, blobs, limits_spec, ctx.tick_interval,
            chaos, attempt, tag, sr_name))

    def finish(outcome) -> Outcome:
        index, blob, steps, stats = outcome
        del blobs_of[index]  # a finished shard is never resubmitted
        ctx.stats.bytes_shipped += len(blob)
        return index, decode_shard(blob), steps, stats

    return submit, finish


def _restate_step_verdict(parent: Optional[ResourceGovernor],
                          verdict: BudgetExceeded) -> None:
    """A worker trips on its *share* of the step budget (a pre-split
    quota, or whatever the shared pool had left), so its ``limit`` /
    ``observed`` describe the split, not the query.  Restate them as
    a serial run reports the same verdict: the query's own budget,
    exceeded by the tick that tripped it."""
    if (parent is not None and parent.max_steps is not None
            and verdict.details.get("budget") == "steps"):
        restated = {"limit": parent.max_steps,
                    "observed": parent.max_steps + 1}
        verdict.details.update(restated)
        vars(verdict).update(restated)


def _prefer(current: Optional[BaseException],
            candidate: BaseException) -> BaseException:
    """Keep the most informative error: the first non-``Cancelled``
    failure beats the secondary cancellations it caused."""
    if current is None:
        return candidate
    if isinstance(current, Cancelled) and not isinstance(candidate,
                                                        Cancelled):
        return candidate
    return current


def _uncancel(ctx, error: BaseException) -> None:
    """Reset a fail-fast cancellation so the error propagating out of
    the exchange is the worker's own failure, not a sticky token that
    would poison unrelated later evaluations on the same governor."""
    governor = ctx.governor
    if governor is None:
        return
    token = governor.token
    if (token.cancelled and token.reason
            and token.reason.startswith("parallel worker failed")
            and not isinstance(error, Cancelled)):
        token._cancelled = False
        token.reason = None


# ----------------------------------------------------------------------
# The morsel scheduler: one completion loop, one ladder driver
# ----------------------------------------------------------------------

class _LadderFault(Exception):
    """Internal: a rung of the ladder gave up on some shards.

    Carries the outcomes the rung *did* finish (their results are
    kept — shards are value-disjoint, so partial progress composes)
    and the unfinished tasks for the next rung.
    """

    def __init__(self, error: BaseException, outcomes: List[Outcome],
                 remaining: Tasks, reason: str):
        super().__init__(reason)
        self.error = error
        self.outcomes = outcomes
        self.remaining = remaining
        self.reason = reason


class _ChaosStats(EngineStats):
    """Worker stats that detonate a chaos plan *between kernels* of a
    shard segment: every step reports the kernel it ran through
    ``record_kernel``, so that is where the seeded target — an index
    among the segment's kernels — is met."""

    def __init__(self, chaos, shard: int, attempt: int, target: int,
                 in_process_worker: bool):
        super().__init__()
        self._chaos = chaos
        self._fire_args = (shard, attempt)
        self._in_process_worker = in_process_worker
        self._kernels_left = target + 1  # dies after kernel ``target``

    def record_kernel(self, name: str) -> None:
        super().record_kernel(name)
        self._kernels_left -= 1
        if self._kernels_left == 0:
            self._chaos.fire(*self._fire_args,
                             in_process_worker=self._in_process_worker)


def _task_stats(chaos, shard: int, attempt: int, program, tag, sr, *,
                in_process_worker: bool) -> EngineStats:
    """One (shard, attempt) execution's stats, bound to its chaos
    decision: plain stats, or stats that kill the worker partway
    through the compiled segment's kernels."""
    if chaos is None or not chaos.should_fire(shard, attempt):
        return EngineStats()
    kernels = compiled_segment_for(program, tag=tag, sr=sr).kernels()
    return _ChaosStats(chaos, shard, attempt,
                       chaos.fire_at(shard, attempt, len(kernels)),
                       in_process_worker)


def _fault_reason(error: BaseException, attempts: int) -> str:
    return (f"{classify_governed_error(error)} "
            f"({type(error).__name__}) after {attempts} attempt(s)")


def _run_ladder(ctx, config: ParallelConfig, program, tasks: Tasks,
                tag: Optional[Tuple], sr) -> List[Outcome]:
    """Run the shard tasks on the configured backend and, when a rung
    gives up (:class:`_LadderFault` — only ever raised under a
    :class:`ResilienceConfig`), re-run its unfinished tasks one rung
    down.  Completed shard outcomes survive a demotion."""
    res = config.resilience
    rng = None if res is None else random.Random(res.seed)
    mode = config.backend
    outcomes: List[Outcome] = []
    demotions = 0
    while mode != "serial":
        try:
            return outcomes + _run_rung(ctx, mode, config.workers,
                                        program, tasks, res, rng, tag,
                                        sr)
        except _LadderFault as fault:
            outcomes += fault.outcomes
            if demotions >= res.max_demotions:
                raise fault.error
            demotions += 1
            rung = next_rung(mode)
            ctx.stats.demotions.append(f"{mode}->{rung}: "
                                       f"{fault.reason}")
            mode, tasks = rung, fault.remaining
    # the floor: inline under the parent governor.  No workers → no
    # worker loss; chaos plans target workers, so they never fire here
    # and termination is guaranteed (governed verdicts aside)
    for index, inputs in tasks:
        stats = EngineStats()
        counts = execute_program(program, inputs,
                                 governor=ctx.governor,
                                 every=ctx.tick_interval, stats=stats,
                                 tag=tag, sr=sr)
        # steps were ticked straight into the parent governor
        outcomes.append((index, counts, 0, stats))
    return outcomes


def _run_rung(ctx, backend: str, workers: int, program, tasks: Tasks,
              res: Optional[ResilienceConfig],
              rng: Optional[random.Random], tag: Optional[Tuple],
              sr) -> List[Outcome]:
    """One morsel per task on the backend's resident pool, until every
    task has an outcome or the rung's recovery budget is spent.

    ``res=None`` is the empty budget — one attempt, no respawn, no
    ladder — so every failure is fatal: it cancels everything still
    queued and is what surfaces.  Under a :class:`ResilienceConfig`
    only governed errors and genuine bugs are fatal; a *transient*
    fault resubmits its morsel (``res.retry.attempts`` tries, seeded
    backoff/jitter, landing on whichever worker is free), and a dead
    process worker — which condemns the whole pool — gets the pool
    discarded and re-obtained once, with only the unfinished shards
    resubmitted.  When a morsel runs out of tries or the pool breaks
    again the rung stops feeding, drains in-flight work (keeping
    every completed result) and raises :class:`_LadderFault`.
    """
    parent = ctx.governor
    submit, finish = _morsel_io(ctx, backend, program, tasks,
                                None if res is None else res.chaos,
                                tag, sr)
    inputs_of = dict(tasks)
    attempts = dict.fromkeys(inputs_of, 1)
    respawns_left = int(res is not None and backend == "process")
    outcomes: List[Outcome] = []
    fatal: Optional[BaseException] = None
    broken: Optional[BaseException] = None
    gave_up: Optional[Tuple[BaseException, str]] = None
    pool = _resident_pool(backend, workers)
    ready = sorted(inputs_of)
    pending: Dict[Future, int] = {}

    def stop_feeding() -> None:
        ready.clear()
        for queued in pending:
            queued.cancel()

    # the loop ends with ``pending`` empty: every future of this
    # exchange (cancelled ones included) is drained, so no task of it
    # is still running when we return even though the pool lives on
    while ready or pending:
        failed: List[Tuple[int, BaseException]] = []
        while ready and not failed:
            index = ready.pop(0)
            try:
                pending[submit(pool, index, inputs_of[index],
                               attempts[index])] = index
            except Exception as error:
                # a dead pool, or an unshippable shard
                failed.append((index, error))
        if not failed:
            for future in wait(pending,
                               return_when=FIRST_COMPLETED).done:
                index = pending.pop(future)
                if future.cancelled():
                    # a queued morsel we cancelled; .exception()
                    # would raise CancelledError
                    continue
                error = future.exception()
                if error is not None:
                    failed.append((index, error))
                elif fatal is None:
                    outcomes.append(finish(future.result()))
                    del inputs_of[index]
        for index, error in failed:
            winding_down = not (fatal is None and broken is None
                                and gave_up is None)
            if isinstance(error, BrokenExecutor):
                # the pool is condemned: every sibling future fails
                # the same way, nothing more can be submitted to it
                broken = error
            if res is None or not is_transient_fault(error):
                fatal = _prefer(fatal, error)
                if parent is not None:
                    # fail fast: thread siblings observe the token at
                    # their next governor tick and stop mid-morsel
                    # (process workers run their in-flight morsel out
                    # under its own limits)
                    parent.token.cancel("parallel worker failed: "
                                        f"{type(error).__name__}")
                stop_feeding()
            elif winding_down:
                pass  # nothing is resubmitted any more
            elif broken is not None:
                stop_feeding()
            elif attempts[index] < res.retry.attempts:
                delay = res.retry.delay_for(attempts[index], rng)
                if delay > 0:
                    time.sleep(delay)
                attempts[index] += 1
                ctx.stats.morsel_retries += 1
                ready.append(index)
            else:
                # retries dry: stop feeding this rung, keep draining
                # so in-flight results are not lost
                gave_up = error, _fault_reason(error, attempts[index])
                stop_feeding()
        if broken is None or pending:
            continue
        _discard_pool(backend, workers, pool)
        if fatal is not None or gave_up is not None:
            break  # the rung was already winding down
        if respawns_left:
            respawns_left -= 1
            ctx.stats.pool_respawns += 1
            pool = _resident_pool(backend, workers)
            # the crashing shard is indistinguishable from its
            # cancelled siblings, so every unfinished shard's attempt
            # advances — chaos re-rolls for all of them
            for index in inputs_of:
                attempts[index] += 1
            ready = sorted(inputs_of)
        else:
            gave_up = broken, "worker-lost (pool broke after respawn)"
        broken = None
    if fatal is not None:
        _uncancel(ctx, fatal)
        raise fatal
    if gave_up is not None:
        raise _LadderFault(gave_up[0], outcomes,
                           sorted(inputs_of.items()), gave_up[1])
    return outcomes
