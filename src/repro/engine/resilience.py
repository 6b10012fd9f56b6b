"""Fault tolerance for the morsel-driven parallel executor.

By default the exchange is strictly fail-fast: one worker failure
cancels the shared token and the whole query dies.  That is the right
contract for *governed* failures — a step budget is deterministic,
retrying it is wasted work — but the wrong one for infrastructure
failures: a worker process being OOM-killed says nothing about the
query.  This module is the policy layer that tells those apart and
says how much recovery the exchange's scheduler may spend:

1. **Per-morsel retry** — a morsel that died from a transient fault
   (:class:`~repro.guard.WorkerCrash`, a broken pool) is resubmitted
   on a new worker with seeded backoff/jitter.  Idempotence is
   structural: a segment program is a pure function of its immutable
   input shards (:func:`~repro.engine.parallel.partition.
   execute_program` never mutates an input shard: scans borrow them,
   and codegen's in-place dedup-union merges touch only dicts the
   same run produced), so re-running it cannot double-count.
2. **Worker-loss recovery** — under the process backend a dead child
   condemns the whole resident ``ProcessPoolExecutor``; the exchange
   discards it, obtains a fresh one (once per exchange) and
   reschedules only the unfinished shards.
3. **The degradation ladder** — when retries and respawns are
   exhausted the exchange *demotes* instead of dying:
   process → thread → serial inline execution (which cannot suffer
   worker loss).  Optionally (:attr:`ResilienceConfig.replan`) the
   engine entry point adds a final rung: recompile at a lower opt
   level via :class:`~repro.planner.PassConfig` and run serially.
   Every demotion is recorded in
   :class:`~repro.engine.physical.EngineStats` and surfaced by
   ``:explain`` — degraded answers are visible, never silent.

The whole layer is opt-in, and it is a budget, not a second code
path: with ``resilience=None`` (the default) the same scheduler runs
with one attempt per morsel, no respawn and no ladder, so every
failure is fatal.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional

from repro.guard.faults import ChaosPlan, WorkerCrash
from repro.guard.retry import RetryPolicy

__all__ = ["ResilienceConfig", "LADDER", "next_rung",
           "is_transient_fault", "resolve_resilience",
           "DEFAULT_RESILIENCE"]

#: The degradation ladder, most- to least-parallel.  A backend demotes
#: to the rung after its own; ``serial`` is the floor (inline
#: execution under the parent governor cannot lose a worker).
LADDER = ("process", "thread", "serial")


def next_rung(mode: str) -> Optional[str]:
    """The rung below ``mode``, or ``None`` at the floor."""
    position = LADDER.index(mode)
    if position + 1 >= len(LADDER):
        return None
    return LADDER[position + 1]


def is_transient_fault(error: BaseException) -> bool:
    """Is this a retryable infrastructure failure (as opposed to a
    governed verdict or a genuine bug)?  Worker crashes, broken pools,
    and OS-level failures to spawn/feed a worker qualify; everything
    else keeps the fail-fast contract."""
    return isinstance(error, (WorkerCrash, BrokenExecutor, OSError))


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance policy for one parallel run.

    ``retry`` drives per-morsel retry: ``attempts`` is the total
    tries per morsel, ``backoff``/``multiplier``/``jitter`` shape the
    delay between them (jitter drawn from an RNG seeded with
    ``seed``, so runs replay).  A process rung always gets one pool
    respawn after worker loss; ``max_demotions`` caps ladder
    descent (2 covers process → thread → serial).  ``replan`` adds
    the engine-level final rung — recompile at opt level 1 and run
    serially when even the ladder failed.  ``chaos`` attaches a
    :class:`~repro.guard.ChaosPlan` for fault-injection runs.
    """

    retry: RetryPolicy = RetryPolicy(attempts=3, backoff=0.0,
                                     jitter=0.5)
    seed: int = 0
    max_demotions: int = 2
    replan: bool = False
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self) -> None:
        if self.max_demotions < 0:
            raise ValueError("max_demotions must be >= 0")


#: The policy ``resilience=True`` resolves to.
DEFAULT_RESILIENCE = ResilienceConfig()


def resolve_resilience(resilience) -> Optional[ResilienceConfig]:
    """Normalise the ``evaluate(..., resilience=...)`` argument:
    ``None``/``False`` → off, ``True`` → :data:`DEFAULT_RESILIENCE`,
    a config → itself."""
    if resilience is None or resilience is False:
        return None
    if resilience is True:
        return DEFAULT_RESILIENCE
    if isinstance(resilience, ResilienceConfig):
        return resilience
    raise TypeError("resilience must be None, a bool, or a "
                    f"ResilienceConfig, got {type(resilience).__name__}")
