"""Cross-worker resource governance.

A parallel exchange must not weaken PR 1's guarantees: a query with
``max_steps=N`` may do at most ~N governed steps *in total*, not N per
worker, and a deadline or cancellation must stop every worker inside
one morsel, not just the one that noticed.  Three pieces make that
hold:

* :class:`SharedBudget` — the parent's remaining step budget as a
  lock-protected counter.  Workers draw fixed-size *slices* from it
  and count the slice down locally, so the lock is touched once per
  slice (every :data:`SLICE` ticks), not once per tick.  When the pool
  runs dry the worker that failed to acquire raises the same
  :class:`~repro.core.errors.BudgetExceeded` the serial engine would.
* :class:`LinkedToken` — a cancellation token that also observes the
  parent's token, so user cancellation (or fail-fast after another
  worker's error) reaches every worker at its next tick.
* :class:`WorkerGovernor` — a :class:`~repro.guard.ResourceGovernor`
  whose step accounting goes through the shared budget and whose
  deadline is the *parent's* deadline (workers inherit the absolute
  deadline rather than restarting the clock).

Fault injection stays parent-side: deterministic fault schedules are
keyed on the serial step counter, which has no stable meaning across
a nondeterministic worker interleaving.

The process backend cannot share a lock, so it *pre-splits*: each
task's governor gets ``remaining // tasks`` steps and the remaining
wall-clock as its timeout (:func:`presplit_limits`).  That is stricter
than the thread backend's work-stealing slices — a morsel cannot
borrow unused budget from an idle sibling — which is part of the
thread-vs-process tradeoff documented in ``docs/parallel.md``.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.core.errors import BudgetExceeded
from repro.guard import CancellationToken, Limits, ResourceGovernor

__all__ = [
    "SLICE", "SharedBudget", "LinkedToken", "WorkerGovernor",
    "presplit_limits", "presplit_spec", "merge_worker_steps",
]

#: Steps a worker draws from the shared budget at a time.  Small
#: enough that a worker cannot overshoot the global budget by more
#: than ``workers * SLICE``; large enough that the lock is cold.
SLICE = 64


class SharedBudget:
    """An atomic pool of governed steps shared by all workers.

    ``acquire(want)`` hands out up to ``want`` steps (less when the
    pool is nearly dry, 0 when empty); ``refund(unused)`` returns a
    finished worker's untouched remainder so trailing morsels can use
    it.  ``spilled()`` reports total steps actually drawn, which the
    exchange adds back into the parent governor's counter so serial
    and parallel runs agree on ``steps`` within one slice per worker.
    """

    __slots__ = ("_lock", "_remaining", "_drawn")

    def __init__(self, total: Optional[int]):
        self._lock = threading.Lock()
        self._remaining = total  # None = unlimited
        self._drawn = 0

    def acquire(self, want: int = SLICE) -> int:
        with self._lock:
            if self._remaining is None:
                self._drawn += want
                return want
            granted = min(want, self._remaining)
            self._remaining -= granted
            self._drawn += granted
            return granted

    def refund(self, unused: int) -> None:
        if unused <= 0:
            return
        with self._lock:
            self._drawn -= unused
            if self._remaining is not None:
                self._remaining += unused

    def spilled(self) -> int:
        with self._lock:
            return self._drawn


class LinkedToken(CancellationToken):
    """A token that is cancelled when either it or its parent is."""

    __slots__ = ("_parent", "_reason")

    def __init__(self, parent: CancellationToken):
        self._parent = parent
        super().__init__()

    @property
    def cancelled(self) -> bool:
        return self._cancelled or self._parent.cancelled

    @property
    def reason(self) -> Optional[str]:  # type: ignore[override]
        return self._reason if self._cancelled else self._parent.reason

    @reason.setter
    def reason(self, value: Optional[str]) -> None:
        self._reason = value


class WorkerGovernor(ResourceGovernor):
    """Per-worker governor drawing steps from a :class:`SharedBudget`.

    The inherited fast-path checks (deadline, cancellation, size) run
    unchanged; only the step budget is rerouted: ``max_steps`` is the
    locally-held slice, topped up from the shared pool whenever it
    runs out.  The parent's ``max_steps`` ceases to bind locally — the
    pool is the single source of truth.
    """

    __slots__ = ("shared", "_slice_left")

    def __init__(self, parent: ResourceGovernor, shared: SharedBudget):
        parent.ensure_started()
        remaining = parent.remaining_time()
        super().__init__(
            max_size=parent.max_size,
            powerset_budget=parent.powerset_budget,
            # the parent deadline, expressed as this governor's
            # timeout: one already passed is a timeout of zero
            timeout=None if remaining is None else max(0.0, remaining),
            max_depth=parent.max_depth,
            token=LinkedToken(parent.token),
            clock=parent.clock,
        )
        self.shared = shared
        self._slice_left = 0
        self.start()

    def tick(self, stats=None) -> None:
        if self._slice_left <= 0:
            granted = self.shared.acquire(SLICE)
            if granted <= 0:
                raise BudgetExceeded(
                    "step budget exhausted across parallel workers",
                    stats=stats, budget="steps",
                    limit=self.shared.spilled(),
                    observed=self.shared.spilled() + 1)
            self._slice_left = granted
        self._slice_left -= 1
        super().tick(stats)

    def close(self) -> None:
        """Refund the untouched tail of the current slice."""
        self.shared.refund(self._slice_left)
        self._slice_left = 0


def presplit_limits(parent: ResourceGovernor, tasks: int) -> Limits:
    """Static per-task limits for the process backend.

    Steps are divided evenly across outstanding tasks; the deadline is
    passed through as remaining wall-clock so a child armed "now"
    expires with the parent.  Sizes and powerset budgets are per
    intermediate result, hence inherited unchanged.
    """
    parent.ensure_started()
    max_steps = None
    if parent.max_steps is not None:
        remaining = max(0, parent.max_steps - parent.steps)
        max_steps = max(1, remaining // max(1, tasks))
    remaining_time = parent.remaining_time()
    timeout = None
    if remaining_time is not None:
        timeout = max(0.0, remaining_time)
    return Limits(max_steps=max_steps, max_size=parent.max_size,
                  powerset_budget=parent.powerset_budget,
                  timeout=timeout, max_depth=parent.max_depth)


def presplit_spec(parent: Optional[ResourceGovernor],
                  tasks: int) -> Optional[dict]:
    """:func:`presplit_limits` as a picklable keyword dict — the form
    shipped inside process-pool task payloads.  Computed *once* per
    exchange and reused verbatim when a morsel is retried or a pool is
    respawned: a retry runs under exactly the limits its first attempt
    had, so accounting stays deterministic across recovery paths."""
    if parent is None:
        return None
    limits = presplit_limits(parent, tasks)
    return {
        "max_steps": limits.max_steps, "max_size": limits.max_size,
        "powerset_budget": limits.powerset_budget,
        "timeout": limits.timeout, "max_depth": limits.max_depth,
    }


def merge_worker_steps(parent: ResourceGovernor,
                       worker_steps: List[int]) -> None:
    """Fold per-worker step counts back into the parent.

    After a gather the parent's counter reflects all parallel work, so
    downstream serial operators (and error messages) see the same
    accounting a serial run would.  The merged total is then checked
    against the parent's own budget — a pre-split process run that
    collectively overshot surfaces here.
    """
    parent.ensure_started()
    parent.steps += sum(worker_steps)
    if (parent.max_steps is not None
            and parent.steps > parent.max_steps):
        raise BudgetExceeded(
            f"step budget exhausted after {parent.max_steps} governed "
            "steps (parallel gather)", budget="steps",
            limit=parent.max_steps, observed=parent.steps)
