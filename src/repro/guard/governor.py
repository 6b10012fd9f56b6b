"""The resource governor: one object, every limit.

The paper guarantees that this system routinely sits one expression
away from disaster: powerset/powerbag output is (hyper)exponential in
the input (Prop 3.2, Thm 5.5), ``BALG^2`` evaluation is PSPACE-hard
(Thm 5.1), and the algebra with IFP is Turing complete (Thm 6.6) — so
no static analysis can promise termination.  Instead of each layer
improvising its own cap (a powerset budget here, a ``max_iterations``
there), a single :class:`ResourceGovernor` is threaded through the
evaluator, the IFP engine, the game search, the SQL pipeline, the
workload generators, and the CLI.  It enforces

* **step budgets** — a cap on governed work units (node evaluations,
  search positions, generated elements);
* **size budgets** — a cap on the standard-encoding size of any
  intermediate bag (the paper's complexity measure);
* **wall-clock deadlines** — armed when evaluation starts;
* **recursion-depth limits** — proactive, instead of waiting for
  Python's :class:`RecursionError`;
* **iteration budgets** — for fixpoint engines;
* **cooperative cancellation** — via :class:`CancellationToken`;
* **deterministic fault injection** — via :mod:`repro.guard.faults`.

All failures raise the structured :class:`~repro.core.errors.GovernedError`
family, carrying partial stats, so callers degrade gracefully.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.errors import (
    BudgetExceeded, Cancelled, DeadlineExceeded, RecursionDepthExceeded,
)

__all__ = ["Limits", "CancellationToken", "ResourceGovernor"]


@dataclass(frozen=True)
class Limits:
    """A declarative bundle of resource limits; ``None`` = unlimited.

    ``timeout`` is in seconds of wall clock, measured from
    :meth:`ResourceGovernor.start`; everything else is a count.
    """

    max_steps: Optional[int] = None
    max_size: Optional[int] = None
    powerset_budget: Optional[int] = None
    timeout: Optional[float] = None
    max_depth: Optional[int] = None
    max_iterations: Optional[int] = None

    def any_set(self) -> bool:
        return any(value is not None for value in (
            self.max_steps, self.max_size, self.powerset_budget,
            self.timeout, self.max_depth, self.max_iterations))


class CancellationToken:
    """Cooperative cancellation: callers flip it, governed loops obey.

    The token is thread-safe in the only way that matters here — a
    single boolean write — so a watchdog thread (or a signal handler)
    can cancel an evaluation running on the main thread.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"cancelled: {self.reason!r}" if self._cancelled else "live"
        return f"CancellationToken({state})"


class ResourceGovernor:
    """Enforces :class:`Limits` over a governed computation.

    One governor is shared by every layer participating in a single
    logical query (evaluator, fixpoint engine, compiled SQL, ...); its
    counters therefore measure the *whole* computation.  ``clock`` is
    injectable so deadline behaviour is testable deterministically.
    """

    __slots__ = ("max_steps", "max_size", "powerset_budget", "timeout",
                 "max_depth", "max_iterations", "token", "faults",
                 "clock", "steps", "depth", "_deadline", "_started_at")

    def __init__(self, limits: Optional[Limits] = None, *,
                 max_steps: Optional[int] = None,
                 max_size: Optional[int] = None,
                 powerset_budget: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_depth: Optional[int] = None,
                 max_iterations: Optional[int] = None,
                 token: Optional[CancellationToken] = None,
                 faults=None,
                 clock: Callable[[], float] = time.monotonic):
        limits = limits if limits is not None else Limits()

        def pick(explicit, declared):
            return explicit if explicit is not None else declared

        self.max_steps = pick(max_steps, limits.max_steps)
        self.max_size = pick(max_size, limits.max_size)
        self.powerset_budget = pick(powerset_budget,
                                    limits.powerset_budget)
        self.timeout = pick(timeout, limits.timeout)
        self.max_depth = pick(max_depth, limits.max_depth)
        self.max_iterations = pick(max_iterations, limits.max_iterations)
        self.token = token if token is not None else CancellationToken()
        self.faults = faults
        self.clock = clock
        self.steps = 0
        self.depth = 0
        self._deadline: Optional[float] = None
        self._started_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ResourceGovernor":
        """Reset counters and arm the deadline; returns ``self``."""
        self.steps = 0
        self.depth = 0
        self._started_at = self.clock()
        self._deadline = (self._started_at + self.timeout
                          if self.timeout is not None else None)
        return self

    def ensure_started(self) -> None:
        if self._started_at is None:
            self.start()

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before the first start)."""
        if self._started_at is None:
            return 0.0
        return self.clock() - self._started_at

    def remaining_time(self) -> Optional[float]:
        """Seconds until the deadline; ``None`` when no deadline."""
        if self._deadline is None:
            return None
        return self._deadline - self.clock()

    def limits(self) -> Limits:
        """The governor's configuration as a :class:`Limits` bundle."""
        return Limits(max_steps=self.max_steps, max_size=self.max_size,
                      powerset_budget=self.powerset_budget,
                      timeout=self.timeout, max_depth=self.max_depth,
                      max_iterations=self.max_iterations)

    # -- checks -----------------------------------------------------------

    def tick(self, stats: Any = None) -> None:
        """Account one governed work unit and run every cheap check.

        Called once per node evaluation, per explored game position,
        per generated workload element.  Raises the structured
        :class:`~repro.core.errors.GovernedError` family.
        """
        self.ensure_started()
        self.steps += 1
        if self.faults is not None:
            self.faults.on_tick(self.steps, stats)
        if self.token.cancelled:
            reason = self.token.reason or "cancellation requested"
            raise Cancelled(f"evaluation cancelled: {reason}",
                            stats=stats, reason=self.token.reason,
                            steps=self.steps)
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"step budget exhausted after {self.max_steps} governed "
                "steps", stats=stats, budget="steps",
                limit=self.max_steps, observed=self.steps)
        if self._deadline is not None and self.clock() > self._deadline:
            raise DeadlineExceeded(
                f"deadline of {self.timeout}s exceeded after "
                f"{self.steps} governed steps", stats=stats,
                timeout=self.timeout, steps=self.steps)

    def check_cancelled(self, stats: Any = None) -> None:
        """Cancellation-only check, for loops that are not step-counted."""
        if self.token.cancelled:
            reason = self.token.reason or "cancellation requested"
            raise Cancelled(f"evaluation cancelled: {reason}",
                            stats=stats, reason=self.token.reason,
                            steps=self.steps)

    def check_size(self, size: int, stats: Any = None) -> None:
        """Enforce the intermediate-size budget on one materialised bag."""
        if self.max_size is not None and size > self.max_size:
            raise BudgetExceeded(
                f"intermediate result of encoding size {size} exceeds "
                f"the size budget {self.max_size}", stats=stats,
                budget="size", limit=self.max_size, observed=size)

    def enter(self, stats: Any = None) -> None:
        """Track one level of evaluator recursion (pair with :meth:`exit`)."""
        self.depth += 1
        if self.max_depth is not None and self.depth > self.max_depth:
            raise RecursionDepthExceeded(
                f"expression nesting exceeds the depth limit "
                f"{self.max_depth}", stats=stats, limit=self.max_depth,
                observed=self.depth)

    def exit(self) -> None:
        self.depth -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResourceGovernor(steps={self.steps}, "
                f"limits={self.limits()!r})")
