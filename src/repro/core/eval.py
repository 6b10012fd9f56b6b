"""Instrumented evaluator for bag-algebra expressions.

The evaluator is deliberately small: every AST node knows how to compute
itself (``Expr._evaluate``), and the :class:`Evaluator` supplies

* the environment discipline (lexically scoped lambda bindings on top
  of the database bindings),
* an optional :class:`~repro.guard.ResourceGovernor` enforcing step
  budgets, intermediate-size budgets, wall-clock deadlines, recursion
  depth limits, and cooperative cancellation on **every node** — the
  powerset budget of earlier versions is one slice of it
  (Propositions 3.2 / Theorem 5.5 territory), and
* **instrumentation**: per-operator execution counts, peak intermediate
  standard-encoding size, and peak multiplicity.  These measurements are
  what turn the complexity theorems of the paper (Thm 4.4 LOGSPACE,
  Thm 5.1 PSPACE, Thm 6.2 hierarchy) into experiments.

Governed failures raise the structured
:class:`~repro.core.errors.GovernedError` family with the partial
:class:`EvalStats` attached, so a blow-up degrades into an inspectable
error instead of taking the process down.

The environment is a linked chain of frames so that binding a lambda
parameter is O(1) even inside a MAP over a large bag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.bag import Bag
from repro.core.database import Instance, encoding_size
from repro.core.errors import (
    GovernedError, RecursionDepthExceeded, ResourceLimitError,
    UnboundVariableError,
)
from repro.core.expr import Expr
from repro.guard.governor import CancellationToken, Limits, ResourceGovernor

__all__ = ["EvalStats", "Evaluator", "bindings_of", "evaluate"]


@dataclass
class EvalStats:
    """Measurements gathered during one or more evaluations."""

    #: node-class-name -> number of times that operator executed.
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: Largest standard-encoding size of any intermediate bag result.
    peak_encoding_size: int = 0
    #: Largest multiplicity of any element of any intermediate bag.
    peak_multiplicity: int = 0
    #: Largest number of *distinct* elements of any intermediate bag.
    peak_distinct: int = 0
    #: Total number of node evaluations.
    nodes_evaluated: int = 0

    def record(self, node: Expr, result: Any) -> None:
        """Count one evaluation of ``node`` and fold a bag ``result``
        into the peaks.

        The encoding size and the distinct count are read off the
        sealed bag (:func:`~repro.core.database.encoding_size` touches
        no member of a bag whose shape holds no bag).  The peak
        multiplicity is one C-level ``max`` over the counts; only when
        that is not an ``int`` — annotations, which have no order, or a
        mix of annotations and inner ``int`` counts — do the ``int``
        counts get filtered out first, as the largest *integer*
        multiplicity is what the peak means."""
        name = type(node).__name__
        self.op_counts[name] = self.op_counts.get(name, 0) + 1
        self.nodes_evaluated += 1
        if isinstance(result, Bag):
            self.peak_encoding_size = max(self.peak_encoding_size,
                                          encoding_size(result))
            self.peak_distinct = max(self.peak_distinct,
                                     result.distinct_count)
            if not result.is_empty():
                try:
                    peak = max(result._counts.values())
                except TypeError:
                    peak = None
                if not isinstance(peak, int):
                    int_counts = [count for _, count in result.items()
                                  if isinstance(count, int)]
                    peak = max(int_counts) if int_counts else None
                if peak is not None:
                    self.peak_multiplicity = max(self.peak_multiplicity,
                                                 peak)

    def merged_with(self, other: "EvalStats") -> "EvalStats":
        """Combine two measurement records (used by benchmark sweeps)."""
        merged = EvalStats()
        merged.op_counts = dict(self.op_counts)
        for name, count in other.op_counts.items():
            merged.op_counts[name] = merged.op_counts.get(name, 0) + count
        merged.peak_encoding_size = max(self.peak_encoding_size,
                                        other.peak_encoding_size)
        merged.peak_multiplicity = max(self.peak_multiplicity,
                                       other.peak_multiplicity)
        merged.peak_distinct = max(self.peak_distinct, other.peak_distinct)
        merged.nodes_evaluated = (self.nodes_evaluated
                                  + other.nodes_evaluated)
        return merged


#: Environment frames: None (empty) or (name, value, parent_frame).
_Frame = Optional[Tuple[str, Any, Any]]


def bindings_of(database: Optional[Mapping[str, Any]],
                named_bags: Mapping[str, Any]) -> Dict[str, Any]:
    """One fresh dict from a mapping or
    :class:`~repro.core.database.Instance` plus keyword bags (which
    add or override)."""
    bindings: Dict[str, Any] = {}
    if isinstance(database, Instance):
        bindings.update(database.bags())
    elif database is not None:
        bindings.update(database)
    bindings.update(named_bags)
    return bindings


class Evaluator:
    """Evaluates expressions against a database instance.

    Parameters
    ----------
    powerset_budget:
        Maximal number of subbags a single powerset/powerbag result may
        contain; ``None`` means unlimited.  Exceeding the budget raises
        :class:`~repro.core.errors.BudgetExceeded` before anything
        is materialised.
    track_stats:
        Disable to shave the instrumentation overhead off timing runs.
    governor:
        A pre-built :class:`~repro.guard.ResourceGovernor` to share
        with other layers (IFP, SQL, game search); alternatively pass
        ``limits`` or the individual keyword limits below and a
        private governor is built.  Without any of these the evaluator
        runs ungoverned, with zero per-node overhead.
    limits / max_steps / max_size / timeout / max_depth /
    max_iterations / cancellation / faults / clock:
        Shorthand for ``governor=ResourceGovernor(...)``.
    """

    def __init__(self, powerset_budget: Optional[int] = None,
                 track_stats: bool = True, *,
                 governor: Optional[ResourceGovernor] = None,
                 limits: Optional[Limits] = None,
                 max_steps: Optional[int] = None,
                 max_size: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_depth: Optional[int] = None,
                 max_iterations: Optional[int] = None,
                 cancellation: Optional[CancellationToken] = None,
                 faults=None, clock=None, semiring=None):
        from repro.core.semiring import resolve_semiring
        self.semiring = resolve_semiring(semiring)
        if governor is None:
            wants_governor = (
                faults is not None or cancellation is not None
                or (limits is not None and limits.any_set())
                or any(value is not None for value in (
                    max_steps, max_size, timeout, max_depth,
                    max_iterations)))
            if wants_governor:
                extra = {"clock": clock} if clock is not None else {}
                governor = ResourceGovernor(
                    limits, max_steps=max_steps, max_size=max_size,
                    powerset_budget=powerset_budget, timeout=timeout,
                    max_depth=max_depth, max_iterations=max_iterations,
                    token=cancellation, faults=faults, **extra)
        self.governor = governor
        if powerset_budget is None and governor is not None:
            powerset_budget = governor.powerset_budget
        self.powerset_budget = powerset_budget
        self.track_stats = track_stats
        self.stats = EvalStats()

    # -- environment -----------------------------------------------------

    def bind(self, env, name: str, value: Any):
        """Push a lambda binding on the environment chain."""
        base, frame = env
        return (base, (name, value, frame))

    def lookup(self, name: str, env) -> Any:
        """Resolve a variable: lambda frames first, then the database."""
        base, frame = env
        while frame is not None:
            frame_name, value, frame = frame
            if frame_name == name:
                return value
        if name in base:
            return base[name]
        raise UnboundVariableError(f"unbound variable {name!r}")

    # -- evaluation -------------------------------------------------------

    def eval(self, expr: Expr, env) -> Any:
        """Evaluate a node in an environment (internal entry point)."""
        governor = self.governor
        if governor is None:
            result = expr._evaluate(self, env)
            if self.track_stats:
                self.stats.record(expr, result)
            return result
        governor.tick(self.stats)
        governor.enter(self.stats)
        try:
            result = expr._evaluate(self, env)
        finally:
            governor.exit()
        if governor.max_size is not None and isinstance(result, Bag):
            governor.check_size(encoding_size(result), self.stats)
        if self.track_stats:
            self.stats.record(expr, result)
        return result

    def run(self, expr: Expr, database: Optional[Mapping[str, Bag]] = None,
            **named_bags: Bag) -> Any:
        """Evaluate ``expr`` against database bindings.

        ``database`` may be a plain mapping or an
        :class:`~repro.core.database.Instance`; keyword arguments add or
        override individual bags.
        """
        bindings = bindings_of(database, named_bags)
        try:
            referenced = expr.free_vars()
            if self.semiring is not None:
                bindings = self.semiring.adapt_bindings(bindings,
                                                        referenced)
            if self.governor is not None:
                self.governor.ensure_started()
            missing = referenced - set(bindings)
            if missing:
                raise UnboundVariableError(
                    f"expression mentions unbound bag(s): "
                    f"{sorted(missing)}")
            return self.eval(expr, (bindings, None))
        except RecursionError as exc:
            raise RecursionDepthExceeded(
                "expression or value nesting exceeded the Python "
                "recursion limit", stats=self.stats) from exc
        except GovernedError as error:
            if error.stats is None:
                error.stats = self.stats
            raise
        except ResourceLimitError as error:
            # pre-governor limits (powerset budget, dom budget) carry
            # the partial measurements too
            if getattr(error, "stats", None) is None:
                error.stats = self.stats
            raise


def evaluate(expr: Expr, database: Optional[Mapping[str, Bag]] = None,
             powerset_budget: Optional[int] = None,
             governor: Optional[ResourceGovernor] = None,
             limits: Optional[Limits] = None,
             engine: str = "tree",
             workers: Optional[int] = None,
             parallel_backend: str = "thread",
             opt_level: Optional[int] = None,
             config=None,
             resilience=None,
             catalog=None,
             feedback: bool = False,
             semiring=None,
             **named_bags: Bag) -> Any:
    """One-shot convenience wrapper around :class:`Evaluator`.

    ``engine`` selects the evaluation strategy: ``"tree"`` (default)
    is this module's instrumented tree walker — the semantics oracle —
    while ``"physical"`` dispatches to the fused-kernel engine of
    :mod:`repro.engine`, ``"parallel"`` to its morsel-driven
    executor (``workers`` threads, or processes with
    ``parallel_backend="process"``); :data:`repro.planner.ENGINES`
    lists every name.  Same results, bag-equal by the differential
    fuzz suite; governed limits apply either way.

    Every path routes through the staged planner
    (:func:`repro.planner.compile`).  ``opt_level`` (or a full
    :class:`~repro.planner.PassConfig`) picks the passes; otherwise
    the engine's default from that table does — level 0 for the tree
    walker, so the oracle evaluates the query *as written*.

    >>> from repro.core.expr import var
    >>> from repro.core.bag import Bag
    >>> evaluate(var("B") + var("B"), B=Bag.of("a"))
    {{'a'*2}}
    >>> evaluate(var("B") + var("B"), B=Bag.of("a"), engine="physical")
    {{'a'*2}}
    """
    from repro.planner import PassConfig, PlanContext, resolve_engine
    from repro.planner import compile as planner_compile
    canonical, default_level = resolve_engine(engine)
    if canonical != "tree":
        from repro import engine as physical_engine
        extra = {}
        if canonical == "parallel":
            extra = {"workers": workers,
                     "parallel_backend": parallel_backend,
                     "resilience": resilience}
        return physical_engine.evaluate(
            expr, database, engine=engine, governor=governor,
            limits=limits, powerset_budget=powerset_budget,
            opt_level=opt_level, config=config,
            catalog=catalog, feedback=feedback, semiring=semiring,
            **extra, **named_bags)
    from repro.core.semiring import semiring_name
    evaluator = Evaluator(powerset_budget=powerset_budget,
                          governor=governor, limits=limits,
                          semiring=semiring)
    if config is None:
        config = PassConfig.for_level(
            default_level if opt_level is None else opt_level,
            semiring=semiring_name(evaluator.semiring))
    elif evaluator.semiring is not None:
        from dataclasses import replace as _replace
        if config.semiring != evaluator.semiring.name:
            config = _replace(config,
                              semiring=evaluator.semiring.name)
    try:
        compiled = planner_compile(
            expr, PlanContext(engine="tree",
                              governor=evaluator.governor,
                              config=config))
    except GovernedError as error:
        if error.stats is None:
            error.stats = evaluator.stats
        raise
    return evaluator.run(compiled.logical, database, **named_bags)
