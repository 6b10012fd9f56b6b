"""Physical plan IR: the operator nodes a lowered plan is made of.

A physical plan is a tree of :class:`PhysicalNode` objects produced by
the lowering pass (:mod:`repro.engine.lower`).  Nodes are plan IR only
— a constructor, :meth:`~PhysicalNode.children`,
:meth:`~PhysicalNode.label`, the ``kernel`` name and the lowering-time
estimate; the step builder (:mod:`repro.engine.codegen`) turns the
tree into the step programs that execute it, and nothing in a node
changes after lowering, so one cached plan runs from many threads.

Everything a run *does* write lives on its :class:`ExecContext`: the
bindings, the shared-intermediate memo, the
:class:`EngineStats` counters, and the rows each node's step produced
(``actual_rows``; ``:explain`` prints them next to the estimates).

Governance: the context carries the run's
:class:`~repro.guard.ResourceGovernor`.  Every step ticks it in
proportion to the rows it produced and every materialised dict
honours the intermediate-size budget — so step budgets, deadlines,
cancellation, and injected faults apply to engine execution exactly
as they do to the tree walker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.bag import Bag
from repro.core.database import encoding_size
from repro.core.errors import UnboundVariableError
from repro.planner.stats import BagStats

__all__ = [
    "EngineStats", "ExecContext", "PhysicalNode",
    "ScanBag", "ConstSource", "OracleEval", "SharedScan",
    "HashUnion", "HashDifference", "HashIntersect", "HashMaxUnion",
    "HashDedup", "HashJoin", "NestedLoopProduct",
    "StreamingMap", "StreamingSelect", "MultiplicityScale",
    "FlattenBags", "NestBuild", "UnnestExpand", "PowersetExpand",
    "render_plan",
]

#: Governor tick granularity: one governed step per this many rows.
_TICK_EVERY = 128


@dataclass
class EngineStats:
    """Counters describing one or more engine runs."""

    #: kernel name -> number of node executions that used it.
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    #: Total rows emitted across all nodes (before count-merging).
    rows_emitted: int = 0
    #: Number of expressions lowered to physical plans.
    lowerings: int = 0
    #: Plan-cache hits / misses observed by the engine entry point.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Shared intermediates materialised / served from the run memo.
    shared_materialized: int = 0
    shared_reused: int = 0
    #: Subtrees delegated to the tree-walking oracle.
    oracle_fallbacks: int = 0
    #: Parallel exchange counters: input slots partitioned, morsels
    #: dispatched to workers, gather barriers crossed, and the
    #: governed step count of each executed morsel (in merge order).
    partitions_created: int = 0
    morsels_executed: int = 0
    gather_barriers: int = 0
    worker_steps: List[int] = field(default_factory=list)
    #: Resilience counters: morsels resubmitted after a transient
    #: fault, process pools respawned after worker loss, and one
    #: human-readable record per degradation-ladder demotion
    #: (``"process->thread: ..."``) — ``:explain`` prints these so a
    #: degraded answer is never silent.
    morsel_retries: int = 0
    pool_respawns: int = 0
    demotions: List[str] = field(default_factory=list)
    #: Columnar-morsel counters: bytes crossing the process boundary
    #: (codec-encoded shards out plus encoded results back; retries
    #: re-count because they re-ship), and worker-local compiled
    #: segment cache hits/misses (a hit means a morsel reused a
    #: resident compiled segment instead of recompiling).
    bytes_shipped: int = 0
    segment_cache_hits: int = 0
    segment_cache_misses: int = 0
    #: Step-program counters: fused-segment executions, and steps
    #: that ran an operator with no columnar twin on its dict kernel
    #: (nest, unnest, flatten, powerset/powerbag) or on the oracle;
    #: the ``:explain`` footer prints both.
    fused_segments: int = 0
    barrier_fallbacks: int = 0
    #: Execution-feedback counters: per-relation total rows observed
    #: by ScanBag nodes and the number of scans that produced them.
    #: Both merge by pointwise sum (associative, parallel-safe); the
    #: honest per-scan observation is their ratio
    #: (:meth:`observed_mean_cardinalities`) — a catalog absorbs that,
    #: not the raw totals, so re-scanned partitions don't inflate it.
    observed_cardinalities: Dict[str, int] = field(default_factory=dict)
    observed_scans: Dict[str, int] = field(default_factory=dict)

    def record_scan(self, name: str, cardinality: int) -> None:
        self.observed_cardinalities[name] = (
            self.observed_cardinalities.get(name, 0) + cardinality)
        self.observed_scans[name] = (
            self.observed_scans.get(name, 0) + 1)

    def observed_mean_cardinalities(self) -> Dict[str, float]:
        """Per-relation mean observed cardinality per scan — what the
        storage catalog's feedback loop absorbs."""
        return {name: total / max(1, self.observed_scans.get(name, 1))
                for name, total in
                sorted(self.observed_cardinalities.items())}

    def record_kernel(self, name: str) -> None:
        self.kernel_counts[name] = self.kernel_counts.get(name, 0) + 1

    def merge_from(self, other: "EngineStats") -> None:
        """Fold another stats object into this one, in place.  How a
        field merges follows from its value — int: sum, list:
        concatenation, dict: pointwise sum — so a new counter merges
        without being listed here."""
        for spec in fields(EngineStats):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                for name, count in theirs.items():
                    mine[name] = mine.get(name, 0) + count
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def merged_with(self, other: "EngineStats") -> "EngineStats":
        """A new stats object combining both operands.

        The merge is associative (every field is a sum, a pointwise
        dict sum, or list concatenation), so folding per-worker stats
        in any grouping yields the same totals —
        ``tests/test_parallel.py`` pins this down.
        """
        merged = EngineStats()
        merged.merge_from(self)
        merged.merge_from(other)
        return merged


class ExecContext:
    """Per-run execution state: bindings, governor, memo, stats.

    ``evaluator`` is a tree-walking
    :class:`~repro.core.eval.Evaluator` sharing the run's governor; it
    evaluates lambda bodies that the lowering pass could not compile to
    closures, and whole subtrees the lowering pass does not know (the
    oracle fallback), so extension operators keep working under the
    physical engine.
    """

    __slots__ = ("bindings", "evaluator", "governor", "stats", "memo",
                 "actual_rows", "powerset_budget", "parallel",
                 "semiring", "_env", "_tick_interval", "_last_tick_at")

    def __init__(self, bindings: Mapping[str, Any], evaluator,
                 stats: Optional[EngineStats] = None, parallel=None,
                 tick_interval: int = _TICK_EVERY):
        self.bindings = dict(bindings)
        self.evaluator = evaluator
        self.governor = evaluator.governor
        self.stats = stats if stats is not None else EngineStats()
        self.memo: Dict[int, Dict[Any, int]] = {}
        #: ``id(node)`` -> rows its step produced in this run.  Kept
        #: here, not on the node: plans are shared through the plan
        #: cache and run concurrently.
        self.actual_rows: Dict[int, int] = {}
        self.powerset_budget = evaluator.powerset_budget
        #: Multiplicity semiring (None = N fast path); shared with the
        #: lambda/oracle evaluator so fallbacks agree with the kernels.
        self.semiring = getattr(evaluator, "semiring", None)
        #: Optional ParallelConfig: set only under ``engine=parallel``;
        #: Exchange nodes fall back to inline execution without it.
        self.parallel = parallel
        self._env = (self.bindings, None)
        self._tick_interval = tick_interval
        self._last_tick_at: Optional[float] = None

    def lookup(self, name: str) -> Any:
        if name not in self.bindings:
            raise UnboundVariableError(f"unbound variable {name!r}")
        return self.bindings[name]

    def apply_lambda(self, lam, value: Any) -> Any:
        """Evaluate an uncompiled lambda body via the tree walker."""
        evaluator = self.evaluator
        return evaluator.eval(lam.body,
                              evaluator.bind(self._env, lam.param, value))

    def lambda_applier(self, invariants=()):
        """``apply(lam, value)`` for one step execution's uncompiled
        lambdas, whose closed sub-terms the lowering pass replaced by
        the variables of ``invariants`` (``(name, expr)`` pairs,
        :func:`repro.engine.lower.hoist_invariants`).

        The first row evaluates each ``expr`` — same evaluator,
        environment, governor and semiring as the body — and binds it;
        every row then runs the rewritten body over those bindings.
        So an empty operand evaluates nothing, whatever an invariant
        raises is the walker's own verdict on that sub-term, and one
        evaluation stands for all rows because evaluation is pure.
        With no invariants this is :meth:`apply_lambda` itself."""
        if not invariants:
            return self.apply_lambda
        evaluator = self.evaluator
        bound = None

        def apply(lam, value):
            nonlocal bound
            if bound is None:
                env = self._env
                for name, expr in invariants:
                    env = evaluator.bind(
                        env, name, evaluator.eval(expr, self._env))
                bound = env
            return evaluator.eval(
                lam.body, evaluator.bind(bound, lam.param, value))

        return apply

    def eval_oracle(self, expr) -> Any:
        """Evaluate a whole subtree via the tree walker."""
        self.stats.oracle_fallbacks += 1
        return self.evaluator.eval(expr, self._env)

    @property
    def tick_interval(self) -> int:
        """Rows between governor ticks; adapts downward near deadlines."""
        return self._tick_interval

    def tick(self) -> None:
        governor = self.governor
        if governor is None:
            return
        governor.tick(self.evaluator.stats)
        # Adaptive granularity: a fixed 128-row interval lets one huge
        # morsel overshoot a deadline by a whole inter-tick gap.  When
        # a single gap consumed >10% of the deadline, halve the
        # interval (floor 1) so the overshoot bound shrinks
        # geometrically as the clock runs down.
        timeout = governor.timeout
        if timeout is not None:
            now = governor.clock()
            last = self._last_tick_at
            self._last_tick_at = now
            if (last is not None and now - last > 0.1 * timeout
                    and self._tick_interval > 1):
                self._tick_interval = max(1, self._tick_interval // 2)

    def check_size(self, counts: Dict[Any, int]) -> None:
        """Enforce the size budget on a materialised intermediate."""
        governor = self.governor
        if governor is None or governor.max_size is None:
            return
        size = 1 + sum((count if isinstance(count, int) else 1)
                       * encoding_size(value)
                       for value, count in counts.items())
        governor.check_size(size, self.evaluator.stats)

    def collect(self, node: "PhysicalNode") -> Dict[Any, int]:
        """Build and run ``node``'s steps; the counts dict, unsealed."""
        from repro.engine.codegen import compile_node
        counts = compile_node(node, self.semiring).fn(self)
        self.check_size(counts)
        return counts


class PhysicalNode:
    """Base class of physical operators: plan IR, no behaviour."""

    __slots__ = ("estimated",)

    #: Kernel label shown by ``:explain`` (subclasses override).
    kernel = "?"

    def __init__(self, estimated: Optional[BagStats] = None):
        self.estimated = estimated

    def children(self) -> Tuple["PhysicalNode", ...]:
        return ()

    def label(self) -> str:
        parts = [f"{type(self).__name__}  kernel={self.kernel}"]
        if self.estimated is not None:
            parts.append(f"est card {self.estimated.cardinality:g}")
        return "  ".join(parts)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------

class ScanBag(PhysicalNode):
    """Scan a database bag binding."""

    __slots__ = ("name",)
    kernel = "scan"

    def __init__(self, name: str, estimated=None):
        super().__init__(estimated)
        self.name = name

    def label(self):
        return f"ScanBag {self.name}  kernel={self.kernel}" + (
            f"  est card {self.estimated.cardinality:g}"
            if self.estimated is not None else "")


class ConstSource(PhysicalNode):
    """A literal bag."""

    __slots__ = ("value",)
    kernel = "const"

    def __init__(self, value: Bag, estimated=None):
        super().__init__(estimated)
        self.value = value


class OracleEval(PhysicalNode):
    """Fallback: delegate an unlowered subtree to the tree walker.

    Keeps the physical engine total over the full expression language
    (IFP, machine encodings, future extension nodes) at interpreter
    speed for exactly that subtree.
    """

    __slots__ = ("expr",)
    kernel = "oracle"

    def __init__(self, expr, estimated=None):
        super().__init__(estimated)
        self.expr = expr


class SharedScan(PhysicalNode):
    """A common subexpression: materialised once per run, then served
    from the run memo (the within-run intermediate-sharing half of the
    plan cache).

    ``refs`` is how many times the plan reads the node; the lowering
    pass counts as it hands the node out.  Its CSE wraps every
    syntactically repeated subtree, which marks more nodes than the
    physical DAG re-reads: a node read once gains nothing from the
    memo, and the step builder fuses straight through it."""

    __slots__ = ("inner", "refs")
    kernel = "shared"

    def __init__(self, inner: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.inner = inner
        self.refs = 0

    def children(self):
        return (self.inner,)


# ----------------------------------------------------------------------
# Union family
# ----------------------------------------------------------------------

class _BinaryNode(PhysicalNode):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 estimated=None):
        super().__init__(estimated)
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class HashUnion(_BinaryNode):
    """``(+)``: the columns concatenate and the consumer sums
    counts."""

    __slots__ = ()
    kernel = "additive-union"


class HashDifference(_BinaryNode):
    """``-`` (monus): both sides as dicts (exact counts needed on
    both)."""

    __slots__ = ()
    kernel = "monus"


class HashIntersect(_BinaryNode):
    """``n`` (min): the lowering pass puts the estimated-smaller
    operand on the left, which becomes the probe dict; ``swapped``
    says that was the expression's right operand (a type error names
    the operands in the expression's order)."""

    __slots__ = ("swapped",)
    kernel = "min-intersect"

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 estimated=None, swapped: bool = False):
        super().__init__(left, right, estimated)
        self.swapped = swapped


class HashMaxUnion(_BinaryNode):
    """``u`` (max): both sides materialised."""

    __slots__ = ()
    kernel = "max-union"


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------

class _UnaryNode(PhysicalNode):
    __slots__ = ("child",)

    def __init__(self, child: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.child = child

    def children(self):
        return (self.child,)


class HashDedup(_UnaryNode):
    """``eps``: every distinct value once, with count one."""

    __slots__ = ()
    kernel = "dedup"


def _invariants_label(symbol: str, invariants: tuple) -> str:
    """``  σ[2 invariants]``: how many closed sub-terms the node's
    uncompiled lambdas evaluate once per execution (empty for none)."""
    if not invariants:
        return ""
    plural = "" if len(invariants) == 1 else "s"
    return f"  {symbol}[{len(invariants)} invariant{plural}]"


class StreamingMap(_UnaryNode):
    """``MAP``: ``fn`` is a compiled closure when the lowering pass
    recognised the lambda shape, otherwise the step applies ``lam``
    through the evaluator — ``lam`` is then the lambda with its closed
    sub-terms replaced by the variables of ``invariants``, which the
    step evaluates once per execution.  ``picks`` is set when the
    lambda is a rearrangement ``pi_{i1..in}`` of its row (``fn`` is
    then the index plan, and directly on a product or join the step
    builder fuses the projection into that kernel)."""

    __slots__ = ("lam", "fn", "picks", "invariants")
    kernel = "map"

    def __init__(self, child: PhysicalNode, lam,
                 fn: Optional[Callable[[Any], Any]], estimated=None,
                 picks: Optional[Tuple[int, ...]] = None,
                 invariants: tuple = ()):
        super().__init__(child, estimated)
        self.lam = lam
        self.fn = fn
        self.picks = picks
        self.invariants = invariants

    def label(self):
        if self.picks is None:
            return super().label() + _invariants_label(
                "MAP", self.invariants)
        return (super().label()
                + f"  π[{','.join(map(str, self.picks))}]")


class StreamingSelect(_UnaryNode):
    """``sigma``: a filter; ``make_predicate(ctx)`` is the compiled
    predicate when the lambdas allow, else one applying them through
    the run's evaluator, with their closed sub-terms (``invariants``,
    kept here for ``:explain``) evaluated once per execution."""

    __slots__ = ("make_predicate", "invariants")
    kernel = "select"

    def __init__(self, child: PhysicalNode, make_predicate,
                 estimated=None, invariants: tuple = ()):
        super().__init__(child, estimated)
        self.make_predicate = make_predicate
        self.invariants = invariants

    def label(self):
        return super().label() + _invariants_label(
            "σ", self.invariants)


class MultiplicityScale(_UnaryNode):
    """Multiply every count by a constant — the lowering of
    ``e (+) e`` and of products with single-tuple constants."""

    __slots__ = ("factor",)
    kernel = "scale"

    def __init__(self, child: PhysicalNode, factor: int, estimated=None):
        super().__init__(child, estimated)
        self.factor = factor

    def label(self):
        return super().label() + f"  x{self.factor}"


class FlattenBags(_UnaryNode):
    """``delta``: flatten, scaling inner by outer counts."""

    __slots__ = ()
    kernel = "flatten"


class NestBuild(_UnaryNode):
    """``nest_J``: the grouping kernel."""

    __slots__ = ("indices",)
    kernel = "nest-build"

    def __init__(self, child: PhysicalNode, indices: Tuple[int, ...],
                 estimated=None):
        super().__init__(child, estimated)
        self.indices = indices


class UnnestExpand(_UnaryNode):
    """``unnest_i``: expansion of a bag-valued attribute."""

    __slots__ = ("index",)
    kernel = "unnest"

    def __init__(self, child: PhysicalNode, index: int, estimated=None):
        super().__init__(child, estimated)
        self.index = index


class PowersetExpand(_UnaryNode):
    """``P`` / ``P_b``: budget-checked subbag expansion."""

    __slots__ = ("duplicate_aware",)

    def __init__(self, child: PhysicalNode, duplicate_aware: bool,
                 estimated=None):
        super().__init__(child, estimated)
        self.duplicate_aware = duplicate_aware

    @property
    def kernel(self) -> str:  # type: ignore[override]
        return "powerbag" if self.duplicate_aware else "powerset"


# ----------------------------------------------------------------------
# Products and joins
# ----------------------------------------------------------------------

class NestedLoopProduct(_BinaryNode):
    """``x``: the left columns against a materialised right side.

    The lowering pass uses this when no equality predicate can be
    fused, or when the estimated inputs are too small for a hash join
    to pay for its table build.
    """

    __slots__ = ()
    kernel = "nested-loop-product"


class HashJoin(_BinaryNode):
    """Fused ``sigma_{alpha_i = alpha_j}(B x B')`` as an equi-join.

    ``left``/``right`` keep the logical product order; ``build_right``
    says which side the lowering pass chose to hash (the estimated
    smaller one).
    """

    __slots__ = ("left_key", "right_key", "build_right")
    kernel = "hash-join"

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 left_key: Tuple[int, ...], right_key: Tuple[int, ...],
                 build_right: bool, estimated=None):
        super().__init__(left, right, estimated)
        self.left_key = left_key
        self.right_key = right_key
        self.build_right = build_right

    def label(self):
        keys = (f"L{list(self.left_key)}=R{list(self.right_key)}"
                f"  build={'right' if self.build_right else 'left'}")
        return super().label() + "  " + keys


def render_plan(node: PhysicalNode, indent: int = 0,
                actuals: Optional[Mapping[int, int]] = None) -> str:
    """Render a physical plan tree as text (used by ``:explain``).
    ``actuals`` is a run's ``ExecContext.actual_rows``: a node whose
    step ran shows the rows it produced next to its estimate."""
    line = "  " * indent + node.label()
    if actuals and id(node) in actuals:
        line += f"  actual rows {actuals[id(node)]}"
    lines = [line]
    for child in node.children():
        lines.append(render_plan(child, indent + 1, actuals))
    return "\n".join(lines)
