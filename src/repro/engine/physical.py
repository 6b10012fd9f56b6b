"""Physical plan IR: pipelined operator nodes over multiplicity streams.

A physical plan is a tree of :class:`PhysicalNode` objects produced by
the lowering pass (:mod:`repro.engine.lower`).  Execution is a pull
model: every node exposes :meth:`PhysicalNode.rows`, a generator of
``(value, multiplicity)`` pairs in which the same value may appear more
than once — downstream consumers and the final materialisation sum the
counts.  Streaming nodes (map, select, scale, dedup, flatten) never
materialise their input; hash nodes materialise exactly the sides the
kernel needs (:mod:`repro.engine.kernels`).

Governance: the :class:`ExecContext` carries the run's
:class:`~repro.guard.ResourceGovernor`.  Each node ticks the governor
once when it starts producing and once every ``_TICK_EVERY`` emitted
rows, and every materialisation point (hash builds, shared
intermediates, the sealed result) enforces the intermediate-size
budget — so step budgets, deadlines, cancellation, and injected faults
apply to engine execution exactly as they do to the tree walker.

Every node records the number of rows it emitted during the last
execution (``actual_rows``) next to the lowering-time estimate
(``estimated``); ``:explain`` in the CLI prints both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple,
)

from repro.core.bag import Bag
from repro.core.database import encoding_size
from repro.core.errors import UnboundVariableError
from repro.engine import kernels
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
    #: Codegen counters: fused-segment executions and barrier-leaf
    #: fallbacks to the stream kernels (``engine=codegen`` only; the
    #: ``:explain`` codegen footer prints both).
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
                 "powerset_budget", "parallel", "semiring", "_env",
                 "_tick_interval", "_last_tick_at")

    def __init__(self, bindings: Mapping[str, Any], evaluator,
                 stats: Optional[EngineStats] = None, parallel=None,
                 tick_interval: int = _TICK_EVERY):
        self.bindings = dict(bindings)
        self.evaluator = evaluator
        self.governor = evaluator.governor
        self.stats = stats if stats is not None else EngineStats()
        self.memo: Dict[int, Dict[Any, int]] = {}
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
        """Materialise a child node under governance."""
        if self.governor is None:
            counts = kernels.collect(node.rows(self), sr=self.semiring)
        else:
            counts = kernels.collect(
                node.rows(self), tick=self.tick,
                every=self._tick_interval,
                get_every=lambda: self._tick_interval,
                sr=self.semiring)
        self.check_size(counts)
        return counts


class PhysicalNode:
    """Base class of physical operators.

    Subclasses implement ``_rows(ctx)``; the public :meth:`rows`
    wrapper does the bookkeeping every node shares — kernel counters,
    governor ticks, and the emitted-row counts that ``:explain``
    reports as *actual* cardinalities.
    """

    __slots__ = ("estimated", "actual_rows")

    #: Kernel label shown by ``:explain`` (subclasses override).
    kernel = "?"

    def __init__(self, estimated: Optional[BagStats] = None):
        self.estimated = estimated
        self.actual_rows: Optional[int] = None

    def children(self) -> Tuple["PhysicalNode", ...]:
        return ()

    def _rows(self, ctx: ExecContext) -> Iterator[Tuple[Any, int]]:
        raise NotImplementedError

    def rows(self, ctx: ExecContext) -> Iterator[Tuple[Any, int]]:
        ctx.stats.record_kernel(self.kernel)
        ctx.tick()
        emitted = 0
        pending = 0
        governed = ctx.governor is not None
        for pair in self._rows(ctx):
            emitted += 1
            if governed:
                pending += 1
                if pending >= ctx.tick_interval:
                    pending = 0
                    ctx.tick()
            yield pair
        self.actual_rows = emitted
        ctx.stats.rows_emitted += emitted

    def execute(self, ctx: ExecContext) -> Any:
        """Materialise this node's stream into a sealed Bag."""
        counts = ctx.collect(self)
        return Bag.from_counts(counts)

    def label(self) -> str:
        parts = [f"{type(self).__name__}  kernel={self.kernel}"]
        if self.estimated is not None:
            parts.append(f"est card {self.estimated.cardinality:g}")
        if self.actual_rows is not None:
            parts.append(f"actual rows {self.actual_rows}")
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

    def _rows(self, ctx):
        value = ctx.lookup(self.name)
        if type(value) is dict:
            # a shard slot (execute_program binds count dicts): already
            # in dictionary form, and not a relation scan to observe
            yield from value.items()
            return
        if not isinstance(value, Bag):
            raise UnboundVariableError(
                f"binding {self.name!r} is not a bag "
                f"(got {type(value).__name__})")
        # feedback: one observation per scan (O(1), the cardinality
        # is cached on the bag) so catalogs can absorb actuals
        ctx.stats.record_scan(self.name, value.cardinality)
        yield from value.items()

    def label(self):
        return f"ScanBag {self.name}  kernel={self.kernel}" + (
            f"  est card {self.estimated.cardinality:g}"
            if self.estimated is not None else "") + (
            f"  actual rows {self.actual_rows}"
            if self.actual_rows is not None else "")


class ConstSource(PhysicalNode):
    """A literal bag."""

    __slots__ = ("value",)
    kernel = "const"

    def __init__(self, value: Bag, estimated=None):
        super().__init__(estimated)
        self.value = value

    def _rows(self, ctx):
        sr = ctx.semiring
        value = self.value if sr is None else sr.adapt_bag(self.value)
        yield from value.items()


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

    def _rows(self, ctx):
        result = ctx.eval_oracle(self.expr)
        if not isinstance(result, Bag):
            raise UnboundVariableError(
                f"oracle subtree produced a non-bag "
                f"{type(result).__name__} in bag position")
        yield from result.items()

    def execute(self, ctx: ExecContext) -> Any:
        # At the root, a non-bag result (tuple/atom) is returned as-is.
        ctx.stats.record_kernel(self.kernel)
        return ctx.eval_oracle(self.expr)


class SharedScan(PhysicalNode):
    """A common subexpression: materialised once per run, then served
    from the run memo (the within-run intermediate-sharing half of the
    plan cache)."""

    __slots__ = ("inner",)
    kernel = "shared"

    def __init__(self, inner: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.inner = inner

    def children(self):
        return (self.inner,)

    def _rows(self, ctx):
        counts = ctx.memo.get(id(self))
        if counts is None:
            counts = ctx.collect(self.inner)
            ctx.memo[id(self)] = counts
            ctx.stats.shared_materialized += 1
        else:
            ctx.stats.shared_reused += 1
        yield from counts.items()


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
    """``(+)``: fully pipelined — both streams pass through and the
    consumer sums counts."""

    __slots__ = ()
    kernel = "additive-union"

    def _rows(self, ctx):
        return kernels.k_additive_union(self.left.rows(ctx),
                                        self.right.rows(ctx))


class HashDifference(_BinaryNode):
    """``-`` (monus): right side builds a hash, left side builds too
    (exact counts needed on both)."""

    __slots__ = ()
    kernel = "monus"

    def _rows(self, ctx):
        right = ctx.collect(self.right)
        left = ctx.collect(self.left)
        return kernels.k_monus(left, right, sr=ctx.semiring)


class HashIntersect(_BinaryNode):
    """``n`` (min): the lowering pass puts the estimated-smaller
    operand on the left, which becomes the probe dict."""

    __slots__ = ()
    kernel = "min-intersect"

    def _rows(self, ctx):
        small = ctx.collect(self.left)
        large = ctx.collect(self.right)
        return kernels.k_min_intersect(small, large, sr=ctx.semiring)


class HashMaxUnion(_BinaryNode):
    """``u`` (max): both sides materialised."""

    __slots__ = ()
    kernel = "max-union"

    def _rows(self, ctx):
        left = ctx.collect(self.left)
        right = ctx.collect(self.right)
        return kernels.k_max_union(left, right, sr=ctx.semiring)


# ----------------------------------------------------------------------
# Streaming unary operators
# ----------------------------------------------------------------------

class _UnaryNode(PhysicalNode):
    __slots__ = ("child",)

    def __init__(self, child: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.child = child

    def children(self):
        return (self.child,)


class HashDedup(_UnaryNode):
    """``eps``: streaming dedup over an O(distinct) seen-set."""

    __slots__ = ()
    kernel = "dedup"

    def _rows(self, ctx):
        return kernels.k_dedup(self.child.rows(ctx), sr=ctx.semiring)


class StreamingMap(_UnaryNode):
    """``MAP``: pipelined; ``fn`` is a compiled closure when the
    lowering pass recognised the lambda shape, otherwise an
    evaluator-backed application."""

    __slots__ = ("lam", "fn", "compiled")
    kernel = "map"

    def __init__(self, child: PhysicalNode, lam,
                 fn: Optional[Callable[[Any], Any]], estimated=None):
        super().__init__(child, estimated)
        self.lam = lam
        self.fn = fn
        self.compiled = fn is not None

    def _rows(self, ctx):
        fn = self.fn
        if fn is None:
            lam = self.lam
            fn = lambda value: ctx.apply_lambda(lam, value)  # noqa: E731
        return kernels.k_map(self.child.rows(ctx), fn)


class StreamingSelect(_UnaryNode):
    """``sigma``: pipelined filter; predicate compiled when possible."""

    __slots__ = ("make_predicate", "compiled")
    kernel = "select"

    def __init__(self, child: PhysicalNode, make_predicate, compiled:
                 bool, estimated=None):
        super().__init__(child, estimated)
        self.make_predicate = make_predicate
        self.compiled = compiled

    def _rows(self, ctx):
        return kernels.k_select(self.child.rows(ctx),
                                self.make_predicate(ctx))


class MultiplicityScale(_UnaryNode):
    """Multiply every count by a constant — the lowering of
    ``e (+) e`` and of products with single-tuple constants."""

    __slots__ = ("factor",)
    kernel = "scale"

    def __init__(self, child: PhysicalNode, factor: int, estimated=None):
        super().__init__(child, estimated)
        self.factor = factor

    def _rows(self, ctx):
        return kernels.k_scale(self.child.rows(ctx), self.factor,
                               sr=ctx.semiring)

    def label(self):
        return super().label() + f"  x{self.factor}"


class FlattenBags(_UnaryNode):
    """``delta``: pipelined flatten, scaling inner by outer counts."""

    __slots__ = ()
    kernel = "flatten"

    def _rows(self, ctx):
        return kernels.k_flatten(self.child.rows(ctx),
                                 sr=ctx.semiring)


class NestBuild(_UnaryNode):
    """``nest_J``: grouping kernel (materialises its input)."""

    __slots__ = ("indices",)
    kernel = "nest-build"

    def __init__(self, child: PhysicalNode, indices: Tuple[int, ...],
                 estimated=None):
        super().__init__(child, estimated)
        self.indices = indices

    def _rows(self, ctx):
        return kernels.k_nest(ctx.collect(self.child), self.indices,
                              sr=ctx.semiring)


class UnnestExpand(_UnaryNode):
    """``unnest_i``: pipelined expansion of a bag-valued attribute."""

    __slots__ = ("index",)
    kernel = "unnest"

    def __init__(self, child: PhysicalNode, index: int, estimated=None):
        super().__init__(child, estimated)
        self.index = index

    def _rows(self, ctx):
        return kernels.k_unnest(self.child.rows(ctx), self.index,
                                sr=ctx.semiring)


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

    def _rows(self, ctx):
        counts = ctx.collect(self.child)
        if self.duplicate_aware:
            return kernels.k_powerbag(counts, ctx.powerset_budget,
                                      sr=ctx.semiring)
        return kernels.k_powerset(counts, ctx.powerset_budget,
                                  sr=ctx.semiring)


# ----------------------------------------------------------------------
# Products and joins
# ----------------------------------------------------------------------

class NestedLoopProduct(_BinaryNode):
    """``x``: stream the left side against a materialised right side.

    The lowering pass uses this when no equality predicate can be
    fused, or when the estimated inputs are too small for a hash join
    to pay for its table build.
    """

    __slots__ = ()
    kernel = "nested-loop-product"

    def _rows(self, ctx):
        build = ctx.collect(self.right)
        return kernels.k_product(self.left.rows(ctx), build,
                                 sr=ctx.semiring)


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

    @staticmethod
    def _key_fn(indices: Tuple[int, ...]):
        if len(indices) == 1:
            index = indices[0]
            return lambda tup: tup.attribute(index)
        return lambda tup: tuple(tup.attribute(i) for i in indices)

    def _rows(self, ctx):
        left_key = self._key_fn(self.left_key)
        right_key = self._key_fn(self.right_key)
        if self.build_right:
            build = ctx.collect(self.right)
            return kernels.k_hash_join(self.left.rows(ctx), build,
                                       left_key, right_key,
                                       probe_is_left=True,
                                       sr=ctx.semiring)
        build = ctx.collect(self.left)
        return kernels.k_hash_join(self.right.rows(ctx), build,
                                   right_key, left_key,
                                   probe_is_left=False,
                                   sr=ctx.semiring)

    def label(self):
        keys = (f"L{list(self.left_key)}=R{list(self.right_key)}"
                f"  build={'right' if self.build_right else 'left'}")
        return super().label() + "  " + keys


def render_plan(node: PhysicalNode, indent: int = 0) -> str:
    """Render a physical plan tree as text (used by ``:explain``)."""
    lines = ["  " * indent + node.label()]
    for child in node.children():
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)
