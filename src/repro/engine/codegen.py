"""Plan-to-closure codegen: fuse physical pipelines into Python closures.

The stream engine executes a lowered plan by pulling rows through one
generator per operator; every row pays Python-level dispatch at every
node.  This module compiles the same
:class:`~repro.engine.lower.PhysicalPlan` into a
:class:`CodegenPlan`: each maximal *fusable* region of the plan — the
select/map/scale/union chains plus the hash-style binary kernels —
becomes one emitted Python function (a *fused segment*) whose body is
a straight line of columnar bulk kernels
(:mod:`repro.engine.columnar`).  No per-tuple interpreter dispatch
remains inside a segment; the raco pipeline compiler is the exemplar
shape (one emitted unit per pipeline).

Segment boundaries:

* :class:`~repro.engine.physical.SharedScan` nodes that the plan
  references **more than once** — the inner plan compiles into its
  own fused segment, materialised once per run via the shared
  ``ctx.memo`` (the same memo the stream engine uses, so a
  subexpression shared across a barrier is still computed once).
  Lowering's CSE wraps every syntactically repeated subtree, which in
  an exponentially-shared logical expression marks far more nodes
  than the physical DAG actually re-reads; a ``SharedScan`` whose
  compiled plan references it exactly once is *transparent* here and
  fuses straight through into the consuming segment;
* everything the columnar runtime does not fuse — powerset/powerbag,
  flatten, nest, unnest, oracle subtrees, and any operator this
  module does not know — stays a **barrier leaf**: the original
  stream node executes via ``ctx.collect`` (full governance and
  powerset budgets included) and feeds the enclosing segment as a
  materialised dict.  Every such execution counts into
  ``EngineStats.barrier_fallbacks``; every segment execution counts
  into ``EngineStats.fused_segments`` — ``:explain`` prints both.

Emitted code calls the columnar kernels through the module object
(``_col.c_monus(...)``), so kernel monkeypatching — the mutation
tests' probe — takes effect without recompiling this module.

The planner inserts this as the ``codegen`` stage (after ``lower``),
active at opt level 3 under ``engine="codegen"``; the stage
contributes its own plan-cache tag component, so fused plans never
collide with stream plans compiled from the same expression.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bag import Bag
from repro.core.errors import UnboundVariableError
from repro.engine import columnar
from repro.engine.lower import PhysicalPlan
from repro.engine.physical import (
    ConstSource, HashDedup, HashDifference, HashIntersect, HashJoin,
    HashMaxUnion, HashUnion, MultiplicityScale, NestedLoopProduct,
    PhysicalNode, ScanBag, SharedScan, StreamingMap, StreamingSelect,
)

__all__ = ["CodegenPlan", "FusedSegment", "compile_codegen"]

#: Node classes the emitter fuses; everything else is a barrier leaf.
_FUSABLE = (ScanBag, ConstSource, HashUnion, HashDifference,
            HashIntersect, HashMaxUnion, HashDedup, StreamingMap,
            StreamingSelect, MultiplicityScale, NestedLoopProduct,
            HashJoin)

#: Nodes whose natural output currency is a ``value -> count`` dict
#: (the rest produce parallel columns).
_DICT_NATIVE = (ScanBag, ConstSource, HashDifference, HashIntersect,
                HashMaxUnion, HashDedup)


def _fusable(node: PhysicalNode) -> bool:
    return isinstance(node, _FUSABLE) and not isinstance(node,
                                                        SharedScan)


def _shared_refs(root: PhysicalNode) -> Dict[int, int]:
    """Count how many times the plan references each SharedScan.

    The walk memoises by node identity, so the exponentially-shared
    logical shape costs one visit per distinct physical node.  A
    SharedScan referenced exactly once gains nothing from the run-time
    memo and is fused through transparently."""
    refs: Dict[int, int] = {}
    seen: set = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, SharedScan):
            refs[id(node)] = refs.get(id(node), 0) + 1
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return refs


# ----------------------------------------------------------------------
# Runtime helpers shared by every emitted segment
# ----------------------------------------------------------------------

def _enter(ctx) -> None:
    """Segment prologue: count the execution and tick the governor."""
    ctx.stats.fused_segments += 1
    ctx.tick()


def _record(ctx, kernel: str, rows: int, counts=None) -> None:
    """Per-kernel epilogue: stats, proportional governor ticks, and
    the intermediate-size budget on materialised dicts."""
    stats = ctx.stats
    stats.record_kernel(kernel)
    stats.rows_emitted += rows
    if ctx.governor is not None:
        for _ in range(rows // ctx.tick_interval + 1):
            ctx.tick()
    if counts is not None:
        ctx.check_size(counts)


def _scan(ctx, name: str) -> Dict[Any, int]:
    """Base-relation scan straight into dictionary form.

    Returns the bag's internal counts dict *without copying*: every
    columnar kernel builds a fresh output dict and never mutates an
    input, so handing out the view is safe and saves an O(n) copy per
    scan."""
    value = ctx.lookup(name)
    if type(value) is dict:
        # a shard slot (execute_program binds count dicts): already in
        # dictionary form, and not a relation scan to observe
        return value
    if not isinstance(value, Bag):
        raise UnboundVariableError(
            f"binding {name!r} is not a bag "
            f"(got {type(value).__name__})")
    ctx.stats.record_scan(name, value.cardinality)
    return value._counts


def _tickof(ctx) -> Optional[Callable[[], None]]:
    """The tick callable quadratic kernels chunk against."""
    return None if ctx.governor is None else ctx.tick


def _mklam(ctx, lam) -> Callable[[Any], Any]:
    """Evaluator-backed application for uncompiled lambdas."""
    return lambda value: ctx.apply_lambda(lam, value)


_RUNTIME = {
    "_col": columnar,
    "_enter": _enter,
    "_record": _record,
    "_scan": _scan,
    "_tickof": _tickof,
    "_mklam": _mklam,
}


# ----------------------------------------------------------------------
# The compiled artefacts
# ----------------------------------------------------------------------

class FusedSegment:
    """One emitted closure: a barrier-free pipeline region."""

    __slots__ = ("index", "role", "fn", "source", "kernels", "inputs")

    def __init__(self, index: int, role: str,
                 fn: Callable[[Any], Dict[Any, int]], source: str,
                 kernels: Tuple[str, ...], inputs: Tuple[str, ...]):
        self.index = index
        self.role = role
        self.fn = fn
        self.source = source
        self.kernels = kernels
        self.inputs = inputs

    def describe(self) -> str:
        parts = [f"segment {self.index} ({self.role}): "
                 f"kernels=[{', '.join(self.kernels)}]"]
        if self.inputs:
            parts.append(f"inputs=[{', '.join(self.inputs)}]")
        return "  ".join(parts)


class CodegenPlan:
    """A stream plan compiled into fused columnar closures.

    Drop-in for :class:`~repro.engine.lower.PhysicalPlan` wherever the
    engine executes, caches, or renders a plan.  The plan is
    data-free — closures read bindings through the per-run
    ``ExecContext`` — so a warm plan-cache entry serves any database
    of the same shape, exactly like a stream plan.
    """

    __slots__ = ("physical", "root_segment", "segments", "barriers")

    def __init__(self, physical: PhysicalPlan,
                 root_segment: Optional[FusedSegment],
                 segments: List[FusedSegment],
                 barriers: List[PhysicalNode]):
        self.physical = physical
        self.root_segment = root_segment
        self.segments = segments
        self.barriers = barriers

    # -- PhysicalPlan surface ------------------------------------------

    @property
    def expr(self):
        return self.physical.expr

    @property
    def statistics_used(self) -> bool:
        return self.physical.statistics_used

    @property
    def root(self) -> PhysicalNode:
        return self.physical.root

    def kernels(self) -> Tuple[str, ...]:
        """The kernels one execution of the root runs: the fused root
        segment's, or — for a root the emitter does not fuse — the
        stream nodes' that execute instead."""
        if self.root_segment is not None:
            return self.root_segment.kernels
        names: List[str] = []
        seen: set = set()
        stack = [self.physical.root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                names.append(node.kernel)
                stack.extend(reversed(node.children()))
        return tuple(names)

    def execute(self, ctx) -> Any:
        if self.root_segment is None:
            # the whole plan is one barrier (powerset/oracle/... at the
            # root): stream execution, including the oracle's non-bag
            # root results
            ctx.stats.barrier_fallbacks += 1
            return self.physical.execute(ctx)
        counts = self.root_segment.fn(ctx)
        ctx.check_size(counts)
        return Bag.from_counts(counts)

    def render(self) -> str:
        lines = [f"codegen: {len(self.segments)} fused segment(s), "
                 f"{len(self.barriers)} barrier leaf(s)"]
        for segment in self.segments:
            lines.append("  " + segment.describe())
        for node in self.barriers:
            lines.append(f"  barrier: {type(node).__name__}  "
                         f"kernel={node.kernel}")
        lines.append("-- lowered plan --")
        lines.append(self.physical.render())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"CodegenPlan({len(self.segments)} segments, "
                f"{len(self.barriers)} barriers)")


# ----------------------------------------------------------------------
# The segment emitter
# ----------------------------------------------------------------------

class _SegmentBuilder:
    """Accumulates one segment's emitted lines and its environment."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.env: Dict[str, Any] = {}
        self.counter = 0
        self.kernels: List[str] = []
        self.inputs: List[str] = []
        #: vars holding fresh kernel outputs this segment owns; scan
        #: views, consts, and memoised shared inputs are borrowed and
        #: must never be mutated in place
        self.owned: set = set()

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def bind(self, prefix: str, obj: Any) -> str:
        name = f"_{prefix}{len(self.env)}"
        self.env[name] = obj
        return name

    def line(self, text: str) -> None:
        self.lines.append(text)

    def own(self, var: str) -> str:
        self.owned.add(var)
        return var

    def record(self, kernel: str, rows_expr: str,
               counts_var: Optional[str] = None) -> None:
        self.kernels.append(kernel)
        if counts_var is not None:
            self.line(f"_record(ctx, {kernel!r}, {rows_expr}, "
                      f"{counts_var})")
        else:
            self.line(f"_record(ctx, {kernel!r}, {rows_expr})")


class _Compiler:
    """Compiles one PhysicalPlan into fused segments + barrier leaves.

    ``semiring`` specialises the emitted code: with ``None`` (the N
    default) every kernel call is emitted exactly as before — the
    fused int fast path pays nothing for the generalisation — while a
    non-N semiring appends a ``_sr`` argument to each kernel call and
    binds the instance (plus its ``one``) into the segment namespace.
    """

    def __init__(self, refs: Optional[Dict[int, int]] = None,
                 semiring=None) -> None:
        self.segments: List[FusedSegment] = []
        self.barriers: List[PhysicalNode] = []
        self._shared_thunks: Dict[int, Callable] = {}
        self._refs = refs if refs is not None else {}
        self.semiring = semiring
        #: appended verbatim to every columnar kernel call; empty for
        #: N keeps the emitted source byte-identical to earlier PRs
        self._srx = "" if semiring is None else ", _sr"

    def _resolve(self, node: PhysicalNode) -> PhysicalNode:
        """Fuse through SharedScans the plan reads only once."""
        while (isinstance(node, SharedScan)
               and self._refs.get(id(node), 0) <= 1):
            node = node.inner
        return node

    # -- segments ------------------------------------------------------

    def compile_segment(self, node: PhysicalNode,
                        role: str) -> FusedSegment:
        builder = _SegmentBuilder()
        result = self._emit_dict(builder, node)
        body = ["def _segment(ctx):", "    _enter(ctx)"]
        body += ["    " + line for line in builder.lines]
        body.append(f"    return {result}")
        source = "\n".join(body) + "\n"
        index = len(self.segments)
        namespace = dict(_RUNTIME)
        namespace.update(builder.env)
        if self.semiring is not None:
            namespace["_sr"] = self.semiring
            namespace["_one"] = self.semiring.one
        exec(compile(source, f"<codegen:segment{index}>", "exec"),
             namespace)
        segment = FusedSegment(index, role, namespace["_segment"],
                               source, tuple(builder.kernels),
                               tuple(builder.inputs))
        self.segments.append(segment)
        return segment

    # -- boundaries ----------------------------------------------------

    def _input_dict(self, builder: _SegmentBuilder,
                    node: PhysicalNode) -> str:
        """A segment input: a shared segment or a barrier leaf."""
        if isinstance(node, SharedScan):
            thunk = self._shared_thunks.get(id(node))
            if thunk is None:
                thunk = self._make_shared_thunk(node)
                self._shared_thunks[id(node)] = thunk
            label = f"shared:{type(node.inner).__name__}"
        else:
            thunk = _make_barrier_thunk(node)
            self.barriers.append(node)
            label = f"barrier:{node.kernel}"
        builder.inputs.append(label)
        name = builder.bind("in", thunk)
        var = builder.fresh("d")
        builder.line(f"{var} = {name}(ctx)")
        return var

    def _make_shared_thunk(self, node: SharedScan) -> Callable:
        if _fusable(node.inner):
            inner = self.compile_segment(node.inner, "shared")
            run = inner.fn
        else:
            # a shared barrier (e.g. a CSE'd powerset): stream it once
            self.barriers.append(node.inner)
            run = _make_barrier_thunk(node.inner)

        def thunk(ctx, node=node, run=run):
            counts = ctx.memo.get(id(node))
            if counts is None:
                counts = run(ctx)
                ctx.memo[id(node)] = counts
                ctx.stats.shared_materialized += 1
            else:
                ctx.stats.shared_reused += 1
            return counts

        return thunk

    # -- recursive emission --------------------------------------------

    def _emit_dict(self, builder: _SegmentBuilder,
                   node: PhysicalNode) -> str:
        """Emit ``node`` and return the variable holding its counts
        dict."""
        node = self._resolve(node)
        if not _fusable(node):
            return self._input_dict(builder, node)

        if isinstance(node, ScanBag):
            var = builder.fresh("d")
            builder.line(f"{var} = _scan(ctx, {node.name!r})")
            builder.record("scan", f"len({var})")
            return var
        if isinstance(node, ConstSource):
            value = node.value
            if self.semiring is not None:
                value = self.semiring.adapt_bag(value)
            const = builder.bind("k", dict(value.items()))
            var = builder.fresh("d")
            builder.line(f"{var} = {const}")
            builder.record("const", f"len({var})")
            return var
        if isinstance(node, HashDifference):
            left = self._emit_dict(builder, node.left)
            right = self._emit_dict(builder, node.right)
            var = builder.fresh("d")
            builder.line(f"{var} = _col.c_monus({left}, {right}"
                         f"{self._srx})")
            builder.record("monus", f"len({var})", var)
            return var
        if isinstance(node, HashIntersect):
            small = self._emit_dict(builder, node.left)
            large = self._emit_dict(builder, node.right)
            var = builder.fresh("d")
            builder.line(
                f"{var} = _col.c_min_intersect({small}, {large}"
                f"{self._srx})")
            builder.record("min-intersect", f"len({var})", var)
            return var
        if isinstance(node, HashMaxUnion):
            left = self._emit_dict(builder, node.left)
            right = self._emit_dict(builder, node.right)
            var = builder.fresh("d")
            builder.line(f"{var} = _col.c_max_union({left}, {right}"
                         f"{self._srx})")
            builder.record("max-union", f"len({var})", var)
            return var
        if isinstance(node, HashDedup):
            pair = self._match_sym_diff(node.child)
            if pair is not None:
                # eps((A - B) (+) (B - A)): one candidate sweep over
                # the C-level key-set union instead of two monus
                # passes, a concatenation, and a dedup
                left = self._emit_dict(builder, pair[0])
                right = self._emit_dict(builder, pair[1])
                var = builder.own(builder.fresh("d"))
                builder.line(
                    f"{var} = _col.c_sym_diff_dedup({left}, {right}"
                    f"{self._srx})")
                builder.record("sym-diff-dedup", f"len({var})", var)
                return var
            merged = self._emit_dedup_union(builder, node.child)
            if merged is not None:
                return merged
            values = self._emit_values(builder, node.child)
            var = builder.own(builder.fresh("d"))
            builder.line(f"{var} = _col.c_dedup({values}{self._srx})")
            builder.record("dedup", f"len({var})", var)
            return var
        if isinstance(node, HashUnion):
            left = self._emit_dict(builder, node.left)
            right = self._emit_dict(builder, node.right)
            var = builder.fresh("d")
            builder.line(f"{var} = _col.c_add_union({left}, {right}"
                         f"{self._srx})")
            builder.record("additive-union", f"len({var})", var)
            return var
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            if self._prefers_dict(inner):
                child = self._emit_dict(builder, inner)
                var = builder.fresh("d")
                builder.line(f"{var} = _col.c_scale_dict({child}, "
                             f"{factor}{self._srx})")
                builder.record("scale", f"len({var})", var)
                return var
        # columns-native nodes (and scale over a columns child):
        # emit columns, then materialise
        values, counts, distinct = self._emit_cols(builder, node)
        var = builder.fresh("d")
        if distinct:
            builder.line(f"{var} = dict(zip({values}, {counts}))")
        else:
            builder.line(
                f"{var} = _col.sum_counts({values}, {counts}"
                f"{self._srx})")
        builder.line(f"ctx.check_size({var})")
        return var

    def _emit_cols(self, builder: _SegmentBuilder, node: PhysicalNode
                   ) -> Tuple[str, str, bool]:
        """Emit ``node`` in column form; returns
        ``(values_var, counts_var, distinct)``."""
        node = self._resolve(node)
        if isinstance(node, HashUnion):
            lv, lc, _ = self._emit_cols(builder, node.left)
            rv, rc, _ = self._emit_cols(builder, node.right)
            values = builder.fresh("v")
            counts = builder.fresh("c")
            builder.line(f"{values} = {lv} + {rv}")
            builder.line(f"{counts} = {lc} + {rc}")
            builder.record("additive-union", f"len({values})")
            return values, counts, False
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            values, counts, distinct = self._emit_cols(builder, inner)
            scaled = builder.fresh("c")
            builder.line(
                f"{scaled} = _col.c_scale({counts}, {factor}"
                f"{self._srx})")
            builder.record("scale", f"len({scaled})")
            return values, scaled, distinct
        if isinstance(node, StreamingMap):
            values, counts, _ = self._emit_cols(builder, node.child)
            if node.fn is not None:
                fn = builder.bind("fn", node.fn)
            else:
                lam = builder.bind("lam", node.lam)
                fn = builder.fresh("f")
                builder.line(f"{fn} = _mklam(ctx, {lam})")
            mapped = builder.fresh("v")
            builder.line(f"{mapped} = _col.c_map({values}, {fn})")
            builder.record("map", f"len({mapped})")
            return mapped, counts, False
        if isinstance(node, StreamingSelect):
            values, counts, distinct = self._emit_cols(builder,
                                                       node.child)
            make = builder.bind("mk", node.make_predicate)
            pred = builder.fresh("p")
            builder.line(f"{pred} = {make}(ctx)")
            out_v = builder.fresh("v")
            out_c = builder.fresh("c")
            builder.line(f"{out_v}, {out_c} = _col.c_select({values}, "
                         f"{counts}, {pred})")
            builder.record("select", f"len({out_v})")
            return out_v, out_c, distinct
        if isinstance(node, NestedLoopProduct):
            pv, pc, _ = self._emit_cols(builder, node.left)
            build = self._emit_dict(builder, node.right)
            out_v = builder.fresh("v")
            out_c = builder.fresh("c")
            builder.line(f"{out_v}, {out_c} = _col.c_product({pv}, "
                         f"{pc}, {build}, _tickof(ctx){self._srx})")
            builder.record("nested-loop-product", f"len({out_v})")
            return out_v, out_c, False
        if isinstance(node, HashJoin):
            if node.build_right:
                probe, build_node = node.left, node.right
                probe_key, build_key = node.left_key, node.right_key
                probe_is_left = True
            else:
                probe, build_node = node.right, node.left
                probe_key, build_key = node.right_key, node.left_key
                probe_is_left = False
            pv, pc, _ = self._emit_cols(builder, probe)
            build = self._emit_dict(builder, build_node)
            pk = builder.bind("pk", HashJoin._key_fn(probe_key))
            bk = builder.bind("bk", HashJoin._key_fn(build_key))
            out_v = builder.fresh("v")
            out_c = builder.fresh("c")
            builder.line(
                f"{out_v}, {out_c} = _col.c_hash_join({pv}, {pc}, "
                f"{build}, {pk}, {bk}, {probe_is_left}, _tickof(ctx)"
                f"{self._srx})")
            builder.record("hash-join", f"len({out_v})")
            return out_v, out_c, False
        # dict-native node (scan, const, monus, dedup, ...) or input:
        # decompose the dict into columns
        counts_var = self._emit_dict(builder, node)
        values = builder.fresh("v")
        counts = builder.fresh("c")
        builder.line(f"{values} = list({counts_var})")
        builder.line(f"{counts} = list({counts_var}.values())")
        return values, counts, True

    def _emit_values(self, builder: _SegmentBuilder,
                     node: PhysicalNode) -> str:
        """The value column (or dict, iterated as keys) of a node —
        all a dedup consumer needs."""
        node = self._resolve(node)
        if self._prefers_dict(node):
            return self._emit_dict(builder, node)
        if isinstance(node, MultiplicityScale):
            return self._emit_values(builder, node.child)
        if isinstance(node, HashUnion):
            # dedup(union): only the values matter, so skip the count
            # columns entirely (the sym-diff hot path)
            left = self._emit_values(builder, node.left)
            right = self._emit_values(builder, node.right)
            values = builder.fresh("v")
            builder.line(f"{values} = list({left})")
            builder.line(f"{values}.extend({right})")
            builder.record("additive-union", f"len({values})")
            return values
        values, _, _ = self._emit_cols(builder, node)
        return values

    def _emit_dedup_union(self, builder: _SegmentBuilder,
                          child: PhysicalNode) -> Optional[str]:
        """``eps(L (+) R)`` where one side is itself a dedup output:
        that side is already distinct with every count 1, so the
        result is a C-level dict merge — and when the base dict is a
        segment-owned kernel output (consumed exactly once inside the
        segment tree), the merge updates it in place, which turns an
        accumulate-and-dedup cascade into one growing dict."""
        child = self._resolve(child)
        if not isinstance(child, HashUnion):
            return None
        base, other = child.left, child.right
        if not self._all_ones(base):
            base, other = other, base
        if not self._all_ones(base):
            return None
        base_var = self._emit_dict(builder, base)
        values = self._emit_values(builder, other)
        if base_var in builder.owned:
            var = base_var
        else:
            var = builder.own(builder.fresh("d"))
            builder.line(f"{var} = dict({base_var})")
        one = "1" if self.semiring is None else "_one"
        builder.line(f"{var}.update(dict.fromkeys({values}, {one}))")
        builder.record("dedup-union", f"len({var})", var)
        return var

    def _all_ones(self, node: PhysicalNode) -> bool:
        """Whether every multiplicity in ``node``'s output is 1.

        Looks through SharedScan wrappers for the *check* only — a
        memoised input still arrives as a borrowed var, so the caller
        copies it before merging."""
        node = self._resolve(node)
        while isinstance(node, SharedScan):
            node = node.inner
        return isinstance(node, HashDedup)

    def _fold_scales(self, node: PhysicalNode
                     ) -> Tuple[int, PhysicalNode]:
        """Compose a chain of multiplicity scales into one factor —
        ``scale(scale(B, j), k) = scale(B, j*k)`` — so a union-doubling
        cascade costs one count-column pass instead of one per level."""
        factor = 1
        while isinstance(node, MultiplicityScale):
            factor *= node.factor
            node = self._resolve(node.child)
        return factor, node

    def _match_sym_diff(self, child: PhysicalNode
                        ) -> Optional[Tuple[PhysicalNode,
                                            PhysicalNode]]:
        """Match ``(A - B) (+) (B - A)`` under a dedup; returns
        ``(A, B)`` when both sides read the same two sources."""
        child = self._resolve(child)
        if not isinstance(child, HashUnion):
            return None
        left = self._resolve(child.left)
        right = self._resolve(child.right)
        if not (isinstance(left, HashDifference)
                and isinstance(right, HashDifference)):
            return None
        if (self._same_source(left.left, right.right)
                and self._same_source(left.right, right.left)):
            return left.left, left.right
        return None

    def _same_source(self, left: PhysicalNode,
                     right: PhysicalNode) -> bool:
        """Whether two subplans provably read the same bag: the same
        (CSE-shared) node object, or scans of the same binding."""
        left = self._resolve(left)
        right = self._resolve(right)
        if left is right:
            return True
        return (isinstance(left, ScanBag) and isinstance(right, ScanBag)
                and left.name == right.name)

    def _prefers_dict(self, node: PhysicalNode) -> bool:
        """Whether a node's cheapest output currency is a counts
        dict."""
        node = self._resolve(node)
        if not _fusable(node):
            return True  # segment inputs arrive as dicts
        if isinstance(node, _DICT_NATIVE):
            return True
        if isinstance(node, (MultiplicityScale, StreamingSelect)):
            return self._prefers_dict(node.child)
        return False


def _make_barrier_thunk(node: PhysicalNode) -> Callable:
    def thunk(ctx, node=node):
        ctx.stats.barrier_fallbacks += 1
        return ctx.collect(node)
    return thunk


def compile_codegen(plan: PhysicalPlan,
                    semiring=None) -> CodegenPlan:
    """Compile a lowered stream plan into fused columnar closures.

    ``semiring=None`` (N) emits byte-identical source to earlier
    revisions; a non-N instance specialises every kernel call with a
    ``_sr`` argument (cache keys include the semiring, so the two
    specialisations never collide in the plan cache).
    """
    compiler = _Compiler(_shared_refs(plan.root), semiring=semiring)
    root = compiler._resolve(plan.root)
    root_segment = None
    if _fusable(root):
        root_segment = compiler.compile_segment(root, "root")
    return CodegenPlan(plan, root_segment, compiler.segments,
                       compiler.barriers)
