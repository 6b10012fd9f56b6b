"""Plan-to-steps codegen: fuse physical pipelines into step programs.

The stream engine executes a lowered plan by pulling rows through one
generator per operator; every row pays Python-level dispatch at every
node.  This module compiles the same
:class:`~repro.engine.lower.PhysicalPlan` into a
:class:`CodegenPlan`: each maximal *fusable* region of the plan — the
select/map/scale/union chains plus the hash-style binary kernels —
becomes one *fused segment*, a straight line of columnar bulk kernel
calls (:mod:`repro.engine.columnar`).  No per-tuple interpreter
dispatch remains inside a segment; the raco pipeline compiler is the
exemplar shape (one unit per pipeline).

A segment is a **step program over registers**, built directly: one
pre-bound callable ``step(ctx, R)`` per kernel call, reading and
writing integer-numbered slots of the register file ``R``.  Nothing is
printed, ``compile()``d or ``exec``'d — a segment never was anything
but kernel calls, so the call list *is* the compiled form and a cold
plan pays one tree walk.  :meth:`FusedSegment.fn` runs the steps over
a fresh ``R`` per call (the thread backend runs one cached plan from
several workers at once); :attr:`FusedSegment.source` renders them as
a listing on demand.  Steps look kernels up on the module object when
they run (``columnar.c_monus(...)``), so kernel monkeypatching — the
mutation tests' probe — reaches a plan already in the plan cache.

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

The planner inserts this as the ``codegen`` stage (after ``lower``),
active at opt level 3 under ``engine="codegen"``; the stage
contributes its own plan-cache tag component, so fused plans never
collide with stream plans compiled from the same expression.
"""

from __future__ import annotations

import inspect
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

#: Node classes the compiler fuses; everything else is a barrier leaf.
_FUSABLE = (ScanBag, ConstSource, HashUnion, HashDifference,
            HashIntersect, HashMaxUnion, HashDedup, StreamingMap,
            StreamingSelect, MultiplicityScale, NestedLoopProduct,
            HashJoin)

#: Nodes whose natural output currency is a ``value -> count`` dict
#: (the rest produce parallel columns).
_DICT_NATIVE = (ScanBag, ConstSource, HashDifference, HashIntersect,
                HashMaxUnion, HashDedup)

#: The dict-in, dict-out binary nodes and the columnar kernel of each.
_DICT_KERNEL = {HashDifference: "c_monus",
                HashIntersect: "c_min_intersect",
                HashMaxUnion: "c_max_union",
                HashUnion: "c_add_union"}


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
# Runtime helpers shared by every step
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# The compiled artefacts
# ----------------------------------------------------------------------

class FusedSegment:
    """One step program: a barrier-free pipeline region.

    The compiler grows it (:meth:`reg`, :meth:`emit`), sets ``result``
    last, and nothing mutates it afterwards: one cached segment runs
    from several threads at once."""

    __slots__ = ("index", "role", "steps", "registers", "result",
                 "kernels", "inputs")

    def __init__(self, role: str):
        self.index = -1
        self.role = role
        self.steps: List[Callable[[Any, list], None]] = []
        self.registers = 0
        self.result = -1
        self.kernels: List[str] = []
        self.inputs: List[str] = []

    def reg(self) -> int:
        self.registers += 1
        return self.registers - 1

    def emit(self, step: Callable[[Any, list], None],
             kernel: Optional[str] = None, out: Optional[int] = None):
        """Append one step; ``kernel`` names what it records, and the
        register it fills is handed back for the caller to return."""
        self.steps.append(step)
        if kernel is not None:
            self.kernels.append(kernel)
        return out

    def fn(self, ctx) -> Dict[Any, int]:
        """One execution: the steps over a call-local register file."""
        ctx.stats.fused_segments += 1
        ctx.tick()
        R = [None] * self.registers
        for step in self.steps:
            step(ctx, R)
        return R[self.result]

    @property
    def source(self) -> str:
        """The steps as a listing, rendered on demand: a step's
        docstring says what it does to the registers (``;`` between
        lines) and is filled in from the cells the step closes over."""
        lines = [f"segment{self.index}(ctx):"]
        for step in self.steps:
            cells = inspect.getclosurevars(step).nonlocals
            if "sr" in cells:
                cells["sr"] = ", _sr" if cells["sr"] else ""
            text = (step.__doc__ or step.__name__).format(**cells)
            lines.extend(" ".join(text.split()).split("; "))
        lines.append(f"return r{self.result}")
        return "\n    ".join(lines) + "\n"

    def describe(self) -> str:
        parts = [f"segment {self.index} ({self.role}): "
                 f"kernels=[{', '.join(self.kernels)}]"]
        if self.inputs:
            parts.append(f"inputs=[{', '.join(self.inputs)}]")
        return "  ".join(parts)


class CodegenPlan:
    """A stream plan compiled into fused columnar step programs.

    Drop-in for :class:`~repro.engine.lower.PhysicalPlan` wherever the
    engine executes, caches, or renders a plan.  The plan is
    data-free — steps read bindings through the per-run
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
        segment's, or — for a root the compiler does not fuse — the
        stream nodes' that execute instead."""
        if self.root_segment is not None:
            return tuple(self.root_segment.kernels)
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
# The segment compiler
# ----------------------------------------------------------------------

class _Compiler:
    """Compiles one PhysicalPlan into fused segments + barrier leaves.

    ``semiring`` specialises the steps: with ``None`` (the N default)
    every kernel is called without a semiring argument at all — the
    fused int fast path pays nothing for the generalisation — while a
    non-N semiring binds the instance as the trailing ``_sr`` argument
    of each kernel call.
    """

    def __init__(self, refs: Dict[int, int], semiring) -> None:
        self.segments: List[FusedSegment] = []
        self.barriers: List[PhysicalNode] = []
        self._shared_thunks: Dict[int, Callable] = {}
        self._refs = refs
        #: ``(segment, register)`` of fresh kernel outputs the segment
        #: owns; scan views, consts, and memoised shared inputs are
        #: borrowed and must never be mutated in place
        self._owned: set = set()
        self.semiring = semiring
        #: splatted onto every columnar kernel call; empty under N
        self._sr = () if semiring is None else (semiring,)

    def _own(self, seg: FusedSegment, reg: int) -> int:
        self._owned.add((seg, reg))
        return reg

    def _resolve(self, node: PhysicalNode) -> PhysicalNode:
        """Fuse through SharedScans the plan reads only once."""
        while (isinstance(node, SharedScan)
               and self._refs.get(id(node), 0) <= 1):
            node = node.inner
        return node

    # -- segments ------------------------------------------------------

    def compile_segment(self, node: PhysicalNode,
                        role: str) -> FusedSegment:
        segment = FusedSegment(role)
        segment.result = self._emit_dict(segment, node)
        # numbered after the shared inner segments compiled on the way
        segment.index = len(self.segments)
        self.segments.append(segment)
        return segment

    # -- boundaries ----------------------------------------------------

    def _input_dict(self, seg: FusedSegment, node: PhysicalNode) -> int:
        """A segment input: a shared segment or a barrier leaf."""
        if isinstance(node, SharedScan):
            thunk = self._shared_thunks.get(id(node))
            if thunk is None:
                thunk = self._make_shared_thunk(node)
                self._shared_thunks[id(node)] = thunk
            seg.inputs.append(f"shared:{type(node.inner).__name__}")
        else:
            thunk = _make_barrier_thunk(node)
            self.barriers.append(node)
            seg.inputs.append(f"barrier:{node.kernel}")
        out = seg.reg()
        def step(ctx, R):
            "r{out} = <input>(ctx)"
            R[out] = thunk(ctx)
        return seg.emit(step, out=out)

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

    # -- recursive emission (a step's docstring is its listing line) ---

    def _emit_dict(self, seg: FusedSegment, node: PhysicalNode) -> int:
        """Emit ``node`` and return the register holding its counts
        dict."""
        node = self._resolve(node)
        if not _fusable(node):
            return self._input_dict(seg, node)
        sr = self._sr
        if isinstance(node, ScanBag):
            out, name = seg.reg(), node.name
            def step(ctx, R):
                """r{out} = _scan(ctx, {name!r})"""
                R[out] = counts = _scan(ctx, name)
                _record(ctx, "scan", len(counts))
            return seg.emit(step, "scan", out)
        if isinstance(node, ConstSource):
            value = node.value
            if self.semiring is not None:
                value = self.semiring.adapt_bag(value)
            out, const = seg.reg(), dict(value.items())
            def step(ctx, R):
                """r{out} = <const>"""
                R[out] = const
                _record(ctx, "const", len(const))
            return seg.emit(step, "const", out)
        call = _DICT_KERNEL.get(type(node))
        if call is not None:
            # monus / min-intersect (small, large) / max-union /
            # additive-union: two dicts in, one fresh dict out
            return self._emit_dict_binary(seg, call, node.kernel,
                                          node.left, node.right)
        if isinstance(node, HashDedup):
            pair = self._match_sym_diff(node.child)
            if pair is not None:
                # eps((A - B) (+) (B - A)): one candidate sweep over
                # the C-level key-set union instead of two monus
                # passes, a concatenation, and a dedup
                return self._own(seg, self._emit_dict_binary(
                    seg, "c_sym_diff_dedup", "sym-diff-dedup", *pair))
            merged = self._emit_dedup_union(seg, node.child)
            if merged is not None:
                return merged
            values = self._emit_values(seg, node.child)
            out = self._own(seg, seg.reg())
            def step(ctx, R):
                """r{out} = _col.c_dedup(r{values}{sr})"""
                R[out] = counts = columnar.c_dedup(R[values], *sr)
                _record(ctx, "dedup", len(counts), counts)
            return seg.emit(step, "dedup", out)
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            if self._prefers_dict(inner):
                child = self._emit_dict(seg, inner)
                out = seg.reg()
                def step(ctx, R):
                    """r{out} = _col.c_scale_dict(r{child},
                    {factor}{sr})"""
                    R[out] = counts = columnar.c_scale_dict(
                        R[child], factor, *sr)
                    _record(ctx, "scale", len(counts), counts)
                return seg.emit(step, "scale", out)
        # columns-native nodes (and scale over a columns child):
        # emit columns, then materialise
        values, cnts, distinct = self._emit_cols(seg, node)
        out = seg.reg()
        if distinct:
            def step(ctx, R):
                """r{out} = dict(zip(r{values}, r{cnts}))"""
                R[out] = counts = dict(zip(R[values], R[cnts]))
                ctx.check_size(counts)
        else:
            def step(ctx, R):
                """r{out} = _col.sum_counts(r{values}, r{cnts}{sr})"""
                R[out] = counts = columnar.sum_counts(
                    R[values], R[cnts], *sr)
                ctx.check_size(counts)
        return seg.emit(step, out=out)

    def _emit_dict_binary(self, seg: FusedSegment, call: str,
                          kernel: str, left_node: PhysicalNode,
                          right_node: PhysicalNode) -> int:
        """Two dicts in, one fresh dict out, recorded and sized; the
        kernel is looked up on the module at execution time."""
        left = self._emit_dict(seg, left_node)
        right = self._emit_dict(seg, right_node)
        out, sr = seg.reg(), self._sr
        def step(ctx, R):
            """r{out} = _col.{call}(r{left}, r{right}{sr})"""
            R[out] = counts = getattr(columnar, call)(R[left], R[right],
                                                      *sr)
            _record(ctx, kernel, len(counts), counts)
        return seg.emit(step, kernel, out)

    def _emit_cols(self, seg: FusedSegment, node: PhysicalNode
                   ) -> Tuple[int, int, bool]:
        """Emit ``node`` in column form; returns
        ``(values_reg, counts_reg, distinct)``."""
        node = self._resolve(node)
        sr = self._sr
        if isinstance(node, HashUnion):
            lv, lc, _ = self._emit_cols(seg, node.left)
            rv, rc, _ = self._emit_cols(seg, node.right)
            out_v, out_c = seg.reg(), seg.reg()
            def step(ctx, R):
                """r{out_v} = r{lv} + r{rv};
                r{out_c} = r{lc} + r{rc}"""
                R[out_v] = values = R[lv] + R[rv]
                R[out_c] = R[lc] + R[rc]
                _record(ctx, "additive-union", len(values))
            seg.emit(step, "additive-union")
            return out_v, out_c, False
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            values, cnts, distinct = self._emit_cols(seg, inner)
            out = seg.reg()
            def step(ctx, R):
                """r{out} = _col.c_scale(r{cnts}, {factor}{sr})"""
                R[out] = scaled = columnar.c_scale(R[cnts], factor, *sr)
                _record(ctx, "scale", len(scaled))
            seg.emit(step, "scale")
            return values, out, distinct
        if isinstance(node, StreamingMap):
            values, cnts, _ = self._emit_cols(seg, node.child)
            out, fn, lam = seg.reg(), node.fn, node.lam
            def step(ctx, R):
                "r{out} = _col.c_map(r{values}, <fn or lam via ctx>)"
                # an uncompiled lambda applies through the evaluator
                R[out] = mapped = columnar.c_map(
                    R[values], fn if fn is not None else
                    lambda value: ctx.apply_lambda(lam, value))
                _record(ctx, "map", len(mapped))
            seg.emit(step, "map")
            return out, cnts, False
        if isinstance(node, StreamingSelect):
            values, cnts, distinct = self._emit_cols(seg, node.child)
            out_v, out_c = seg.reg(), seg.reg()
            make = node.make_predicate
            def step(ctx, R):
                """r{out_v}, r{out_c} = _col.c_select(r{values},
                r{cnts}, <predicate>(ctx))"""
                R[out_v], R[out_c] = kept = columnar.c_select(
                    R[values], R[cnts], make(ctx))
                _record(ctx, "select", len(kept[0]))
            seg.emit(step, "select")
            return out_v, out_c, distinct
        if isinstance(node, NestedLoopProduct):
            pv, pc, _ = self._emit_cols(seg, node.left)
            build = self._emit_dict(seg, node.right)
            out_v, out_c = seg.reg(), seg.reg()
            def step(ctx, R):
                """r{out_v}, r{out_c} = _col.c_product(r{pv}, r{pc},
                r{build}, _tickof(ctx){sr})"""
                R[out_v], R[out_c] = pairs = columnar.c_product(
                    R[pv], R[pc], R[build], _tickof(ctx), *sr)
                _record(ctx, "nested-loop-product", len(pairs[0]))
            seg.emit(step, "nested-loop-product")
            return out_v, out_c, False
        if isinstance(node, HashJoin):
            sides = ((node.left, node.left_key),
                     (node.right, node.right_key))
            (probe, probe_key), (build_node, build_key) = (
                sides if node.build_right else sides[::-1])
            probe_is_left = node.build_right
            pv, pc, _ = self._emit_cols(seg, probe)
            build = self._emit_dict(seg, build_node)
            pk = HashJoin._key_fn(probe_key)
            bk = HashJoin._key_fn(build_key)
            out_v, out_c = seg.reg(), seg.reg()
            def step(ctx, R):
                """r{out_v}, r{out_c} = _col.c_hash_join(r{pv}, r{pc},
                r{build}, <probe key>, <build key>, {probe_is_left},
                _tickof(ctx){sr})"""
                R[out_v], R[out_c] = pairs = columnar.c_hash_join(
                    R[pv], R[pc], R[build], pk, bk, probe_is_left,
                    _tickof(ctx), *sr)
                _record(ctx, "hash-join", len(pairs[0]))
            seg.emit(step, "hash-join")
            return out_v, out_c, False
        # dict-native node (scan, const, monus, dedup, ...) or input:
        # decompose the dict into columns
        source = self._emit_dict(seg, node)
        out_v, out_c = seg.reg(), seg.reg()
        def step(ctx, R):
            """r{out_v} = list(r{source});
            r{out_c} = list(r{source}.values())"""
            counts = R[source]
            R[out_v] = list(counts)
            R[out_c] = list(counts.values())
        seg.emit(step)
        return out_v, out_c, True

    def _emit_values(self, seg: FusedSegment,
                     node: PhysicalNode) -> int:
        """The value column (or dict, iterated as keys) of a node —
        all a dedup consumer needs."""
        node = self._resolve(node)
        if self._prefers_dict(node):
            return self._emit_dict(seg, node)
        if isinstance(node, MultiplicityScale):
            return self._emit_values(seg, node.child)
        if isinstance(node, HashUnion):
            # dedup(union): only the values matter, so skip the count
            # columns entirely (the sym-diff hot path)
            left = self._emit_values(seg, node.left)
            right = self._emit_values(seg, node.right)
            out = seg.reg()
            def step(ctx, R):
                """r{out} = list(r{left});
                r{out}.extend(r{right})"""
                R[out] = values = list(R[left])
                values.extend(R[right])
                _record(ctx, "additive-union", len(values))
            return seg.emit(step, "additive-union", out)
        values, _, _ = self._emit_cols(seg, node)
        return values

    def _emit_dedup_union(self, seg: FusedSegment,
                          child: PhysicalNode) -> Optional[int]:
        """``eps(L (+) R)`` where one side is itself a dedup output:
        that side is already distinct with every count 1, so the
        result is a C-level dict merge — and when the base dict is a
        segment-owned kernel output (consumed exactly once inside the
        segment tree), the merge updates it in place, which turns an
        accumulate-and-dedup cascade into one growing dict."""
        child = self._resolve(child)
        if not isinstance(child, HashUnion):
            return None
        base_node, other = child.left, child.right
        if not self._all_ones(base_node):
            base_node, other = other, base_node
        if not self._all_ones(base_node):
            return None
        base = self._emit_dict(seg, base_node)
        values = self._emit_values(seg, other)
        in_place = (seg, base) in self._owned
        out = base if in_place else self._own(seg, seg.reg())
        one = 1 if self.semiring is None else self.semiring.one
        def step(ctx, R):
            """r{out} = r{base} if {in_place} else dict(r{base});
            r{out}.update(dict.fromkeys(r{values}, {one}))"""
            R[out] = counts = R[base] if in_place else dict(R[base])
            counts.update(dict.fromkeys(R[values], one))
            _record(ctx, "dedup-union", len(counts), counts)
        return seg.emit(step, "dedup-union", out)

    def _all_ones(self, node: PhysicalNode) -> bool:
        """Whether every multiplicity in ``node``'s output is 1.

        Looks through SharedScan wrappers for the *check* only — a
        memoised input still arrives in a borrowed register, so the
        caller copies it before merging."""
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
    """Compile a lowered stream plan into fused columnar segments.

    ``semiring=None`` (N) builds steps that pass no semiring argument
    at all; a non-N instance specialises every kernel call with a
    trailing ``_sr`` argument (cache keys include the semiring, so the
    two specialisations never collide in the plan cache).
    """
    compiler = _Compiler(_shared_refs(plan.root), semiring)
    root = compiler._resolve(plan.root)
    root_segment = None
    if _fusable(root):
        root_segment = compiler.compile_segment(root, "root")
    return CodegenPlan(plan, root_segment, compiler.segments,
                       compiler.barriers)
