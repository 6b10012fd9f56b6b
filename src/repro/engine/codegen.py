"""Plan-to-steps codegen: the one executable form of a lowered plan.

:func:`compile_codegen` turns the node tree of a
:class:`~repro.engine.lower.PhysicalPlan` into *fused segments*: each
is a straight line of kernel calls — the columnar bulk kernels of
:mod:`repro.engine.columnar` for the flat operators, the dict kernels
of :mod:`repro.engine.kernels` for nest / unnest / flatten / powerset /
powerbag, the tree walker for an oracle subtree, the worker pool for
an exchange.  No per-tuple interpreter dispatch remains between
operators; the raco pipeline compiler is the exemplar shape (one unit
per pipeline).  Every engine but the tree walker executes these
segments and nothing else.

A segment is a **step program over registers**, built directly: one
tuple ``(function, kernel, node, out, *operands)`` per kernel call,
over module-level step functions ``function(ctx, R, step)`` that read
and write integer-numbered slots of the register file ``R``.  Nothing
is printed, ``compile()``d or ``exec``'d, and a step costs a tuple,
not a closure — a plan cache full of small plans is mostly steps.
:meth:`FusedSegment.fn` runs the steps over a fresh ``R`` per call
(the thread backend runs one cached plan from several workers at
once); :attr:`FusedSegment.kernels` and :attr:`FusedSegment.source`
are read off the steps on demand.  Steps look kernels up on the
module object when they run (``columnar.c_monus(...)``), so kernel
monkeypatching — the mutation tests' probe — reaches a plan already
in the plan cache.

The one segment boundary is a :class:`~repro.engine.physical.
SharedScan` the plan reads **more than once**: the inner plan
compiles into its own segment, materialised once per run via
``ctx.memo``.  A ``SharedScan`` read once is *transparent* and fuses
straight through into the consuming segment.

One step covers two plan nodes: a rearrangement map (``picks`` on the
:class:`~repro.engine.physical.StreamingMap`, recognised at lowering)
directly on a product or a join runs *inside* that node's quadratic
kernel (:func:`_s_join_project`, ``picks=``), which sums every pair
under its picked item tuple instead of building the joined rows; the
step records both nodes as their two steps would have.  So does a
dedup on either (:func:`_s_join_dedup`): the kernel writes the
support into one dict and multiplies no count.

Every step ends in the same epilogue (:func:`_record`): kernel and row
counters, the node's actual rows, governor ticks in proportion to the
rows produced, and the intermediate-size budget on a materialised
dict.  ``EngineStats.fused_segments`` counts segment executions and
``EngineStats.barrier_fallbacks`` the steps that ran a dict kernel or
the oracle — ``:explain`` prints both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bag import Bag
from repro.core.errors import UnboundVariableError
from repro.engine import columnar, kernels
from repro.engine.physical import (
    ConstSource, FlattenBags, HashDedup, HashDifference, HashIntersect,
    HashJoin, HashMaxUnion, HashUnion, MultiplicityScale, NestBuild,
    NestedLoopProduct, OracleEval, PhysicalNode, PowersetExpand,
    ScanBag, SharedScan, StreamingMap, StreamingSelect, UnnestExpand,
)

__all__ = ["FusedSegment", "compile_codegen", "compile_node"]

#: Nodes whose natural output currency is parallel columns; scale and
#: select follow their child, everything else produces a
#: ``value -> count`` dict.
_COLUMNS_NATIVE = (HashUnion, StreamingMap, NestedLoopProduct, HashJoin)
_FOLLOWS_CHILD = (MultiplicityScale, StreamingSelect)

#: The dict-in, dict-out binary nodes and the columnar kernel of each.
_DICT_KERNEL = {HashDifference: "c_monus",
                HashIntersect: "c_min_intersect",
                HashMaxUnion: "c_max_union",
                HashUnion: "c_add_union"}

#: The walker's name of the operator behind each two-dict kernel: a
#: union-family type error names it (the fused ``eps((A - B) (+) (B -
#: A))`` checks ``A`` against ``B`` once, as ``A - B`` would).
_OPERATION = {"monus": "subtraction", "min-intersect": "intersection",
              "max-union": "maximal union",
              "additive-union": "additive union",
              "sym-diff-dedup": "subtraction"}

#: The quadratic nodes and the columnar kernel of each; a
#: rearrangement map directly on one fuses into that kernel call.
_PAIR_KERNEL = {HashJoin: "c_hash_join", NestedLoopProduct: "c_product"}

#: A step: ``(function, kernel, node, out, *operands)``.  ``kernel``
#: and ``node`` are what the epilogue records (``None`` for a step
#: that only changes a value's currency; a tuple of each for a fused
#: pair-kernel step, which records every node it covers); ``out`` is the
#: register the step fills (a column step fills two: positions 3 and
#: 4).
Step = Tuple[Any, ...]


# ----------------------------------------------------------------------
# Runtime helpers shared by every step
# ----------------------------------------------------------------------

def _record(ctx, step: Step, rows: int, counts=None) -> None:
    """Per-kernel epilogue: stats, the node's actual rows,
    proportional governor ticks, and the intermediate-size budget on
    materialised dicts."""
    stats = ctx.stats
    stats.record_kernel(step[1])
    stats.rows_emitted += rows
    ctx.actual_rows[id(step[2])] = rows
    if ctx.governor is not None:
        for _ in range(rows // ctx.tick_interval + 1):
            ctx.tick()
    if counts is not None:
        ctx.check_size(counts)


def _scan(ctx, name: str) -> Dict[Any, int]:
    """Base-relation scan straight into dictionary form.

    Returns the bag's internal counts dict *without copying*: every
    kernel builds a fresh output dict and never mutates an input, so
    handing out the view is safe and saves an O(n) copy per scan."""
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


def _key_fn(indices: Tuple[int, ...]) -> Callable[[Any], Any]:
    """A join side's key extractor."""
    if len(indices) == 1:
        index = indices[0]
        return lambda tup: tup.attribute(index)
    return lambda tup: tuple(tup.attribute(i) for i in indices)


def _collect(ctx, rows) -> Dict[Any, int]:
    """Sum a dict kernel's output stream, ticking inside the build so
    a long expansion meets its step budget or deadline mid-way."""
    if ctx.governor is None:
        return kernels.collect(rows, sr=ctx.semiring)
    return kernels.collect(rows, tick=ctx.tick, every=ctx.tick_interval,
                           get_every=lambda: ctx.tick_interval,
                           sr=ctx.semiring)


# ----------------------------------------------------------------------
# The step functions (a docstring is the step's listing line: ``{n}``
# is position ``n`` of the step tuple, ``;`` separates lines)
# ----------------------------------------------------------------------

def _s_scan(ctx, R, step):
    """r{3} = _scan(ctx, {4!r})"""
    _, _, _, out, name = step
    R[out] = counts = _scan(ctx, name)
    _record(ctx, step, len(counts))


def _s_const(ctx, R, step):
    """r{3} = <const>"""
    _, _, _, out, const = step
    R[out] = const
    _record(ctx, step, len(const))


def _s_same_type(ctx, R, step):
    """_col.require_same_type(r{4}, r{5}, {6!r})"""
    # only in a plan the checker did not prove: the walker's check on
    # two operands, before the step that consumes both
    _, _, _, _, left, right, operation, swapped = step
    columnar.require_same_type(R[left], R[right], operation, swapped)


def _s_dict_binary(ctx, R, step):
    """r{3} = _col.{6}(r{4}, r{5}{sr})"""
    # monus / min-intersect (small, large) / max-union / additive-union
    # / sym-diff-dedup: two dicts in, one fresh dict out
    _, _, _, out, left, right, call, sr = step
    R[out] = counts = getattr(columnar, call)(R[left], R[right], *sr)
    _record(ctx, step, len(counts), counts)


def _s_dedup(ctx, R, step):
    """r{3} = _col.c_dedup(r{4}{sr})"""
    _, _, _, out, values, sr = step
    R[out] = counts = columnar.c_dedup(R[values], *sr)
    _record(ctx, step, len(counts), counts)


def _s_dedup_union(ctx, R, step):
    """r{3} = r{4} if {6} else dict(r{4});
    r{3}.update(dict.fromkeys(r{5}, {7}))"""
    _, _, _, out, base, values, in_place, one = step
    R[out] = counts = R[base] if in_place else dict(R[base])
    counts.update(dict.fromkeys(R[values], one))
    _record(ctx, step, len(counts), counts)


def _s_scale_dict(ctx, R, step):
    """r{3} = _col.c_scale_dict(r{4}, {5}{sr})"""
    _, _, _, out, child, factor, sr = step
    R[out] = counts = columnar.c_scale_dict(R[child], factor, *sr)
    _record(ctx, step, len(counts), counts)


def _s_zip(ctx, R, step):
    """r{3} = dict(zip(r{4}, r{5}))"""
    _, _, _, out, values, cnts = step
    R[out] = counts = dict(zip(R[values], R[cnts]))
    ctx.check_size(counts)


def _s_sum(ctx, R, step):
    """r{3} = _col.sum_counts(r{4}, r{5}{sr})"""
    _, _, _, out, values, cnts, sr = step
    R[out] = counts = columnar.sum_counts(R[values], R[cnts], *sr)
    ctx.check_size(counts)


def _s_split(ctx, R, step):
    """r{3} = list(r{5});
    r{4} = list(r{5}.values())"""
    _, _, _, out_v, out_c, source = step
    counts = R[source]
    R[out_v] = list(counts)
    R[out_c] = list(counts.values())


def _s_concat(ctx, R, step):
    """r{3} = r{5} + r{6};
    r{4} = r{7} + r{8}"""
    _, _, _, out_v, out_c, lv, rv, lc, rc = step
    R[out_v] = values = R[lv] + R[rv]
    R[out_c] = R[lc] + R[rc]
    _record(ctx, step, len(values))


def _s_concat_values(ctx, R, step):
    """r{3} = list(r{4});
    r{3}.extend(r{5})"""
    _, _, _, out, left, right = step
    R[out] = values = list(R[left])
    values.extend(R[right])
    _record(ctx, step, len(values))


def _s_scale(ctx, R, step):
    """r{3} = _col.c_scale(r{4}, {5}{sr})"""
    _, _, _, out, cnts, factor, sr = step
    R[out] = scaled = columnar.c_scale(R[cnts], factor, *sr)
    _record(ctx, step, len(scaled))


def _s_map(ctx, R, step):
    """r{3} = _col.c_map(r{4}, <fn or lam via ctx>)"""
    _, _, node, out, values, fn, lam = step
    if fn is None:
        # an uncompiled lambda applies through the evaluator, its
        # closed sub-terms evaluated once (on the first row)
        apply = ctx.lambda_applier(node.invariants)

        def fn(value):
            return apply(lam, value)
    R[out] = mapped = columnar.c_map(R[values], fn)
    _record(ctx, step, len(mapped))


def _s_select(ctx, R, step):
    """r{3}, r{4} = _col.c_select(r{5}, r{6}, <predicate>(ctx))"""
    _, _, _, out_v, out_c, values, cnts, make = step
    R[out_v], R[out_c] = kept = columnar.c_select(
        R[values], R[cnts], make(ctx))
    _record(ctx, step, len(kept[0]))


def _s_product(ctx, R, step):
    """r{3}, r{4} = _col.c_product(r{5}, r{6}, r{7},
    _tickof(ctx){sr})"""
    _, _, _, out_v, out_c, pv, pc, build, sr = step
    R[out_v], R[out_c] = pairs = columnar.c_product(
        R[pv], R[pc], R[build], _tickof(ctx), *sr)
    _record(ctx, step, len(pairs[0]))


def _s_hash_join(ctx, R, step):
    """r{3}, r{4} = _col.c_hash_join(r{5}, r{6}, r{7}, <probe key>,
    <build key>, {10}, _tickof(ctx){sr})"""
    (_, _, _, out_v, out_c, pv, pc, build, probe_key, build_key,
     probe_is_left, sr) = step
    R[out_v], R[out_c] = pairs = columnar.c_hash_join(
        R[pv], R[pc], R[build], probe_key, build_key, probe_is_left,
        _tickof(ctx), *sr)
    _record(ctx, step, len(pairs[0]))


def _s_join_project(ctx, R, step):
    """r{3} = _col.{7}(r{4}, r{5}, r{6}, ..., _tickof(ctx){sr},
    picks={9})  # {fused}"""
    # pi over a product / join in the one kernel call: the pairs are
    # summed under their picked item tuples and never built, and both
    # plan nodes are recorded as their two steps would have been
    (_, names, nodes, out, pv, pc, build, call, keys, picks, sized,
     sr) = step
    counts, pairs = getattr(columnar, call)(
        R[pv], R[pc], R[build], *keys, _tickof(ctx), *sr, picks=picks)
    R[out] = counts
    for name, node in zip(names, nodes):
        _record(ctx, (None, name, node), pairs)
    if sized:
        ctx.check_size(counts)


def _s_join_dedup(ctx, R, step):
    """r{3} = _col.{6}(r{4}, None, r{5}, ..., _tickof(ctx){sr},
    picks={8}, dedup=True)  # {fused}"""
    # eps over a product / join (or pi on one) in one kernel call that
    # reads no count; each node is recorded as its own step was
    _, names, nodes, out, pv, build, call, keys, picks, sr = step
    counts, pairs = getattr(columnar, call)(
        R[pv], None, R[build], *keys, _tickof(ctx), *sr, picks=picks,
        dedup=True)
    R[out] = counts
    for name, node in zip(names[:-1], nodes[:-1]):
        _record(ctx, (None, name, node), pairs)
    _record(ctx, (None, names[-1], nodes[-1]), len(counts), counts)


def _s_shared(ctx, R, step):
    """r{3} = <shared>(ctx)"""
    _, _, node, out, inner = step
    counts = ctx.memo.get(id(node))
    if counts is None:
        counts = ctx.memo[id(node)] = inner.fn(ctx)
        ctx.stats.shared_materialized += 1
    else:
        ctx.stats.shared_reused += 1
    R[out] = counts


def _s_dict_kernel(ctx, R, step):
    """r{3} = _collect(ctx, _k.{5}(r{4}, *{6}{sr}))"""
    # nest / unnest / flatten: no columnar twin, so the dict kernel
    _, _, _, out, child, call, args, sr = step
    ctx.stats.barrier_fallbacks += 1
    R[out] = counts = _collect(
        ctx, getattr(kernels, call)(R[child], *args, *sr))
    _record(ctx, step, len(counts), counts)


def _s_powerset(ctx, R, step):
    """r{3} = _collect(ctx, _k.{5}(r{4}, ctx.powerset_budget{sr}))"""
    # the kernel checks the run's budget before the first subbag
    _, _, _, out, child, call, sr = step
    ctx.stats.barrier_fallbacks += 1
    R[out] = counts = _collect(
        ctx, getattr(kernels, call)(R[child], ctx.powerset_budget, *sr))
    _record(ctx, step, len(counts), counts)


def _s_oracle(ctx, R, step):
    """r{3} = ctx.eval_oracle(<expr>)"""
    _, _, _, out, expr, at_root = step
    ctx.stats.barrier_fallbacks += 1
    result = ctx.eval_oracle(expr)
    if not at_root:
        if not isinstance(result, Bag):
            raise UnboundVariableError(
                f"oracle subtree produced a non-bag "
                f"{type(result).__name__} in bag position")
        result = result._counts
    # at the plan's root the oracle's value — possibly a tuple or an
    # atom — passes through as is: PhysicalPlan.execute hands back
    # whatever is not a counts dict
    R[out] = result
    _record(ctx, step, len(result) if type(result) is dict
            else getattr(result, "distinct_count", 1))


def _s_exchange(ctx, R, step):
    """r{3} = <exchange>(r{4})"""
    _, _, node, out, inputs = step
    ctx.stats.gather_barriers += 1
    R[out] = merged = node.run(ctx, [R[reg] for reg in inputs])
    _record(ctx, step, len(merged))


# ----------------------------------------------------------------------
# The compiled artefact
# ----------------------------------------------------------------------

class FusedSegment:
    """One step program.

    The compiler grows it (:meth:`reg`, :meth:`emit`), sets ``result``
    last, and nothing mutates it afterwards: one cached segment runs
    from several threads at once."""

    __slots__ = ("index", "role", "steps", "registers", "result", "sr")

    def __init__(self, role: str, sr: tuple):
        self.index = -1
        self.role = role
        self.steps: List[Step] = []
        self.registers = 0
        self.result = -1
        #: splatted onto every semiring-aware kernel call; ``()``
        #: under N, so the int fast path passes no argument at all
        self.sr = sr

    def reg(self) -> int:
        self.registers += 1
        return self.registers - 1

    def emit(self, *step) -> int:
        """Append one step; the register it fills is handed back."""
        self.steps.append(step)
        return step[3]

    def fn(self, ctx) -> Dict[Any, int]:
        """One execution: the steps over a call-local register file."""
        ctx.stats.fused_segments += 1
        ctx.tick()
        R = [None] * self.registers
        for step in self.steps:
            step[0](ctx, R, step)
        return R[self.result]

    @property
    def kernels(self) -> List[str]:
        """The kernels one execution records, in step order."""
        names: List[str] = []
        for step in self.steps:
            if type(step[1]) is tuple:  # a fused pair-kernel step
                names.extend(step[1])
            elif step[1] is not None:
                names.append(step[1])
        return names

    @property
    def inputs(self) -> List[str]:
        """The shared segments this one reads."""
        return [f"shared:{type(step[2].inner).__name__}"
                for step in self.steps if step[0] is _s_shared]

    @property
    def source(self) -> str:
        """The steps as a listing, rendered on demand from the step
        functions' docstrings."""
        sr = ", _sr" if self.sr else ""
        lines = [f"segment{self.index}(ctx):"]
        for step in self.steps:
            fused = (" + ".join(step[1]) if type(step[1]) is tuple
                     else "")
            text = step[0].__doc__.format(*step, sr=sr, fused=fused)
            lines.extend(" ".join(text.split()).split("; "))
        lines.append(f"return r{self.result}")
        return "\n    ".join(lines) + "\n"

    def describe(self) -> str:
        parts = [f"segment {self.index} ({self.role}): "
                 f"kernels=[{', '.join(self.kernels)}]"]
        inputs = self.inputs
        if inputs:
            parts.append(f"inputs=[{', '.join(inputs)}]")
        return "  ".join(parts)


# ----------------------------------------------------------------------
# The segment compiler
# ----------------------------------------------------------------------

class _Compiler:
    """Compiles a node tree into fused segments.

    ``semiring`` specialises the steps: with ``None`` (the N default)
    every kernel is called without a semiring argument at all — the
    fused int fast path pays nothing for the generalisation — while a
    non-N semiring binds the instance as the trailing ``_sr`` argument
    of each kernel call.  ``checked`` (a plan the checker did not
    prove) puts a :func:`_s_same_type` step before every step that
    consumes both operands of a union-family node.
    """

    def __init__(self, semiring, root: Optional[PhysicalNode] = None,
                 checked: bool = True) -> None:
        self.segments: List[FusedSegment] = []
        self._shared: Dict[int, FusedSegment] = {}
        #: ``(segment, register)`` of fresh kernel outputs the segment
        #: owns; scan views, consts, and memoised shared inputs are
        #: borrowed and must never be mutated in place
        self._owned: set = set()
        self.semiring = semiring
        self._sr = () if semiring is None else (semiring,)
        #: the plan's root node, where an oracle may yield a non-bag
        self._root = root
        self.checked = checked

    def _own(self, seg: FusedSegment, reg: int) -> int:
        self._owned.add((seg, reg))
        return reg

    def _check(self, seg: FusedSegment, node: PhysicalNode, left: int,
               right: int, operation: str, swapped: bool = False) -> None:
        """The union-family type check on two operand registers, where
        the plan is not proven."""
        if self.checked:
            seg.emit(_s_same_type, None, node, None, left, right,
                     operation, swapped)

    @staticmethod
    def _resolve(node: PhysicalNode) -> PhysicalNode:
        """Fuse through SharedScans the plan reads only once."""
        while isinstance(node, SharedScan) and node.refs <= 1:
            node = node.inner
        return node

    # -- segments ------------------------------------------------------

    def compile_segment(self, node: PhysicalNode,
                        role: str) -> FusedSegment:
        segment = FusedSegment(role, self._sr)
        segment.result = self._emit_dict(segment, node)
        segment.steps = tuple(segment.steps)
        # numbered after the shared inner segments compiled on the way
        segment.index = len(self.segments)
        self.segments.append(segment)
        return segment

    # -- recursive emission --------------------------------------------

    def _emit_dict(self, seg: FusedSegment, node: PhysicalNode,
                   sized: bool = True) -> int:
        """Emit ``node`` and return the register holding its counts
        dict.  ``sized=False`` is a consumer that reads the dict as
        columns: a fused join-project step then skips the size check,
        as the map's unmaterialised columns always did."""
        node = self._resolve(node)
        sr = self._sr
        if isinstance(node, SharedScan):
            inner = self._shared.get(id(node))
            if inner is None:
                inner = self._shared[id(node)] = self.compile_segment(
                    node.inner, "shared")
            return seg.emit(_s_shared, None, node, seg.reg(), inner)
        if isinstance(node, ScanBag):
            return seg.emit(_s_scan, "scan", node, seg.reg(), node.name)
        if isinstance(node, ConstSource):
            value = node.value
            if self.semiring is not None:
                value = self.semiring.adapt_bag(value)
            # the literal's own dict, uncopied: a borrowed register
            return seg.emit(_s_const, "const", node, seg.reg(),
                            value._counts)
        call = _DICT_KERNEL.get(type(node))
        if call is not None:
            return self._emit_dict_binary(seg, call, node.kernel, node,
                                          node.left, node.right)
        if isinstance(node, HashDedup):
            pair = self._match_sym_diff(node.child)
            if pair is not None:
                # eps((A - B) (+) (B - A)): one candidate sweep over
                # the C-level key-set union instead of two monus
                # passes, a concatenation, and a dedup
                return self._own(seg, self._emit_dict_binary(
                    seg, "c_sym_diff_dedup", "sym-diff-dedup", node,
                    *pair))
            merged = self._emit_dedup_union(seg, node)
            if merged is not None:
                return merged
            covered = self._deduped_pairs(node)
            if covered is not None:
                join = covered[0]
                picks = covered[1].picks if len(covered) == 3 else None
                pv, _, build, keys = self._emit_join_sides(
                    seg, join, counts=False)
                return seg.emit(
                    _s_join_dedup, tuple(n.kernel for n in covered),
                    covered, self._own(seg, seg.reg()), pv, build,
                    _PAIR_KERNEL[type(join)], keys, picks, sr)
            values = self._emit_values(seg, node.child)
            return seg.emit(_s_dedup, "dedup", node,
                            self._own(seg, seg.reg()), values, sr)
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            if self._prefers_dict(inner):
                # the scaled dict is the one sized, as it always was
                child = self._emit_dict(seg, inner, sized=False)
                return seg.emit(_s_scale_dict, "scale", node, seg.reg(),
                                child, factor, sr)
        join = self._projected_join(node)
        if join is not None:
            pv, pc, build, keys = self._emit_join_sides(seg, join)
            return seg.emit(_s_join_project, (join.kernel, node.kernel),
                            (join, node), self._own(seg, seg.reg()),
                            pv, pc, build, _PAIR_KERNEL[type(join)],
                            keys, node.picks, sized, sr)
        if isinstance(node, _FOLLOWS_CHILD + _COLUMNS_NATIVE):
            # columns-native nodes (and scale / select over a columns
            # child): emit columns, then materialise
            values, cnts, distinct = self._emit_cols(seg, node)
            if distinct:
                return seg.emit(_s_zip, None, None, seg.reg(), values,
                                cnts)
            return seg.emit(_s_sum, None, None, seg.reg(), values, cnts,
                            sr)
        return self._emit_twinless(seg, node)

    def _emit_twinless(self, seg: FusedSegment,
                       node: PhysicalNode) -> int:
        """The operators with no columnar kernel: the child lands in a
        register like any other and one step runs the dict kernel, the
        oracle, or the exchange."""
        sr = self._sr
        if isinstance(node, OracleEval):
            return seg.emit(_s_oracle, "oracle", node, seg.reg(),
                            node.expr, node is self._root)
        if isinstance(node, (PowersetExpand, NestBuild, UnnestExpand,
                             FlattenBags)):
            child = self._emit_dict(seg, node.child)
            out = self._own(seg, seg.reg())
            if isinstance(node, PowersetExpand):
                call = ("k_powerbag" if node.duplicate_aware
                        else "k_powerset")
                return seg.emit(_s_powerset, node.kernel, node, out,
                                child, call, sr)
            if isinstance(node, NestBuild):
                call, args = "k_nest", (node.indices,)
            elif isinstance(node, UnnestExpand):
                call, args = "k_unnest", (node.index,)
            else:
                call, args = "k_flatten", ()
            return seg.emit(_s_dict_kernel, node.kernel, node, out,
                            child, call, args, sr)
        # imported here: the exchange module builds on this one
        from repro.engine.parallel.exchange import (
            Exchange, Gather, Partition,
        )
        if isinstance(node, (Gather, Partition)):
            # markers around an exchange, which does the split (and
            # counts the gather barrier): no step of their own
            return self._emit_dict(seg, node.child)
        if isinstance(node, Exchange):
            inputs = tuple(self._emit_dict(seg, part)
                           for part in node.partitions)
            return seg.emit(_s_exchange, node.kernel, node, seg.reg(),
                            inputs)
        raise TypeError(f"no step for plan node {type(node).__name__}")

    def _emit_dict_binary(self, seg: FusedSegment, call: str,
                          kernel: str, node: PhysicalNode,
                          left_node: PhysicalNode,
                          right_node: PhysicalNode) -> int:
        """Two dicts in, one fresh dict out, recorded and sized; the
        kernel is looked up on the module at execution time."""
        left = self._emit_dict(seg, left_node)
        right = self._emit_dict(seg, right_node)
        self._check(seg, node, left, right, _OPERATION[kernel],
                    isinstance(node, HashIntersect) and node.swapped)
        return seg.emit(_s_dict_binary, kernel, node, seg.reg(), left,
                        right, call, self._sr)

    def _emit_cols(self, seg: FusedSegment, node: PhysicalNode
                   ) -> Tuple[int, int, bool]:
        """Emit ``node`` in column form; returns
        ``(values_reg, counts_reg, distinct)``."""
        node = self._resolve(node)
        sr = self._sr
        if isinstance(node, HashUnion):
            lv, lc, _ = self._emit_cols(seg, node.left)
            rv, rc, _ = self._emit_cols(seg, node.right)
            self._check(seg, node, lv, rv, "additive union")
            out_v, out_c = seg.reg(), seg.reg()
            seg.emit(_s_concat, "additive-union", node, out_v, out_c,
                     lv, rv, lc, rc)
            return out_v, out_c, False
        if isinstance(node, MultiplicityScale):
            factor, inner = self._fold_scales(node)
            values, cnts, distinct = self._emit_cols(seg, inner)
            out = seg.emit(_s_scale, "scale", node, seg.reg(), cnts,
                           factor, sr)
            return values, out, distinct
        if (isinstance(node, StreamingMap)
                and self._projected_join(node) is None):
            values, cnts, _ = self._emit_cols(seg, node.child)
            out = seg.emit(_s_map, "map", node, seg.reg(), values,
                           node.fn, node.lam)
            return out, cnts, False
        if isinstance(node, StreamingSelect):
            values, cnts, distinct = self._emit_cols(seg, node.child)
            out_v, out_c = seg.reg(), seg.reg()
            seg.emit(_s_select, "select", node, out_v, out_c, values,
                     cnts, node.make_predicate)
            return out_v, out_c, distinct
        if isinstance(node, (NestedLoopProduct, HashJoin)):
            pv, pc, build, keys = self._emit_join_sides(seg, node)
            out_v, out_c = seg.reg(), seg.reg()
            seg.emit(_s_hash_join if keys else _s_product, node.kernel,
                     node, out_v, out_c, pv, pc, build, *keys, sr)
            return out_v, out_c, False
        # a dict-producing node: decompose the dict into columns
        source = self._emit_dict(seg, node, sized=False)
        out_v, out_c = seg.reg(), seg.reg()
        seg.emit(_s_split, None, None, out_v, out_c, source)
        return out_v, out_c, True

    def _emit_join_sides(self, seg: FusedSegment, node: PhysicalNode,
                         counts: bool = True
                         ) -> Tuple[int, Optional[int], int, tuple]:
        """Emit a product's or join's inputs: ``(probe values, probe
        counts, build dict, the kernel's key arguments)`` — the keys
        are ``()`` for a product; ``counts=False`` emits no counts."""
        probe, build_node, keys = node.left, node.right, ()
        if isinstance(node, HashJoin):
            probe_key, build_key = node.left_key, node.right_key
            if not node.build_right:
                probe, build_node = build_node, probe
                probe_key, build_key = build_key, probe_key
            keys = (_key_fn(probe_key), _key_fn(build_key),
                    node.build_right)
        if counts:
            pv, pc, _ = self._emit_cols(seg, probe)
        else:
            pv, pc = self._emit_values(seg, probe), None
        return pv, pc, self._emit_dict(seg, build_node), keys

    def _projected_join(self, node: PhysicalNode
                        ) -> Optional[PhysicalNode]:
        """The product or join that ``node`` — a rearrangement map —
        sits directly on (through SharedScans read once), which the
        builder fuses with it into one kernel call; else ``None``."""
        if isinstance(node, StreamingMap) and node.picks is not None:
            child = self._resolve(node.child)
            if isinstance(child, (HashJoin, NestedLoopProduct)):
                return child
        return None

    def _deduped_pairs(self, dedup: HashDedup
                       ) -> Optional[Tuple[PhysicalNode, ...]]:
        """The nodes one fused join-dedup step covers, join first and
        ``dedup`` last, when it sits on a product or join or on a
        rearrangement map on one (the ``_projected_join`` rule)."""
        child = self._resolve(dedup.child)
        join = self._projected_join(child)
        if join is not None:
            return join, child, dedup
        if isinstance(child, (HashJoin, NestedLoopProduct)):
            return child, dedup
        return None

    def _emit_values(self, seg: FusedSegment,
                     node: PhysicalNode) -> int:
        """The value column (or dict, iterated as keys) of a node —
        all a dedup consumer needs."""
        node = self._resolve(node)
        if self._prefers_dict(node):
            return self._emit_dict(seg, node, sized=False)
        if isinstance(node, MultiplicityScale):
            return self._emit_values(seg, node.child)
        if isinstance(node, HashUnion):
            # dedup(union): only the values matter, so skip the count
            # columns entirely (the sym-diff hot path)
            left = self._emit_values(seg, node.left)
            right = self._emit_values(seg, node.right)
            self._check(seg, node, left, right, "additive union")
            return seg.emit(_s_concat_values, "additive-union", node,
                            seg.reg(), left, right)
        values, _, _ = self._emit_cols(seg, node)
        return values

    def _emit_dedup_union(self, seg: FusedSegment,
                          dedup: HashDedup) -> Optional[int]:
        """``eps(L (+) R)`` where one side is itself a dedup output:
        that side is already distinct with every count 1, so the
        result is a C-level dict merge — and when the base dict is a
        segment-owned kernel output (consumed exactly once inside the
        segment tree), the merge updates it in place, which turns an
        accumulate-and-dedup cascade into one growing dict."""
        child = self._resolve(dedup.child)
        if not isinstance(child, HashUnion):
            return None
        base_node, other = child.left, child.right
        swapped = not self._all_ones(base_node)
        if swapped:
            base_node, other = other, base_node
        if not self._all_ones(base_node):
            return None
        base = self._emit_dict(seg, base_node)
        values = self._emit_values(seg, other)
        self._check(seg, child, base, values, "additive union", swapped)
        in_place = (seg, base) in self._owned
        out = base if in_place else self._own(seg, seg.reg())
        one = 1 if self.semiring is None else self.semiring.one
        return seg.emit(_s_dedup_union, "dedup-union", dedup, out, base,
                        values, in_place, one)

    def _all_ones(self, node: PhysicalNode) -> bool:
        """Whether every multiplicity in ``node``'s output is 1.

        Looks through SharedScan wrappers for the *check* only — a
        memoised input still arrives in a borrowed register, so the
        caller copies it before merging."""
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
        if isinstance(node, _FOLLOWS_CHILD):
            return self._prefers_dict(node.child)
        return (not isinstance(node, _COLUMNS_NATIVE)
                or self._projected_join(node) is not None)


def compile_node(node: PhysicalNode, semiring=None) -> FusedSegment:
    """The step program of one node tree (``ExecContext.collect``
    runs a plan fragment this way)."""
    return _Compiler(semiring).compile_segment(node, "root")


def compile_codegen(plan, semiring=None):
    """Build the lowered plan's step programs, in place, and hand the
    plan back.

    ``semiring=None`` (N) builds steps that pass no semiring argument
    at all; a non-N instance specialises every kernel call with a
    trailing ``_sr`` argument (cache keys include the semiring, so the
    two specialisations never collide in the plan cache).
    """
    compiler = _Compiler(semiring, _Compiler._resolve(plan.root),
                         checked=not plan.proven)
    plan.root_segment = compiler.compile_segment(plan.root, "root")
    plan.segments = tuple(compiler.segments)
    return plan
