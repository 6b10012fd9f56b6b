"""Hash partitioning, the segment recogniser, and shard execution.

The bag operators of the paper distribute over a *hash partition of
the value space*: for any deterministic shard function ``s(v)``, all
copies of a value ``v`` — in every operand — land in the same shard,
so monus, min-intersection, max-union, dedup, scaling, and selection
compute their exact per-value multiplicities shard-locally, and the
gather step is a plain count merge.  (This is the semiring view of
multiplicities made operational: each shard carries a sub-semimodule
of the bag, and the partition-compatible operators are module
homomorphisms.)  Two operators consume the *choice* of shard function
instead of merely preserving it:

* hash join — both sides must be partitioned by their join key;
* nest — the input must be partitioned by the group key (the
  complement of the nested attributes).

Everything else (powerset, powerbag, flatten, unnest, oracle
fallbacks) forces a gather barrier: those subtrees are materialised
once, serially, and become partitioned *inputs* of the segment.

A shard therefore needs no compiler of its own: it is the serial fused
segment run on a slice.  Workers are shipped a :class:`SegmentProgram`
— the segment's own logical expression over slot variables — lower and
fuse it **once** through ``lower`` → ``compile_codegen``
(:func:`compiled_segment_for`, cached per worker on the planner's pass
tag plus the program), and :func:`execute_program` runs the fused root
segment with the shard dicts bound to the slots.

:data:`PARTITION_COMPAT` is the compatibility table the docs and the
lowering pass share; :func:`compile_parallel_segment` recognises a
partition-compatible expression root and names its leaves and their
partition keys, or returns ``None`` (the lowering pass then recurses
and retries on the children).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.eval import Evaluator
from repro.core.expr import (
    AdditiveUnion, Cartesian, Dedup, Expr, Intersection, Map, MaxUnion,
    Select, Subtraction, Var,
)
from repro.core.nest import Nest
from repro.core.typecheck import static_types
from repro.core.types import Type, element_arity
from repro.engine.codegen import compile_codegen
from repro.engine.lower import (
    PhysicalPlan, compile_object_lambda, compile_predicate,
    equi_join_keys, lower,
)
from repro.engine.physical import ExecContext

__all__ = [
    "PARTITION_COMPAT", "ParallelPolicy", "ParallelSegment", "LeafSpec",
    "SegmentProgram", "split_counts", "merge_counts",
    "execute_program", "compile_parallel_segment",
    "compiled_segment_for", "clear_segment_cache", "segment_cache_len",
]

#: Kernel name -> how it behaves under a hash partition of the value
#: space.  ``local`` runs shard-local under any value partition;
#: ``key-local`` runs shard-local only when the inputs are partitioned
#: on the operator's key (join key / group key); ``root-local`` runs
#: shard-local but destroys value-disjointness, so it is admitted only
#: as the last step before the gather; ``barrier`` forces a gather —
#: the subtree is materialised serially and partitioned as an input.
PARTITION_COMPAT: Dict[str, str] = {
    "scan": "local",
    "const": "local",
    "additive-union": "local",
    "monus": "local",
    "min-intersect": "local",
    "max-union": "local",
    "dedup": "local",
    "scale": "local",
    "select": "local",
    "map": "root-local",
    "hash-join": "key-local",
    "nest-build": "key-local",
    "flatten": "barrier",
    "unnest": "barrier",
    "powerset": "barrier",
    "powerbag": "barrier",
    "nested-loop-product": "barrier",
    "oracle": "barrier",
    "shared": "barrier",
}


@dataclass(frozen=True)
class ParallelPolicy:
    """Plan-time knobs of the parallelism pass.

    ``threshold`` is the minimum *estimated total input cardinality*
    (summed over the segment's leaves) below which the pass refuses to
    insert an exchange — fanning out a few hundred rows costs more
    than it saves.  A threshold of ``0`` forces exchanges wherever a
    segment compiles (the differential harness uses this to fuzz the
    partition machinery on tiny bags).
    """

    threshold: float = 1024.0


@dataclass
class LeafSpec:
    """One segment input: the subtree feeding the slot, the partition
    key (attribute indices; ``None`` = whole-value hash), and the
    subtree's static type when the checker typed it."""

    expr: Expr
    key: Optional[Tuple[int, ...]] = None
    type: Optional[Type] = None


@dataclass(frozen=True)
class SegmentProgram:
    """What an exchange ships to its workers: the segment's logical
    expression over the slot variables ``$0..$n-1`` (hashable,
    picklable) and the static type of each slot (``None`` = unknown).
    The types ride along so the worker proves the program as the
    planner proved the plan: its union-family steps then run no type
    check, and its lowering fuses ``sigma(L x R)`` into a hash join,
    which needs the left arity to split the attribute positions —
    without it a join segment degrades to select-over-product."""

    expr: Expr
    types: Tuple[Optional[Type], ...]

    def schema(self) -> Dict[str, Type]:
        return {_slot_name(slot): typ
                for slot, typ in enumerate(self.types)
                if typ is not None}


def _slot_name(slot: int) -> str:
    return f"${slot}"


# ----------------------------------------------------------------------
# Shard arithmetic
# ----------------------------------------------------------------------

def _key_projector(indices: Optional[Sequence[int]]
                   ) -> Callable[[Any], Any]:
    if not indices:
        return lambda value: value
    if len(indices) == 1:
        index = indices[0]
        return lambda value: value.attribute(index)
    fixed = tuple(indices)
    return lambda value: tuple(value.attribute(i) for i in fixed)


def split_counts(counts: Dict[Any, int], num_shards: int,
                 key: Optional[Sequence[int]] = None
                 ) -> List[Dict[Any, int]]:
    """Split a count dict into ``num_shards`` disjoint shard dicts.

    The shard of a value is a pure function of the value (optionally
    through a key projection), so every copy of a value — across all
    co-partitioned operands — lands in the same shard.
    """
    shards: List[Dict[Any, int]] = [{} for _ in range(num_shards)]
    if num_shards == 1:
        shards[0].update(counts)
        return shards
    project = _key_projector(key)
    for value, count in counts.items():
        shards[hash(project(value)) % num_shards][value] = count
    return shards


def merge_counts(shards: Sequence[Dict[Any, int]],
                 sr=None) -> Dict[Any, int]:
    """Sum-merge shard results in shard order (the ordered gather)."""
    merged: Dict[Any, int] = {}
    get = merged.get
    if sr is None:
        for shard in shards:
            for value, count in shard.items():
                merged[value] = get(value, 0) + count
        return merged
    add = sr.add
    for shard in shards:
        for value, count in shard.items():
            existing = get(value)
            merged[value] = (count if existing is None
                             else add(existing, count))
    return merged


# ----------------------------------------------------------------------
# Shard execution: the segment cache and the fused segment run on a slice
# ----------------------------------------------------------------------

#: Worker-local compiled segments: ``(tag, program) -> PhysicalPlan``.
#: Lives at module level so it survives across morsels of one worker
#: process (fork'd children inherit the parent's warm entries too).
#: The tag is the planner's ``PassConfig.cache_tag()`` — a config
#: change (different passes, different selectivity) must compile a
#: fresh segment even for a syntactically identical program.
_SEGMENT_CACHE: Dict[Tuple[Any, SegmentProgram], PhysicalPlan] = {}
_SEGMENT_CACHE_CAP = 256
#: Thread-backend workers share the cache: evicting by iteration while
#: a sibling inserts raises "dictionary changed size during iteration".
_SEGMENT_CACHE_LOCK = threading.Lock()


def compiled_segment_for(program: SegmentProgram,
                         tag: Optional[Tuple] = None,
                         stats=None,
                         sr=None) -> PhysicalPlan:
    """The fused plan for a program — the pipeline a serial query
    takes — compiled at most once per worker per ``(tag, program)``.
    Hit/miss counts land in ``stats``
    (an :class:`~repro.engine.physical.EngineStats`), which the
    exchange merges back into the parent — so ``:explain`` shows how
    often workers reused a resident segment.  The tag (the planner's
    ``cache_tag()``) already carries the semiring name, so N and
    generic compilations of the same program never collide."""
    key = (tag, program)
    plan = _SEGMENT_CACHE.get(key)
    if plan is not None:
        if stats is not None:
            stats.segment_cache_hits += 1
        return plan
    types = static_types(program.expr, program.schema())
    plan = compile_codegen(lower(program.expr, semiring=sr, types=types),
                           semiring=sr)
    with _SEGMENT_CACHE_LOCK:
        if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_CAP:
            _SEGMENT_CACHE.pop(next(iter(_SEGMENT_CACHE)))
        _SEGMENT_CACHE[key] = plan
    if stats is not None:
        stats.segment_cache_misses += 1
    return plan


def clear_segment_cache() -> None:
    """Drop every compiled segment (tests; a respawned pool starts
    cold anyway because a fresh process starts with an empty dict)."""
    with _SEGMENT_CACHE_LOCK:
        _SEGMENT_CACHE.clear()


def segment_cache_len() -> int:
    """Number of resident compiled segments in this process."""
    return len(_SEGMENT_CACHE)


def execute_program(program: SegmentProgram,
                    inputs: Sequence[Dict[Any, int]],
                    governor=None,
                    every: int = 128,
                    stats=None,
                    tag: Optional[Tuple] = None,
                    sr=None) -> Dict[Any, int]:
    """Run a segment program over one shard's input dicts and return
    the shard's counts dict, unsealed.

    The compiled segment runs exactly as a serial fused plan does:
    ``inputs[k]`` is bound to slot ``$k`` of an ordinary
    :class:`~repro.engine.physical.ExecContext` whose ``governor`` is
    the worker's (step budget, deadline, cancellation, size budget —
    ticked and size-checked per kernel, ``every`` rows between
    ticks); ``stats`` is an optional
    :class:`~repro.engine.physical.EngineStats` fed per kernel (the
    chaos harness passes one that raises between kernels to simulate
    a worker dying mid-segment).

    The input shards are never mutated — scans borrow them, and the
    compiler's in-place merges touch only dicts a kernel of the same
    run produced — so a retry from the same inputs is idempotent
    wherever the last attempt died.
    """
    plan = compiled_segment_for(program, tag=tag, stats=stats, sr=sr)
    slots = {_slot_name(slot): counts
             for slot, counts in enumerate(inputs)}
    evaluator = Evaluator(track_stats=False, governor=governor,
                          semiring=sr)
    ctx = ExecContext(slots, evaluator, stats=stats, tick_interval=every)
    # unsealed — not plan.execute's Bag per morsel
    return plan.root_segment.fn(ctx)


# ----------------------------------------------------------------------
# The recogniser (logical expression -> leaves + keys, then the program)
# ----------------------------------------------------------------------

_VP_BINARY = (AdditiveUnion, Subtraction, Intersection, MaxUnion)


class ParallelSegment:
    """A recognised segment.  ``leaves`` is all the threshold check
    needs; ``program`` is built on first access, so a segment the pass
    goes on to refuse costs no more than its recognition."""

    def __init__(self, expr: Expr, recogniser: "_SegmentCompiler"):
        self.leaves = recogniser.leaves
        self._expr = expr
        self._recogniser = recogniser

    @cached_property
    def program(self) -> SegmentProgram:
        return SegmentProgram(
            self._recogniser.substitute(self._expr),
            tuple(leaf.type for leaf in self.leaves))


class _SegmentCompiler:
    """The partition-compatibility recogniser over one expression
    root: MAP only at the root, a spine of unary value-preserving
    operators above at most one key operator (join or nest),
    value-preserving trees below; every other subtree is a leaf.

    ``type_of`` resolves the static type of a subexpression: the
    slots' types, and the tuple arities that split join attribute
    positions and complement nest indices.  It may return ``None``,
    which makes the key operators refuse.  ``unions=False`` (a plan
    the checker did not prove) keeps the union family out: such a
    node is a leaf, run serially where its type check sees both whole
    operands.
    """

    def __init__(self, type_of: Callable[[Expr], Optional[Type]],
                 unions: bool = True):
        self.type_of = type_of
        self.unions = unions
        self.leaves: List[LeafSpec] = []
        #: partition-local operators recognised (a segment needs one)
        self.kernels = 0
        # a shard is a pure function of (leaf expression, partition
        # key): equal leaves under one key (the chain workloads repeat
        # their relations at every level) share a slot instead of
        # being materialised and shipped per occurrence
        self._slots: Dict[Tuple[Any, Expr], Var] = {}
        #: id(the key operator) -> the partition key of each operand
        self._side_keys: Dict[int, Tuple[Tuple[int, ...], ...]] = {}

    # -- recognition ------------------------------------------------------

    def arity_of(self, expr: Expr) -> Optional[int]:
        return element_arity(self.type_of(expr))

    def compile(self, expr: Expr) -> Optional[ParallelSegment]:
        core = expr
        if isinstance(expr, Map):
            if compile_object_lambda(expr.lam) is None:
                return None  # the pass retries on the operand
            core = expr.operand
        # a bare passthrough of leaves parallelises nothing: require at
        # least one real kernel over the fan-out (the root MAP aside)
        if not self._core(core) or not self.kernels:
            return None
        return ParallelSegment(expr, self)

    def _core(self, expr: Expr) -> bool:
        """The segment spine: unary value-preserving operators above at
        most one key operator (join or nest), else a pure VP tree."""
        if isinstance(expr, Dedup):
            self.kernels += 1
            return self._core(expr.operand)
        if isinstance(expr, Select):
            keys = equi_join_keys(expr, self.arity_of)
            if keys is not None:
                return self._key_operator(
                    expr, (expr.operand.left, expr.operand.right),
                    ((keys[0],), (keys[1],)))
            if compile_predicate(expr) is None:
                return False  # the evaluator would be needed
            self.kernels += 1
            return self._core(expr.operand)
        if isinstance(expr, Nest):
            arity = self.arity_of(expr.operand)
            if arity is None or max(expr.indices) > arity:
                return False
            rest = tuple(i for i in range(1, arity + 1)
                         if i not in expr.indices)
            if not rest:
                return False  # grouping by the empty key: one global group
            return self._key_operator(expr, (expr.operand,), (rest,))
        self._vp(expr, None)
        return True

    def _key_operator(self, expr: Expr, operands: Tuple[Expr, ...],
                      keys: Tuple[Tuple[int, ...], ...]) -> bool:
        """Each operand of the key operator is a value-preserving tree
        whose leaves are partitioned by that operand's key."""
        self._side_keys[id(expr)] = keys
        self.kernels += 1
        for operand, key in zip(operands, keys):
            self._vp(operand, key)
        return True

    def _vp(self, expr: Expr, key: Optional[Tuple[int, ...]]) -> None:
        """Recognise a value-preserving subtree; anything else — a
        selection the workers could not compile, a second join — is a
        leaf slot partitioned by ``key``."""
        if self.unions and isinstance(expr, _VP_BINARY):
            self.kernels += 1
            self._vp(expr.left, key)
            self._vp(expr.right, key)
        elif isinstance(expr, Dedup) or (
                isinstance(expr, Select)
                and compile_predicate(expr) is not None
                and equi_join_keys(expr, self.arity_of) is None):
            self.kernels += 1
            self._vp(expr.operand, key)
        elif (key, expr) not in self._slots:
            self._slots[key, expr] = Var(_slot_name(len(self.leaves)))
            self.leaves.append(LeafSpec(expr, key, self.type_of(expr)))

    # -- the program ------------------------------------------------------

    def substitute(self, expr: Expr,
                   key: Optional[Tuple[int, ...]] = None) -> Expr:
        """``expr`` with every leaf replaced by its slot variable.  A
        node that is not a leaf is one of the operators recognition
        walked through, so rebuilding it over substituted operands
        needs no second set of decisions."""
        slot = self._slots.get((key, expr))
        if slot is not None:
            return slot
        sides = self._side_keys.get(id(expr))
        if isinstance(expr, Map):
            return Map(expr.lam, self.substitute(expr.operand))
        if isinstance(expr, Dedup):
            return Dedup(self.substitute(expr.operand, key))
        if isinstance(expr, Nest):
            return Nest(self.substitute(expr.operand, sides[0]),
                        *expr.indices)
        if isinstance(expr, Select):
            if sides is None:
                operand = self.substitute(expr.operand, key)
            else:
                product = expr.operand
                operand = Cartesian(
                    self.substitute(product.left, sides[0]),
                    self.substitute(product.right, sides[1]))
            return Select(expr.left, expr.right, operand, expr.op)
        return type(expr)(self.substitute(expr.left, key),
                          self.substitute(expr.right, key))


def compile_parallel_segment(expr: Expr,
                             type_of: Callable[[Expr], Optional[Type]],
                             unions: bool = True
                             ) -> Optional[ParallelSegment]:
    """Recognise an expression as a shard-local segment, or ``None``
    when the root is not partition-compatible (the lowering pass then
    recurses and retries on the children)."""
    return _SegmentCompiler(type_of, unions).compile(expr)
