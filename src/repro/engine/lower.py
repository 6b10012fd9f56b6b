"""Lowering: logical ``core.expr`` trees to physical plans.

The pass walks the *dataflow* children of an expression (lambda bodies
are per-member object computations, evaluated by compiled closures or
the tree walker — they are not plan steps) and chooses a kernel per
node:

* union-family operators map to their hash kernels; intersection
  operands are reordered so the estimated-smaller side becomes the
  probe dict (``n`` is commutative; ``-`` is not and keeps its order);
* ``sigma_{alpha_i = alpha_j}(B x B')`` with the equality crossing the
  product fuses into a :class:`~repro.engine.physical.HashJoin`, with
  the build side picked by :mod:`repro.planner.stats` estimates; tiny
  products stay nested-loop (a hash table would cost more than it
  saves);
* ``e (+) e`` over a shared subexpression collapses into a
  :class:`~repro.engine.physical.MultiplicityScale`;
* bag-typed subexpressions occurring more than once become
  :class:`~repro.engine.physical.SharedScan` nodes, materialised once
  per run (the common-subexpression memo);
* MAP/selection lambdas built from projections, constants, tupling,
  and bagging compile to plain Python closures; anything else falls
  back to evaluator-backed application — with the body's *closed*
  sub-terms, the ones that do not mention the parameter, recognised
  once, here (:func:`hoist_invariants`), so the step evaluates each
  once per execution instead of once per row;
* a MAP lambda that only rearranges attributes of its own row (the
  paper's ``pi_{i1..in}``) is recognised once, here
  (:func:`rearrangement_picks`): its closure is one ``itemgetter``
  over the row's item tuple, and the
  :class:`~repro.engine.physical.StreamingMap` carries the picks so
  the step builder can fuse the projection into a join below it;
* operators the pass does not know (IFP, machine encodings, anything
  object-typed) lower to :class:`~repro.engine.physical.OracleEval`,
  keeping the engine total over the whole language.

Estimates come from :func:`repro.planner.stats.estimate` when
per-relation statistics are available; without statistics every choice
falls back to a safe default (hash kernels, syntactic operand order).
The whole pass runs as the ``lower`` stage of
:func:`repro.planner.compile`; ``cost_based=False`` is the planner's
opt-level-0 mode (purely syntax-directed kernel choice).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError
from repro.core.expr import (
    AdditiveUnion, Attribute, Bagging, Cartesian, Const, Dedup, Expr,
    Intersection, Lam, Map, MaxUnion, Powerbag, Powerset, Select,
    Subtraction, Tupling, Var, _compare, map_children,
)
from repro.core.nest import Nest, Unnest
from repro.core.ops import attribute as ops_attribute
from repro.core.expr import BagDestroy
from repro.core.types import BagType, Type, element_arity, rigid_shape
from repro.engine.columnar import pick_getter
from repro.engine.physical import (
    ConstSource, FlattenBags, HashDedup, HashDifference, HashIntersect,
    HashJoin, HashMaxUnion, HashUnion, MultiplicityScale, NestBuild,
    NestedLoopProduct, OracleEval, PhysicalNode, PowersetExpand,
    ScanBag, SharedScan, StreamingMap, StreamingSelect, UnnestExpand,
    render_plan,
)
from repro.planner.stats import BagStats, estimate

__all__ = ["PhysicalPlan", "Lowering", "lower", "compile_object_lambda",
           "compile_predicate", "equi_join_keys", "rearrangement_picks",
           "hoist_invariants"]

#: Estimated product cardinality below which a nested-loop product is
#: kept even when an equality predicate could fuse into a hash join.
HASH_JOIN_THRESHOLD = 16.0


class PhysicalPlan:
    """A lowered plan: the root physical node, provenance, and — once
    :func:`repro.engine.codegen.compile_codegen` has built them — the
    step programs that execute it.

    The plan is data-free: steps read bindings through the per-run
    ``ExecContext``, and a run writes nothing here, so a warm
    plan-cache entry serves any database of the same types from any
    number of threads.

    ``root_type`` is the expression's static type when the planner
    proved it (:func:`repro.core.typecheck.static_types`), else
    ``None``.  A proven plan's steps run no union-family type check,
    and when its rows' type is rigid (atoms and tuples of them) every
    row has the one shape that type fixes, so :meth:`execute` seals
    the root trusted (``docs/engine.md``).
    """

    __slots__ = ("root", "expr", "segments", "root_segment", "proven",
                 "shape")

    def __init__(self, root: PhysicalNode, expr: Expr,
                 root_type: Optional[Type] = None):
        self.root = root
        self.expr = expr
        #: every fused segment, shared inner ones first; the root's
        #: is ``root_segment``
        self.segments: Tuple[Any, ...] = ()
        self.root_segment = None
        self.proven = root_type is not None
        #: the shape of every row of a rigid root, else ``None``
        self.shape = (rigid_shape(root_type.element)
                      if isinstance(root_type, BagType) else None)

    def kernels(self) -> Tuple[str, ...]:
        """The kernels one execution of the root segment records."""
        return tuple(self.root_segment.kernels)

    def execute(self, ctx) -> Any:
        counts = self.root_segment.fn(ctx)
        if type(counts) is not dict:
            return counts  # a root oracle's value, passed through
        ctx.check_size(counts)
        if self.shape is None:
            return Bag.from_counts(counts)
        return Bag.trusted(counts, self.shape if counts else None)

    def render(self, actuals: Optional[Mapping[int, int]] = None
               ) -> str:
        """The segments, then the node tree; ``actuals`` (a run's
        ``ExecContext.actual_rows``) adds per-node actual rows."""
        lines = [f"{len(self.segments)} fused segment(s)"]
        lines.extend("  " + segment.describe()
                     for segment in self.segments)
        lines.append("-- lowered plan --")
        lines.append(render_plan(self.root, actuals=actuals))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"PhysicalPlan({type(self.root).__name__}, "
                f"{len(self.segments)} segments)")


class Lowering:
    """One lowering run over one expression."""

    def __init__(self, statistics: Optional[Mapping[str, BagStats]]
                 = None, selectivity: float = 0.5,
                 types: Optional[Mapping[int, Type]] = None,
                 parallel=None, cost_based: bool = True,
                 selectivity_fn=None, segment_tag=None, semiring=None):
        self.statistics = dict(statistics) if statistics else None
        #: Multiplicity semiring instance (None = N): gates the
        #: self-union collapse and threads into compiled lambdas so
        #: closure-produced bags agree with the tree walker.
        self.semiring = semiring
        self.selectivity = selectivity
        #: Optional per-predicate selectivity oracle (catalog
        #: histograms); refines the flat ``selectivity`` per Select.
        self.selectivity_fn = selectivity_fn
        #: ``id(node) -> static type`` of the expression's dataflow
        #: nodes (:func:`repro.core.typecheck.static_types`): where
        #: lowering and the segment recogniser read arities
        self.types = types if types is not None else {}
        #: whether the checker proved the whole tree (set by lower)
        self.proven = False
        #: Optional ParallelPolicy: when set, the parallelism pass
        #: wraps eligible subtrees in Gather/Exchange/Partition nodes.
        self.parallel = parallel
        #: The planner's ``PassConfig.cache_tag()``: stamped onto every
        #: Exchange so workers key their compiled-segment caches on it.
        self.segment_tag = segment_tag
        #: ``False`` is the planner's opt-level-0 mode: a purely
        #: syntax-directed kernel choice — no join fusion, no operand
        #: reordering, no multiplicity-scale collapse, no shared-scan
        #: CSE.  The differential ``engine-opt0`` backend pins that
        #: this naive plan is still bag-equal to the optimized one.
        self.cost_based = cost_based
        self._shared: Dict[Expr, SharedScan] = {}
        self._share_counts: Dict[Expr, int] = {}
        self._estimates: Dict[Expr, Optional[BagStats]] = {}
        self._input_bounds: Dict[Expr, float] = {}

    # -- estimates ------------------------------------------------------

    def _estimate(self, expr: Expr) -> Optional[BagStats]:
        """``expr``'s estimate (``None``: none exists).  The estimator's
        recursion shares the memo: each node is estimated once."""
        if self.statistics is None:
            return None
        if expr not in self._estimates:
            try:
                estimate(expr, self.statistics,
                         selectivity=self.selectivity,
                         selectivity_fn=self.selectivity_fn,
                         memo=self._estimates)
            except BagTypeError:
                self._estimates[expr] = None
        return self._estimates[expr]

    @staticmethod
    def _card(stats: Optional[BagStats]) -> Optional[float]:
        return None if stats is None else stats.cardinality

    # -- entry ----------------------------------------------------------

    def lower(self, expr: Expr) -> PhysicalPlan:
        root_type = self.types.get(id(expr))
        self.proven = root_type is not None
        self._count_occurrences(expr)
        root = self._lower(expr, shared_ok=False)
        return PhysicalPlan(root, expr, root_type)

    def _count_occurrences(self, expr: Expr) -> None:
        """Count structural occurrences of dataflow subexpressions, to
        decide which ones deserve a shared materialisation."""
        counts, dataflow = self._share_counts, self._dataflow_children
        stack: List[Expr] = [expr]
        while stack:
            node = stack.pop()
            counts[node] = counts.get(node, 0) + 1
            stack.extend(dataflow(node))

    @staticmethod
    def _dataflow_children(node: Expr) -> Tuple[Expr, ...]:
        """``children()`` up to the lambda bodies, which come last."""
        lams = node.lambdas()
        return node.children()[:-len(lams)] if lams else node.children()

    def _is_shared(self, expr: Expr) -> bool:
        """Worth sharing: occurs more than once and is not a leaf."""
        return (self.cost_based
                and self._share_counts.get(expr, 0) > 1
                and not isinstance(expr, (Var, Const)))

    # -- recursive lowering ---------------------------------------------

    def _lower(self, expr: Expr, shared_ok: bool = True) -> PhysicalNode:
        if shared_ok and self._is_shared(expr):
            node = self._shared.get(expr)
            if node is None:
                node = SharedScan(self._lower_node(expr),
                                  self._estimate(expr))
                self._shared[expr] = node
            node.refs += 1
            return node
        return self._lower_node(expr)

    def _lower_node(self, expr: Expr) -> PhysicalNode:
        estimated = self._estimate(expr)

        if self.parallel is not None:
            exchanged = self._try_parallel(expr, estimated)
            if exchanged is not None:
                return exchanged

        if isinstance(expr, Var):
            return ScanBag(expr.name, estimated)
        if isinstance(expr, Const):
            if isinstance(expr.value, Bag):
                return ConstSource(expr.value, estimated)
            return OracleEval(expr, estimated)

        if isinstance(expr, AdditiveUnion):
            if self.cost_based and expr.left == expr.right:
                if (self.semiring is not None
                        and self.semiring.idempotent_add):
                    # e (+) e = e when addition is idempotent
                    # (Bool, Tropical): no scale node needed
                    return self._lower(expr.left)
                return MultiplicityScale(self._lower(expr.left), 2,
                                         estimated)
            return HashUnion(self._lower(expr.left),
                             self._lower(expr.right), estimated)
        if isinstance(expr, Subtraction):
            return HashDifference(self._lower(expr.left),
                                  self._lower(expr.right), estimated)
        if isinstance(expr, MaxUnion):
            return HashMaxUnion(self._lower(expr.left),
                                self._lower(expr.right), estimated)
        if isinstance(expr, Intersection):
            left, right = expr.left, expr.right
            swapped = False
            if self.cost_based:
                lcard = self._card(self._estimate(left))
                rcard = self._card(self._estimate(right))
                if (lcard is not None and rcard is not None
                        and rcard < lcard):
                    left, right = right, left  # smaller side probes
                    swapped = True
            return HashIntersect(self._lower(left), self._lower(right),
                                 estimated, swapped)

        if isinstance(expr, Dedup):
            return HashDedup(self._lower(expr.operand), estimated)
        if isinstance(expr, BagDestroy):
            return FlattenBags(self._lower(expr.operand), estimated)
        if isinstance(expr, Powerset):
            return PowersetExpand(self._lower(expr.operand), False,
                                  estimated)
        if isinstance(expr, Powerbag):
            return PowersetExpand(self._lower(expr.operand), True,
                                  estimated)
        if isinstance(expr, Nest):
            return NestBuild(self._lower(expr.operand), expr.indices,
                             estimated)
        if isinstance(expr, Unnest):
            return UnnestExpand(self._lower(expr.operand), expr.index,
                                estimated)

        if isinstance(expr, Map):
            fn = compile_object_lambda(expr.lam, self.semiring)
            lam, invariants = expr.lam, ()
            if fn is None:
                (lam,), invariants = hoist_invariants(lam)
            return StreamingMap(self._lower(expr.operand), lam,
                                fn, estimated,
                                rearrangement_picks(expr.lam),
                                invariants)
        if isinstance(expr, Select):
            return self._lower_select(expr, estimated)
        if isinstance(expr, Cartesian):
            return self._lower_product(expr, estimated)

        # Extension operators (Ifp, encodings, ...) and object-typed
        # expressions: the tree walker is the oracle.
        return OracleEval(expr, estimated)

    # -- parallelism pass ------------------------------------------------

    def _try_parallel(self, expr: Expr,
                      estimated: Optional[BagStats]
                      ) -> Optional[PhysicalNode]:
        """Wrap a partition-compatible subtree in
        Gather -> Exchange -> Partition* nodes.

        Refusal conditions (documented in ``docs/parallel.md``), all
        checked before the segment's program is built:

        1. the root operator is not partition-compatible (the segment
           recogniser returns ``None``, and the pass recurses into the
           children via normal lowering);
        2. cardinality estimates are unavailable for some leaf while
           the policy threshold is positive — without statistics the
           pass cannot justify the fan-out cost;
        3. the estimated total leaf input cardinality is below the
           policy threshold (too small to amortise sharding).

        In a plan the checker did not prove, no union-family node
        joins a segment (``unions=False``): its run-time type check
        must see whole operands, not one shard of each.

        Conditions 2 and 3 are first tried on :meth:`_input_bound`,
        which needs no recogniser: a subtree that cannot reach the
        threshold whatever its segment's leaves turn out to be is
        refused before one is built.
        """
        threshold = self.parallel.threshold
        if threshold > 0 and (self.statistics is None
                              or self._input_bound(expr) < threshold):
            return None
        from repro.engine.parallel.partition import (
            compile_parallel_segment,
        )
        segment = compile_parallel_segment(expr, self._static_type,
                                           unions=self.proven)
        if segment is None:
            return None
        if threshold > 0:
            total = 0.0
            for leaf in segment.leaves:
                card = self._card(self._estimate(leaf.expr))
                if card is None:
                    return None
                total += card
            if total < threshold:
                return None
        from repro.engine.parallel.exchange import (
            Exchange, Gather, Partition,
        )
        partitions = [
            Partition(self._lower(leaf.expr), leaf.key,
                      self._estimate(leaf.expr))
            for leaf in segment.leaves
        ]
        exchange = Exchange(partitions, segment.program, estimated,
                            tag=self.segment_tag,
                            semiring=self.semiring)
        return Gather(exchange, estimated)

    def _input_bound(self, expr: Expr) -> float:
        """An upper bound on the estimated total leaf cardinality of
        *any* segment rooted at ``expr``.  A segment's leaves sit at
        disjoint positions strictly below its root, so their total is
        at most the heaviest antichain there: per child, the larger of
        the child itself and what lies under it.  An unavailable
        estimate is unbounded (the recogniser decides)."""
        bound = self._input_bounds.get(expr)
        if bound is None:
            bound = 0.0
            for child in self._dataflow_children(expr):
                card = self._card(self._estimate(child))
                bound += (float("inf") if card is None
                          else max(card, self._input_bound(child)))
            self._input_bounds[expr] = bound
        return bound

    # -- selection / join -----------------------------------------------

    def _lower_select(self, expr: Select,
                      estimated: Optional[BagStats]) -> PhysicalNode:
        if self.cost_based:
            keys = equi_join_keys(expr, self._operand_arity)
            if keys is not None:
                join = self._try_fuse_join(expr.operand, keys,
                                           estimated)
                if join is not None:
                    return join
        compiled = compile_predicate(expr, self.semiring)
        if compiled is not None:
            return StreamingSelect(self._lower(expr.operand),
                                   lambda ctx: compiled, estimated)

        (left, right), invariants = hoist_invariants(expr.left,
                                                     expr.right)
        op = expr.op

        def make(ctx):
            apply = ctx.lambda_applier(invariants)

            def predicate(value):
                return _compare(op, apply(left, value),
                                apply(right, value))
            return predicate

        return StreamingSelect(self._lower(expr.operand), make,
                               estimated, invariants)

    def _try_fuse_join(self, product: Cartesian,
                       keys: Tuple[int, int],
                       estimated: Optional[BagStats]
                       ) -> Optional[PhysicalNode]:
        """Fuse an equi-join (:func:`equi_join_keys` recognised it)
        into a hash join, unless the product is too small to pay for
        the table build."""
        left_stats = self._estimate(product.left)
        right_stats = self._estimate(product.right)
        lcard = self._card(left_stats)
        rcard = self._card(right_stats)
        if (lcard is not None and rcard is not None
                and lcard * rcard < HASH_JOIN_THRESHOLD):
            return None  # tiny product: nested loop wins
        build_right = True
        if lcard is not None and rcard is not None and lcard < rcard:
            build_right = False
        return HashJoin(self._lower(product.left),
                        self._lower(product.right),
                        (keys[0],), (keys[1],), build_right,
                        estimated)

    def _static_type(self, expr: Expr) -> Optional[Type]:
        return self.types.get(id(expr))

    def _operand_arity(self, operand: Expr) -> Optional[int]:
        """Arity of a product operand's tuples, read off its static
        type (``None`` where the checker did not type it)."""
        return element_arity(self.types.get(id(operand)))

    def _lower_product(self, expr: Cartesian,
                       estimated: Optional[BagStats]) -> PhysicalNode:
        # Products are not commutative (the tuples concatenate), so the
        # right side always builds and the left side always probes.
        return NestedLoopProduct(self._lower(expr.left),
                                 self._lower(expr.right), estimated)


# ----------------------------------------------------------------------
# Lambda compilation
# ----------------------------------------------------------------------

def compile_object_lambda(lam: Lam, sr=None
                          ) -> Optional[Callable[[Any], Any]]:
    """Compile a lambda body made of projections, constants, tupling,
    and bagging into a plain closure; ``None`` when the body mentions
    anything else (the evaluator applies it instead).

    ``sr`` keeps closure output aligned with the tree walker under a
    non-N semiring: bagging mints ``sr.one`` and bag constants are
    adapted (cache keys include the semiring, so baking the adapted
    value into the closure is safe).

    A rearrangement (:func:`rearrangement_picks`) runs as an index
    plan instead: one ``itemgetter`` over the row's item tuple and
    :meth:`Tup.trusted` — the items were validated when the source
    row was built.  Anything that is not a plain ``Tup`` of sufficient
    arity falls to the generic closure, which raises what it always
    raised.
    """
    generic = _compile_body(lam.body, lam.param, sr)
    picks = rearrangement_picks(lam)
    if picks is None:
        return generic
    getter = pick_getter(picks)
    trusted = Tup.trusted

    def rearrange(value):
        if type(value) is Tup:
            try:
                return trusted(getter(value._items))
            except IndexError:
                pass  # a pick past the arity: the generic path names it
        return generic(value)

    return rearrange


def rearrangement_picks(lam: Lam) -> Optional[Tuple[int, ...]]:
    """``(i1, ..., in)`` when the lambda is ``tau(alpha_i1(p), ...,
    alpha_in(p))`` over its own parameter ``p`` — the paper's
    ``pi_{i1..in}``, repeats and reorders included; ``None`` for any
    other body (a constant, a nested attribute, a foreign variable).

    This is the last check before an unchecked ``itemgetter(i - 1)``,
    where ``i = 0`` would silently pick the *last* attribute: an index
    that is not an ``int >= 1`` — however the node came to hold one —
    refuses, and the lambda stays on the checked closure path."""
    body = lam.body
    if not isinstance(body, Tupling) or not body.parts:
        return None
    for part in body.parts:
        if not (isinstance(part, Attribute)
                and isinstance(part.operand, Var)
                and part.operand.name == lam.param
                and isinstance(part.index, int) and part.index >= 1):
            return None
    return tuple(part.index for part in body.parts)


def _compile_body(body: Expr, param: str, sr=None
                  ) -> Optional[Callable[[Any], Any]]:
    if isinstance(body, Var):
        if body.name == param:
            return lambda value: value
        return None  # free variable: needs the environment
    if isinstance(body, Const):
        constant = body.value
        if sr is not None and isinstance(constant, Bag):
            constant = sr.adapt_bag(constant)
        return lambda value: constant
    if isinstance(body, Attribute):
        index = body.index
        if isinstance(body.operand, Var) and body.operand.name == param:
            # alpha_i of the member itself — the shape of every
            # declarative predicate and projection, and per-row work in
            # every engine and every shard: skip the identity hop
            return lambda value: ops_attribute(value, index)
        inner = _compile_body(body.operand, param, sr)
        if inner is None:
            return None
        return lambda value: ops_attribute(inner(value), index)
    if isinstance(body, Tupling):
        parts = [_compile_body(part, param, sr) for part in body.parts]
        if any(part is None for part in parts):
            return None
        return lambda value: Tup(*(part(value) for part in parts))
    if isinstance(body, Bagging):
        inner = _compile_body(body.item, param, sr)
        if inner is None:
            return None
        if sr is None:
            return lambda value: Bag.of(inner(value))
        one = sr.one
        return lambda value: Bag.from_counts({inner(value): one})
    return None


#: Reserved variables standing for a lambda's hoisted sub-terms (the
#: exchange's slot variables are ``$0``, ``$1``, ...).
_INVARIANT = "$inv{}"


def hoist_invariants(*lams: Lam
                     ) -> Tuple[Tuple[Lam, ...],
                                Tuple[Tuple[str, Expr], ...]]:
    """The lambdas of one plan node with their *closed* sub-terms —
    the maximal non-leaf sub-expressions of a body that do not mention
    the parameter, so every row would compute the same value — each
    replaced by a reserved variable, and the ``(name, expr)`` list the
    step evaluates once per execution
    (:meth:`~repro.engine.physical.ExecContext.lambda_applier`).

    The search follows dataflow children only: an inner lambda's body
    belongs to the inner binder (which may shadow the parameter or
    capture it), so it is never entered — the inner ``MAP`` or
    ``sigma`` is hoisted whole when it is closed and kept whole when
    it is not.  A body with no closed sub-term comes back as it was,
    with an empty list."""
    found: List[Tuple[str, Expr]] = []

    def hoist(expr: Expr, param: str) -> Expr:
        if param in expr.free_vars():
            return map_children(expr, lambda child: hoist(child, param),
                                dataflow_only=True)
        if isinstance(expr, (Var, Const)):
            return expr
        found.append((_INVARIANT.format(len(found)), expr))
        return Var(found[-1][0])

    hoisted = tuple(Lam(lam.param, hoist(lam.body, lam.param))
                    for lam in lams)
    return (hoisted if found else lams), tuple(found)


def compile_predicate(select: Select, sr=None
                      ) -> Optional[Callable[[Any], bool]]:
    """Compile both selection lambdas; ``None`` if either resists."""
    lhs = _compile_body(select.left.body, select.left.param, sr)
    rhs = _compile_body(select.right.body, select.right.param, sr)
    if lhs is None or rhs is None:
        return None
    op = select.op
    if op == "eq":
        return lambda value: lhs(value) == rhs(value)
    if op == "ne":
        return lambda value: lhs(value) != rhs(value)
    return lambda value: _compare(op, lhs(value), rhs(value))


def _attr_eq_indices(select: Select) -> Optional[Tuple[int, int]]:
    """``(i, j)`` when the selection is ``alpha_i(t) = alpha_j(t)``."""
    left, right = select.left.body, select.right.body
    if (isinstance(left, Attribute) and isinstance(right, Attribute)
            and isinstance(left.operand, Var)
            and isinstance(right.operand, Var)
            and left.operand.name == select.left.param
            and right.operand.name == select.right.param):
        return left.index, right.index
    return None


def equi_join_keys(select: Select,
                   arity_of: Callable[[Expr], Optional[int]]
                   ) -> Optional[Tuple[int, int]]:
    """``(i, j)`` when ``select`` is ``sigma_{alpha_i = alpha_j}(L x R)``
    with the equality crossing the product boundary: ``i`` indexes the
    left operand's tuples, ``j`` the right operand's own.  The one
    equi-join recogniser: join fusion hashes on these keys and the
    parallelism pass partitions on them, so the two cannot disagree.
    ``arity_of`` may answer ``None`` (left arity unknown), which
    refuses."""
    if select.op != "eq" or not isinstance(select.operand, Cartesian):
        return None
    indices = _attr_eq_indices(select)
    if indices is None:
        return None
    left_arity = arity_of(select.operand.left)
    if left_arity is None:
        return None
    i, j = sorted(indices)
    if not (i <= left_arity < j):
        return None  # both attributes on one side: plain filter
    return i, j - left_arity


def lower(expr: Expr,
          statistics: Optional[Mapping[str, BagStats]] = None,
          selectivity: float = 0.5,
          types: Optional[Mapping[int, Type]] = None,
          parallel=None, cost_based: bool = True,
          selectivity_fn=None, segment_tag=None,
          semiring=None) -> PhysicalPlan:
    """One-shot lowering convenience wrapper; ``types`` is
    :func:`repro.core.typecheck.static_types` of ``expr`` (without it
    nothing is proven and no arity is known)."""
    return Lowering(statistics, selectivity=selectivity,
                    types=types, parallel=parallel,
                    cost_based=cost_based,
                    selectivity_fn=selectivity_fn,
                    segment_tag=segment_tag,
                    semiring=semiring).lower(expr)
