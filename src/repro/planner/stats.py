"""The one shared estimator: cardinality statistics and static cost.

This module is the single source of truth: rewrite costing, the
logical EXPLAIN and cost-based lowering all import from here
(``tests/test_planner.py`` pins that the engine's lowering uses this
very estimator).

A classical optimizer component adapted to bag semantics: given
per-relation statistics (total cardinality *with duplicates* and the
number of distinct elements — the two numbers that diverge exactly when
bags matter), estimate the same two numbers for every operator's
output.  The per-operator rules follow the multiplicity definitions of
Section 3:

=================  ==========================  =======================
operator           cardinality                 distinct
=================  ==========================  =======================
``B (+) B'``       ``c + c'``                  ``<= d + d'``
``B - B'``         ``<= c``                    ``<= d``
``B u B'``         ``<= c + c'``               ``<= d + d'``
``B n B'``         ``<= min(c, c')``           ``<= min(d, d')``
``B x B'``         ``c * c'``                  ``d * d'``
``MAP_f(B)``       ``c`` (exactly)             ``<= d``
``sigma(B)``       ``<= c`` (selectivity)      ``<= d``
``eps(B)``         ``d`` (exactly)             ``d``
``P(B)``           ``<= prod(c_i+1)``          same
``Pb(B)``          ``2^c``                     ``<= 2^c``
``delta(B)``       sum of inner cardinalities  —
=================  ==========================  =======================

Estimates are upper-bound flavoured (selections use a configurable
selectivity); tests check the *exact* rows (product, MAP, eps, Pb) and
that the bounds dominate the measured values on random workloads.

Two refinements matter for the physical engine's lowering decisions:

* **multiplicity blow-up** — ``B (+) B`` (what the engine lowers to a
  ``MultiplicityScale`` kernel) doubles *cardinality* but leaves
  *distinct* alone; the naive ``d + d'`` rule over-estimated dedup
  output by 2x per doubling.  Self-identical operands of ``(+)``,
  ``u``, ``n``, and ``-`` now use the exact bag identities.
* **nested sizes** — powerset members are bags, and ``delta(P(B))``
  multiplies by the *average subbag size* (``|B| / 2``), not by the
  average multiplicity of ``P(B)`` (which is 1).
  :class:`BagStats` carries ``avg_element_size`` for this, making the
  delta-of-powerset estimate exact on uniform families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.core.bag import Bag
from repro.core.errors import BagTypeError
from repro.core.expr import (
    AdditiveUnion, BagDestroy, Cartesian, Const, Dedup, Expr,
    Intersection, Map, MaxUnion, Powerbag, Powerset, Select,
    Subtraction, Var,
)
from repro.core.memo import IdentityMemo
from repro.core.nest import Nest, Unnest

__all__ = ["BagStats", "stats_of", "estimate", "estimated_cost",
           "NODE_WEIGHTS", "DEFAULT_SELECTIVITY", "SelectivityFn",
           "stats_scan_count", "count_stats_scan", "clear_stats_memo"]

#: A per-predicate selectivity oracle: given a ``Select`` node, return
#: a selectivity in (0, 1] derived from data statistics (the storage
#: catalog's histograms), or ``None`` to fall back to the flat
#: default.  Threaded through :func:`estimate` by the lowering pass.
SelectivityFn = Callable[["Select"], Optional[float]]

#: Default fraction of members a selection is assumed to keep.
DEFAULT_SELECTIVITY = 0.5

#: Powerset/powerbag estimates above this are reported as infinity to
#: keep the arithmetic finite.
_CAP = float(10 ** 18)


@dataclass(frozen=True)
class BagStats:
    """The two numbers that describe a bag for estimation purposes.

    ``avg_element_size`` is set when the members are themselves bags
    (powerset/powerbag/nest output): the expected number of elements
    *inside* one member.  ``delta`` and ``unnest`` estimates consume
    it; ``None`` means atomic or unknown members.
    """

    cardinality: float      # with duplicates
    distinct: float
    avg_element_size: Optional[float] = None

    def __post_init__(self):
        if self.cardinality < 0 or self.distinct < 0:
            raise BagTypeError("statistics must be non-negative")
        if self.distinct > self.cardinality:
            object.__setattr__(self, "distinct", self.cardinality)
        if (self.avg_element_size is not None
                and self.avg_element_size < 0):
            raise BagTypeError("statistics must be non-negative")

    @property
    def average_multiplicity(self) -> float:
        if self.distinct == 0:
            return 0.0
        return self.cardinality / self.distinct


# ----------------------------------------------------------------------
# Exact statistics, memoized by bag identity
# ----------------------------------------------------------------------

#: Bounded identity-keyed memo: ``id(bag) -> (bag, stats)``.
_STATS_MEMO = IdentityMemo()

#: How many times statistics were derived by touching a concrete bag
#: (as opposed to a memo hit or a catalog lookup).  The storage tests
#: assert a compile against cataloged relations leaves this unchanged.
_SCANS = [0]


def stats_scan_count() -> int:
    """Number of bag-touching statistics captures so far (process-wide
    monotone counter; diff before/after to count scans in a region)."""
    return _SCANS[0]


def count_stats_scan() -> None:
    """Record one full-bag statistics scan (``ANALYZE`` and the
    memo-miss path of :func:`stats_of` call this)."""
    _SCANS[0] += 1


def clear_stats_memo() -> None:
    """Drop the identity memo (tests use this to force re-scans)."""
    _STATS_MEMO.clear()


def stats_of(bag: Bag) -> BagStats:
    """Exact statistics of a concrete bag, memoized by bag *identity*:
    repeated compiles against the same bound bag are a dictionary hit,
    and the scan counter (:func:`stats_scan_count`) only moves on a
    genuine miss."""
    return _STATS_MEMO.get(bag, (), lambda: _scan(bag))


def _scan(bag: Bag) -> BagStats:
    count_stats_scan()
    return BagStats(cardinality=float(bag.cardinality),
                    distinct=float(bag.distinct_count))


def estimate(expr: Expr, statistics: Mapping[str, BagStats],
             selectivity: float = DEFAULT_SELECTIVITY,
             selectivity_fn: Optional[SelectivityFn] = None) -> BagStats:
    """Estimate output statistics of an expression bottom-up.

    ``statistics`` binds the relation variables.  Lambda-bound
    variables never appear at estimation positions (lambdas map
    objects, not bags), so any unbound name is an error.

    ``selectivity_fn`` refines selections: when provided, each
    ``Select`` node is offered to it first and the flat ``selectivity``
    only applies when it returns ``None`` — this is how catalog
    histograms replace the one-size-fits-all default.
    """
    if not 0 < selectivity <= 1:
        raise BagTypeError("selectivity must be in (0, 1]")
    return _estimate(expr, dict(statistics), selectivity,
                     selectivity_fn)


def _estimate(expr: Expr, stats: Dict[str, BagStats],
              selectivity: float,
              selectivity_fn: Optional[SelectivityFn] = None
              ) -> BagStats:
    if isinstance(expr, Var):
        if expr.name not in stats:
            raise BagTypeError(
                f"no statistics for relation {expr.name!r}")
        return stats[expr.name]
    if isinstance(expr, Const):
        if isinstance(expr.value, Bag):
            return stats_of(expr.value)
        return BagStats(1.0, 1.0)

    if isinstance(expr, AdditiveUnion):
        left = _estimate(expr.left, stats, selectivity, selectivity_fn)
        if expr.left == expr.right:
            # B (+) B doubles every multiplicity: 2c rows but still
            # only d distinct members (the engine's MultiplicityScale)
            return BagStats(2.0 * left.cardinality, left.distinct,
                            left.avg_element_size)
        right = _estimate(expr.right, stats, selectivity, selectivity_fn)
        return BagStats(left.cardinality + right.cardinality,
                        left.distinct + right.distinct,
                        _merge_size(left, right))
    if isinstance(expr, MaxUnion):
        left = _estimate(expr.left, stats, selectivity, selectivity_fn)
        if expr.left == expr.right:
            return left  # B u B = B
        right = _estimate(expr.right, stats, selectivity, selectivity_fn)
        return BagStats(left.cardinality + right.cardinality,
                        left.distinct + right.distinct,
                        _merge_size(left, right))
    if isinstance(expr, Subtraction):
        left = _estimate(expr.left, stats, selectivity, selectivity_fn)
        if expr.left == expr.right:
            return BagStats(0.0, 0.0)  # B - B = {{}} under monus
        return left
    if isinstance(expr, Intersection):
        left = _estimate(expr.left, stats, selectivity, selectivity_fn)
        if expr.left == expr.right:
            return left  # B n B = B
        right = _estimate(expr.right, stats, selectivity, selectivity_fn)
        return BagStats(min(left.cardinality, right.cardinality),
                        min(left.distinct, right.distinct),
                        _merge_size(left, right))
    if isinstance(expr, Cartesian):
        left = _estimate(expr.left, stats, selectivity, selectivity_fn)
        right = _estimate(expr.right, stats, selectivity, selectivity_fn)
        return BagStats(left.cardinality * right.cardinality,
                        left.distinct * right.distinct)
    if isinstance(expr, Map):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        return BagStats(inner.cardinality, inner.distinct)
    if isinstance(expr, Select):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        kept = None
        if selectivity_fn is not None:
            kept = selectivity_fn(expr)
        if kept is None or not 0 < kept <= 1:
            kept = selectivity
        return BagStats(inner.cardinality * kept,
                        inner.distinct * kept,
                        inner.avg_element_size)
    if isinstance(expr, Dedup):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        return BagStats(inner.distinct, inner.distinct,
                        inner.avg_element_size)
    if isinstance(expr, Powerset):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        subbags = _powerset_size(inner)
        # a uniformly random subbag keeps half of B's elements
        return BagStats(subbags, subbags,
                        avg_element_size=inner.cardinality / 2.0)
    if isinstance(expr, Powerbag):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        total = min(_CAP, 2.0 ** min(inner.cardinality, 60.0)
                    if inner.cardinality <= 60 else _CAP)
        return BagStats(total, min(total, _powerset_size(inner)),
                        avg_element_size=inner.cardinality / 2.0)
    if isinstance(expr, BagDestroy):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        # each of the inner bags contributes its own cardinality;
        # powerset/nest outputs carry the true average subbag size —
        # fall back to the average multiplicity only without it
        if inner.avg_element_size is not None:
            per_bag = inner.avg_element_size
        else:
            per_bag = max(1.0, inner.average_multiplicity)
        return BagStats(min(_CAP, inner.cardinality * per_bag),
                        min(_CAP, inner.distinct * per_bag))
    if isinstance(expr, Nest):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        # one output tuple per distinct residual key: at most d groups
        groups = max(1.0, inner.distinct) if inner.cardinality else 0.0
        per_group = (inner.cardinality / groups) if groups else 0.0
        return BagStats(groups, groups, avg_element_size=per_group)
    if isinstance(expr, Unnest):
        inner = _estimate(expr.operand, stats, selectivity, selectivity_fn)
        if inner.avg_element_size is not None:
            per_tuple = inner.avg_element_size
        else:
            per_tuple = max(1.0, inner.average_multiplicity)
        return BagStats(min(_CAP, inner.cardinality * per_tuple),
                        min(_CAP, inner.distinct * per_tuple))
    # unknown/extension operators: give up conservatively
    raise BagTypeError(
        f"no estimation rule for operator {type(expr).__name__}")


def _merge_size(left: BagStats, right: BagStats) -> Optional[float]:
    """Combined ``avg_element_size`` of a union-shaped result."""
    if left.avg_element_size is None or right.avg_element_size is None:
        return None
    return (left.avg_element_size + right.avg_element_size) / 2.0


def _powerset_size(inner: BagStats) -> float:
    """``prod(c_i + 1)`` approximated as
    ``(avg multiplicity + 1)^distinct``, capped."""
    if inner.distinct == 0:
        return 1.0
    base = inner.average_multiplicity + 1.0
    if inner.distinct * _log2(base) > 60:
        return _CAP
    return base ** inner.distinct


def _log2(value: float) -> float:
    import math
    return math.log2(value) if value > 0 else 0.0


# ----------------------------------------------------------------------
# Static cost model (shared by rewrite costing and :explain)
# ----------------------------------------------------------------------

#: Worst-case growth weights for the cost heuristic.  ``Unnest`` and
#: ``BagDestroy`` multiply cardinalities by nested-bag sizes (the
#: multiplicity blow-up the engine's scale kernels model), so they
#: weigh like small products; ``Nest`` only groups.
NODE_WEIGHTS = {
    "Powerset": 100,
    "Powerbag": 200,
    "Cartesian": 10,
    "Unnest": 8,
    "BagDestroy": 5,
    "Nest": 3,
    "Map": 2,
    "Select": 1,
    "Dedup": 1,
    "AdditiveUnion": 1,
    "Subtraction": 1,
    "MaxUnion": 1,
    "Intersection": 1,
}


def estimated_cost(expr: Expr) -> int:
    """A static cost heuristic: operator count weighted by worst-case
    output growth.  Used to confirm that rewrites do not increase the
    estimate (and by how much they shrink it)."""
    return sum(NODE_WEIGHTS.get(type(node).__name__, 1)
               for node in expr.walk())
