"""Bounded LRU plan cache keyed on canonicalized expression hashes.

Lowering is cheap next to evaluation, but a production front end (the
SQL layer, the CLI, a service loop) sends the *same* queries over and
over; caching the physical plan makes the repeated case allocation-free
up to execution.  Two layers of reuse:

* **across runs** — :class:`PlanCache`, an LRU of
  :class:`~repro.engine.lower.PhysicalPlan` objects keyed on the
  *canonical key* of the expression (structural, with commutative
  operands sorted so ``A n B`` and ``B n A`` share a plan) plus the
  type of every bound bag (join fusion bakes attribute positions into
  the plan, and a proven plan bakes in its type checks and its seal,
  so a type change must miss — even one that keeps every arity);
* **within a run** — the lowering pass's
  :class:`~repro.engine.physical.SharedScan` nodes materialise each
  repeated subexpression once per execution; the per-run memo lives in
  the :class:`~repro.engine.physical.ExecContext`, so cached plans
  never leak data between databases.

Plans hold no data, only structure, step programs and compiled
lambdas — and a run writes nothing on them — which is what makes
sharing them across databases of the same schema, and across threads,
safe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Tuple

from repro.core.expr import (
    AdditiveUnion, Expr, Intersection, MaxUnion, structure_slots,
)
from repro.engine.lower import PhysicalPlan

__all__ = ["CacheStats", "PlanCache", "canonical_key"]

#: Commutative binary operators whose operands the canonical key sorts.
_COMMUTATIVE = (AdditiveUnion, MaxUnion, Intersection)


def canonical_key(expr: Expr) -> Hashable:
    """A canonicalized structural key for an expression.

    Commutative operands are sorted — at *every* depth, not only the
    root — so the two operand orders of ``(+)``, ``u``, and ``n`` hash
    to the same plan: a cached plan for one order computes the same
    bag for the other.  Two operand keys compare directly (tuples of
    names, atoms and keys); only where that comparison raises — the
    first difference is a bag or tuple constant, a lambda, or atoms of
    two types — do their reprs decide.  Non-commutative nodes key on
    their type plus the canonical keys of their slots, so order
    differences buried under a ``Dedup`` or a ``Map`` still collapse.
    """
    if isinstance(expr, _COMMUTATIVE):
        left = canonical_key(expr.left)
        right = canonical_key(expr.right)
        try:
            swap = right < left
        except TypeError:
            swap = repr(right) < repr(left)
        if swap:
            left, right = right, left
        return (type(expr).__name__, left, right)
    if isinstance(expr, Expr):
        parts = [type(expr).__name__]
        for slot in structure_slots(type(expr)):
            parts.append(_value_key(getattr(expr, slot)))
        return tuple(parts)
    return expr


def _value_key(value) -> Hashable:
    if isinstance(value, Expr):
        return canonical_key(value)
    if isinstance(value, (tuple, list)):
        return tuple(_value_key(item) for item in value)
    return value


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded LRU mapping canonical keys to physical plans."""

    __slots__ = ("capacity", "stats", "_plans")

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._plans: "OrderedDict[Hashable, PhysicalPlan]" = OrderedDict()

    @staticmethod
    def key_for(expr: Expr,
                types: Optional[Mapping[str, Hashable]] = None,
                tag: Hashable = None) -> Hashable:
        """Cache key: canonical expression key + type signature (the
        type of each bound bag).

        ``tag`` distinguishes plans built under different lowering
        policies (the parallelism pass bakes Exchange nodes into the
        plan, so a serial and a parallel plan for the same expression
        must not share a slot).
        """
        signature: Tuple = ()
        if types:
            signature = tuple(sorted(types.items()))
        return (canonical_key(expr), signature, tag)

    def get(self, key: Hashable) -> Optional[PhysicalPlan]:
        plan = self._plans.get(key)
        if plan is None:
            self.stats.misses += 1
            return None
        self._plans.move_to_end(key)
        self.stats.hits += 1
        return plan

    def put(self, key: Hashable, plan: PhysicalPlan) -> None:
        if key in self._plans:
            self._plans.move_to_end(key)
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PlanCache({len(self._plans)}/{self.capacity}, "
                f"hits={self.stats.hits}, misses={self.stats.misses})")
