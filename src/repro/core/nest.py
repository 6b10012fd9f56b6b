"""The nest / unnest operators (the conclusion's powerset-free
paradigm).

The paper's conclusion contrasts the powerset with the weaker
*set-nesting* operator of [PG88, PG92]: in the nested relational
algebra with ``nest`` instead of ``P``, intermediate nesting buys no
expressive power, and [Won93] extends that conservativity to bags —
the fragment ``BALG u {nest} - {P}`` inherits the
``RALG^2 < BALG^2`` separation.  To make that discussion executable,
this module adds both operators to the algebra:

* ``nest_{J}(B)`` groups a bag of k-tuples by the attributes *outside*
  ``J``: one occurrence of ``[rest..., group]`` per distinct rest
  value, where ``group`` is the bag of J-projections of the matching
  tuples (multiplicities preserved inside the group — this is the bag
  version of [PG88] nesting);
* ``unnest_{i}(B)`` flattens a bag-valued attribute back out,
  multiplying multiplicities.

``unnest`` after ``nest`` on all remaining attributes restores the
original bag (up to attribute order) — a property test in the suite.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError
from repro.core.expr import Expr, _as_expr
from repro.core.semiring import Semiring
from repro.core.types import BagType, TupleType, Type, UNKNOWN, unify

__all__ = ["nest_bag", "unnest_bag", "Nest", "Unnest"]


def nest_bag(bag: Bag, group_indices: Tuple[int, ...],
             sr: Optional[Semiring] = None) -> Bag:
    """Operational ``nest``: group by the complement of
    ``group_indices`` (1-based), collecting the projections on
    ``group_indices`` into an inner bag."""
    if not isinstance(bag, Bag):
        raise BagTypeError("nest expects a bag")
    if not group_indices:
        raise BagTypeError("nest needs at least one grouped attribute")
    groups: Dict[Tup, Dict[Any, int]] = {}
    rest_indices = None
    for element, count in bag.items():
        if not isinstance(element, Tup):
            raise BagTypeError("nest expects a bag of tuples")
        if max(group_indices) > element.arity or min(group_indices) < 1:
            raise BagTypeError(
                f"nest indices {group_indices} out of range for arity "
                f"{element.arity}")
        if rest_indices is None:
            rest_indices = tuple(i for i in range(1, element.arity + 1)
                                 if i not in group_indices)
        key = Tup(*(element.attribute(i) for i in rest_indices))
        grouped = Tup(*(element.attribute(i) for i in group_indices))
        bucket = groups.setdefault(key, {})
        if sr is None:
            bucket[grouped] = bucket.get(grouped, 0) + count
        else:
            count = sr.coerce(count)
            existing = bucket.get(grouped)
            bucket[grouped] = (count if existing is None
                               else sr.add(existing, count))
    one = 1 if sr is None else sr.one
    result: Dict[Tup, int] = {}
    for key, bucket in groups.items():
        result[Tup(*key.items(), Bag.from_counts(bucket))] = one
    return Bag.from_counts(result)


def unnest_bag(bag: Bag, index: int,
               sr: Optional[Semiring] = None) -> Bag:
    """Operational ``unnest``: expand the bag-valued attribute at
    ``index`` (1-based), multiplying multiplicities."""
    if not isinstance(bag, Bag):
        raise BagTypeError("unnest expects a bag")
    result: Dict[Tup, int] = {}
    for element, count in bag.items():
        if not isinstance(element, Tup):
            raise BagTypeError("unnest expects a bag of tuples")
        if not 1 <= index <= element.arity:
            raise BagTypeError(
                f"unnest index {index} out of range for arity "
                f"{element.arity}")
        inner = element.attribute(index)
        if not isinstance(inner, Bag):
            raise BagTypeError(
                f"attribute {index} is not bag-valued")
        prefix = element.items()[:index - 1]
        suffix = element.items()[index:]
        if sr is not None:
            count = sr.coerce(count)
        for member, inner_count in inner.items():
            # inner *tuples* are spliced componentwise (classical
            # unnest, the inverse of nest's tuple-wrapped groups);
            # other inner values occupy a single attribute
            spliced = (member.items() if isinstance(member, Tup)
                       else (member,))
            flat = Tup(*prefix, *spliced, *suffix)
            if sr is None:
                result[flat] = result.get(flat, 0) + count * inner_count
            else:
                contribution = sr.mul(count, sr.coerce(inner_count))
                existing = result.get(flat)
                result[flat] = (contribution if existing is None
                                else sr.add(existing, contribution))
    return Bag.from_counts(result)


class Nest(Expr):
    """``nest_{i1..im}(B)``: group a bag of tuples, collecting the
    listed attributes into an inner bag keyed by the rest."""

    __slots__ = ("operand", "indices")

    def __init__(self, operand: Expr, *indices: int):
        if not indices:
            raise BagTypeError("Nest needs at least one attribute index")
        for index in indices:
            if not isinstance(index, int) or index < 1:
                raise BagTypeError(
                    f"Nest indices must be positive ints, got {index!r}")
        if len(set(indices)) != len(indices):
            raise BagTypeError("Nest indices must be distinct")
        self.operand = _as_expr(operand)
        self.indices = tuple(indices)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, operand, binders=None):
        return Nest(operand, *self.indices)

    def _evaluate(self, evaluator, env):
        return nest_bag(evaluator.eval(self.operand, env), self.indices,
                        evaluator.semiring)

    def _infer(self, checker, tenv) -> Type:
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType) or not isinstance(
                operand.element, TupleType):
            raise BagTypeError(
                f"Nest requires a bag of tuples, got {operand!r}")
        element = operand.element
        if max(self.indices) > element.arity:
            raise BagTypeError(
                f"Nest indices {self.indices} out of range for arity "
                f"{element.arity}")
        rest = tuple(element.attribute(i)
                     for i in range(1, element.arity + 1)
                     if i not in self.indices)
        grouped = TupleType(tuple(element.attribute(i)
                                  for i in self.indices))
        return BagType(TupleType(rest + (BagType(grouped),)))

    def _key(self):
        return (self.operand, self.indices)

    def __repr__(self) -> str:
        listed = ",".join(str(i) for i in self.indices)
        return f"ν[{listed}]({self.operand!r})"


class Unnest(Expr):
    """``unnest_i(B)``: flatten the bag-valued attribute ``i`` back
    into the tuples, multiplying multiplicities."""

    __slots__ = ("operand", "index")

    def __init__(self, operand: Expr, index: int):
        if not isinstance(index, int) or index < 1:
            raise BagTypeError(
                f"Unnest index must be a positive int, got {index!r}")
        self.operand = _as_expr(operand)
        self.index = index

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, operand, binders=None):
        return Unnest(operand, self.index)

    def _evaluate(self, evaluator, env):
        return unnest_bag(evaluator.eval(self.operand, env), self.index,
                          evaluator.semiring)

    def _infer(self, checker, tenv) -> Type:
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType) or not isinstance(
                operand.element, TupleType):
            raise BagTypeError(
                f"Unnest requires a bag of tuples, got {operand!r}")
        element = operand.element
        if self.index > element.arity:
            raise BagTypeError(
                f"Unnest index {self.index} out of range for arity "
                f"{element.arity}")
        inner = element.attribute(self.index)
        if not isinstance(inner, BagType):
            raise BagTypeError(
                f"attribute {self.index} is not bag-valued: {inner!r}")
        if isinstance(inner.element, TupleType):
            # inner tuples are spliced componentwise
            expanded: Tuple[Type, ...] = inner.element.attributes
        elif inner.element == UNKNOWN:
            expanded = (UNKNOWN,)
        else:
            expanded = (inner.element,)
        attributes = (element.attributes[:self.index - 1] + expanded
                      + element.attributes[self.index:])
        return BagType(TupleType(attributes))

    def _key(self):
        return (self.operand, self.index)

    def __repr__(self) -> str:
        return f"μ[{self.index}]({self.operand!r})"
