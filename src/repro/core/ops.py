"""Operational semantics of every BALG operator (Section 3).

Each operator is a pure function from immutable values to immutable
values.  The functions check the polymorphic typing restrictions stated
in the paper (e.g. union applies only to bags of the same type,
Cartesian product only to bags of tuples) and raise
:class:`~repro.core.errors.BagTypeError` otherwise.

Operator inventory (paper notation -> function):

===================  =======================  =============================
Basic                ``B (+) B'``             :func:`additive_union`
                     ``B - B'``               :func:`subtraction`
                     ``B u B'`` (maximal)     :func:`max_union`
                     ``B n B'``               :func:`intersection`
Constructive         ``tau(o1..ok)``          :func:`tupling`
                     ``beta(o)``              :func:`bagging`
                     ``B x B'``               :func:`cartesian`
                     ``P(B)``                 :func:`powerset`
Destructive          ``alpha_i(o)``           :func:`attribute`
                     ``delta(B)``             :func:`bag_destroy`
Filters              ``MAP_phi(B)``           :func:`map_bag`
                     ``sigma_{phi=phi'}(B)``  :func:`select`
                     ``eps(B)``               :func:`dedup`
Section 5 variant    ``P_b(B)`` (powerbag)    :func:`powerbag`
===================  =======================  =============================

The powerset of a bag with counts ``{e_i: c_i}`` has exactly
``prod(c_i + 1)`` distinct subbags, each with multiplicity one; the
powerbag gives subbag ``{e_i: j_i}`` multiplicity ``prod C(c_i, j_i)``,
summing to ``2^|B|`` (Definition 5.1).  Both are materialised lazily via
generators so callers can impose budgets before the exponential blow-up.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from typing import Any, Callable, Dict, Iterator, Optional

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError, BudgetExceeded
from repro.core.semiring import Semiring
from repro.core.types import type_of, unify

__all__ = [
    "additive_union", "subtraction", "max_union", "intersection",
    "tupling", "bagging", "cartesian", "powerset", "powerbag",
    "attribute", "bag_destroy", "map_bag", "select", "dedup",
    "project", "member", "contains_subbag", "subbags",
    "powerset_cardinality", "powerbag_total", "powerbag_multiplicity",
]


# ----------------------------------------------------------------------
# Typing helpers
# ----------------------------------------------------------------------

def _require_bag(value: Any, operation: str) -> Bag:
    if not isinstance(value, Bag):
        raise BagTypeError(
            f"{operation} expects a bag, got {type(value).__name__}")
    return value


def _require_same_type(left: Bag, right: Bag, operation: str) -> None:
    """Union-family operators apply only to bags of the same type."""
    try:
        unify(type_of(left), type_of(right))
    except BagTypeError as exc:
        raise BagTypeError(
            f"{operation} requires bags of the same type: "
            f"{type_of(left)!r} vs {type_of(right)!r}") from exc


def _require_integer_counts(sr: Optional[Semiring],
                            operation: str) -> None:
    """Powerset-family operators enumerate subbags by integer
    multiplicity, which only makes sense for integer-count semirings
    (N, Bool)."""
    if sr is not None and not sr.integer_counts:
        raise BagTypeError(
            f"{operation} is not defined over the {sr.name} semiring "
            "(non-integer multiplicities)")


# ----------------------------------------------------------------------
# Basic bag operations
# ----------------------------------------------------------------------

def additive_union(left: Bag, right: Bag,
                   sr: Optional[Semiring] = None) -> Bag:
    """``B (+) B'``: multiplicities add (n = p + q)."""
    _require_bag(left, "additive union")
    _require_bag(right, "additive union")
    _require_same_type(left, right, "additive union")
    counts: Dict[Any, int]
    if sr is None:
        counts = left.counts()  # already a fresh dict
        for element, count in right.items():
            counts[element] = counts.get(element, 0) + count
    else:
        coerce, add = sr.coerce, sr.add
        counts = {element: coerce(count)
                  for element, count in left.items()}
        for element, count in right.items():
            count = coerce(count)
            existing = counts.get(element)
            counts[element] = (count if existing is None
                               else add(existing, count))
    return Bag.from_counts(counts)


def subtraction(left: Bag, right: Bag,
                sr: Optional[Semiring] = None) -> Bag:
    """``B - B'``: proper bag difference (n = max(0, p - q)); in a
    general semiring the monus ``p ∸ q``."""
    _require_bag(left, "subtraction")
    _require_bag(right, "subtraction")
    _require_same_type(left, right, "subtraction")
    counts: Dict[Any, int] = {}
    if sr is None:
        for element, count in left.items():
            remaining = count - right.multiplicity(element)
            if remaining > 0:
                counts[element] = remaining
    else:
        coerce, monus, is_zero = sr.coerce, sr.monus, sr.is_zero
        for element, count in left.items():
            remaining = monus(coerce(count),
                              coerce(right.multiplicity(element)))
            if not is_zero(remaining):
                counts[element] = remaining
    return Bag.from_counts(counts)


def max_union(left: Bag, right: Bag,
              sr: Optional[Semiring] = None) -> Bag:
    """``B u B'`` (maximal union): n = max(p, q) — the natural-order
    join in a general semiring."""
    _require_bag(left, "maximal union")
    _require_bag(right, "maximal union")
    _require_same_type(left, right, "maximal union")
    counts: Dict[Any, int]
    if sr is None:
        counts = left.counts()  # already a fresh dict
        for element, count in right.items():
            counts[element] = max(counts.get(element, 0), count)
    else:
        coerce, join = sr.coerce, sr.max_
        counts = {element: coerce(count)
                  for element, count in left.items()}
        for element, count in right.items():
            count = coerce(count)
            existing = counts.get(element)
            counts[element] = (count if existing is None
                               else join(existing, count))
    return Bag.from_counts(counts)


def intersection(left: Bag, right: Bag,
                 sr: Optional[Semiring] = None) -> Bag:
    """``B n B'``: n = min(p, q) — the natural-order meet in a general
    semiring."""
    _require_bag(left, "intersection")
    _require_bag(right, "intersection")
    _require_same_type(left, right, "intersection")
    counts: Dict[Any, int] = {}
    if sr is None:
        for element, count in left.items():
            other = right.multiplicity(element)
            if other > 0:
                counts[element] = min(count, other)
    else:
        coerce, meet = sr.coerce, sr.min_
        for element, count in left.items():
            if element in right:
                counts[element] = meet(
                    coerce(count), coerce(right.multiplicity(element)))
    return Bag.from_counts(counts)


# ----------------------------------------------------------------------
# Constructive operations
# ----------------------------------------------------------------------

def tupling(*objects: Any) -> Tup:
    """``tau(o1, ..., ok)``: build a k-ary tuple."""
    return Tup(*objects)


def bagging(obj: Any) -> Bag:
    """``beta(o)``: the singleton bag ``[[o]]`` (o 1-belongs)."""
    return Bag.of(obj)


def cartesian(left: Bag, right: Bag,
              sr: Optional[Semiring] = None) -> Bag:
    """``B x B'``: bags of tuples; multiplicities multiply (n = p*q)
    and the tuples are concatenated (arity k + k')."""
    _require_bag(left, "cartesian product")
    _require_bag(right, "cartesian product")
    for bag, side in ((left, "left"), (right, "right")):
        for element in bag.distinct():
            if not isinstance(element, Tup):
                raise BagTypeError(
                    f"cartesian product requires bags of tuples; "
                    f"{side} operand contains {type(element).__name__}")
    counts: Dict[Any, int] = {}
    if sr is None:
        for ltuple, lcount in left.items():
            for rtuple, rcount in right.items():
                counts[ltuple.concat(rtuple)] = lcount * rcount
    else:
        coerce, mul = sr.coerce, sr.mul
        for ltuple, lcount in left.items():
            lcount = coerce(lcount)
            for rtuple, rcount in right.items():
                counts[ltuple.concat(rtuple)] = mul(
                    lcount, coerce(rcount))
    return Bag.from_counts(counts)


def subbags(bag: Bag) -> Iterator[Bag]:
    """Enumerate the distinct subbags of ``bag`` lazily.

    A subbag picks ``j_i`` copies of each distinct element ``e_i`` with
    ``0 <= j_i <= c_i``; there are ``prod(c_i + 1)`` of them.
    """
    elements = list(bag.items())
    ranges = [range(count + 1) for _, count in elements]
    for choice in itertools.product(*ranges):
        counts = {element: picked
                  for (element, _), picked in zip(elements, choice)
                  if picked > 0}
        yield Bag.from_counts(counts)


def powerset_cardinality(bag: Bag) -> int:
    """``|P(B)| = prod(c_i + 1)`` without materialising anything.

    For the single-constant bag of Section 1 this is ``n + 1``, the
    number the paper contrasts with the powerbag's ``2^n``.
    """
    return prod(count + 1 for _, count in bag.items())


def powerset(bag: Bag, budget: Optional[int] = None,
             sr: Optional[Semiring] = None) -> Bag:
    """``P(B)``: the bag of all subbags of B, each with multiplicity 1.

    ``budget`` caps the number of subbags materialised;
    :class:`~repro.core.errors.BudgetExceeded` (a
    :class:`ResourceLimitError`) is raised when the true cardinality
    exceeds it (checked *before* materialisation).
    """
    _require_bag(bag, "powerset")
    _require_integer_counts(sr, "powerset")
    cardinality = powerset_cardinality(bag)
    if budget is not None and cardinality > budget:
        raise BudgetExceeded(
            f"powerset would contain {cardinality} subbags, "
            f"budget is {budget}", budget="powerset", limit=budget,
            observed=cardinality)
    return Bag.from_counts({subbag: 1 for subbag in subbags(bag)})


def powerbag_total(bag: Bag) -> int:
    """``|P_b(B)| = 2^|B|`` counting duplicates (Definition 5.1)."""
    return 2 ** bag.cardinality


def powerbag_multiplicity(bag: Bag, subbag: Bag) -> int:
    """Multiplicity of ``subbag`` inside ``P_b(bag)``:
    ``prod C(c_i, j_i)`` over distinct elements.

    Follows from Definition 5.1: tagging the ``c_i`` occurrences of
    ``e_i`` apart, a subbag retaining ``j_i`` of them arises from
    ``C(c_i, j_i)`` distinct tag choices.
    """
    if not subbag.is_subbag_of(bag):
        return 0
    return prod(comb(count, subbag.multiplicity(element))
                for element, count in bag.items())


def powerbag(bag: Bag, budget: Optional[int] = None,
             sr: Optional[Semiring] = None) -> Bag:
    """``P_b(B)``: the duplicate-aware powerset (Definition 5.1).

    Its output is a *bag* of bags: each subbag occurs once per way of
    choosing which tagged occurrences survive, so the total count is
    ``2^|B|``.  E.g. ``P_b([[a, a]]) = [[ {{}}, {{a}}, {{a}}, {{a,a}} ]]``.
    """
    _require_bag(bag, "powerbag")
    _require_integer_counts(sr, "powerbag")
    total = powerbag_total(bag)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"powerbag would contain {total} subbags (with duplicates), "
            f"budget is {budget}", budget="powerbag", limit=budget,
            observed=total)
    counts = {subbag: powerbag_multiplicity(bag, subbag)
              for subbag in subbags(bag)}
    return Bag.from_counts(counts)


# ----------------------------------------------------------------------
# Destructive operations
# ----------------------------------------------------------------------

def attribute(obj: Tup, i: int) -> Any:
    """``alpha_i(o)``: project the i-th attribute of a tuple (1-based)."""
    if not isinstance(obj, Tup):
        raise BagTypeError(
            f"attribute projection expects a tuple, got "
            f"{type(obj).__name__}")
    try:
        return obj.attribute(i)
    except IndexError as exc:
        raise BagTypeError(str(exc)) from exc


def bag_destroy(bag: Bag, sr: Optional[Semiring] = None) -> Bag:
    """``delta(B)``: remove one level of bag nesting by additive union
    of the member bags, *with* multiplicity: a member bag occurring
    twice contributes twice."""
    _require_bag(bag, "bag-destroy")
    counts: Dict[Any, int] = {}
    if sr is None:
        for inner, outer_count in bag.items():
            if not isinstance(inner, Bag):
                raise BagTypeError(
                    "bag-destroy requires a bag of bags, found element "
                    f"of type {type(inner).__name__}")
            for element, inner_count in inner.items():
                counts[element] = (counts.get(element, 0)
                                   + inner_count * outer_count)
    else:
        coerce, add, mul = sr.coerce, sr.add, sr.mul
        for inner, outer_count in bag.items():
            if not isinstance(inner, Bag):
                raise BagTypeError(
                    "bag-destroy requires a bag of bags, found element "
                    f"of type {type(inner).__name__}")
            outer = coerce(outer_count)
            for element, inner_count in inner.items():
                contribution = mul(coerce(inner_count), outer)
                existing = counts.get(element)
                counts[element] = (contribution if existing is None
                                   else add(existing, contribution))
    return Bag.from_counts(counts)


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------

def map_bag(func: Callable[[Any], Any], bag: Bag,
            sr: Optional[Semiring] = None) -> Bag:
    """``MAP_phi(B)``: apply ``func`` to every member, *adding* the
    multiplicities of members that collide (Section 3's restructuring).

    E.g. ``MAP_beta([[a, a, b]]) = [[ {{a}}, {{a}}, {{b}} ]]`` — the
    image {{a}} occurs twice because two members mapped to it.
    """
    _require_bag(bag, "MAP")
    counts: Dict[Any, int] = {}
    if sr is None:
        for element, count in bag.items():
            image = func(element)
            counts[image] = counts.get(image, 0) + count
    else:
        coerce, add = sr.coerce, sr.add
        for element, count in bag.items():
            image = func(element)
            count = coerce(count)
            existing = counts.get(image)
            counts[image] = (count if existing is None
                             else add(existing, count))
    return Bag.from_counts(counts)


def select(predicate: Callable[[Any], bool], bag: Bag,
           sr: Optional[Semiring] = None) -> Bag:
    """``sigma_{phi=phi'}(B)``: keep the members satisfying the
    predicate, multiplicities unchanged.

    The paper's selections compare two lambda expressions for equality;
    at this operational level any boolean predicate is accepted — the
    AST layer (:mod:`repro.core.expr`) restricts selections to
    equality tests between algebra lambdas.  ``sr`` is accepted for
    signature uniformity; selection performs no count arithmetic.
    """
    _require_bag(bag, "selection")
    counts = {element: count for element, count in bag.items()
              if predicate(element)}
    return Bag.from_counts(counts)


def dedup(bag: Bag, sr: Optional[Semiring] = None) -> Bag:
    """``eps(B)``: duplicate elimination; every present element ends up
    1-belonging (annotated with ``one``) in the result."""
    _require_bag(bag, "duplicate elimination")
    one = 1 if sr is None else sr.one
    return Bag.from_counts({element: one for element in bag.distinct()})


# ----------------------------------------------------------------------
# Derived predicates (expressible in the algebra; provided natively for
# convenience, cf. "membership and containment tests can be expressed")
# ----------------------------------------------------------------------

def project(bag: Bag, *indices: int) -> Bag:
    """``pi_{i1,...,in}(B)``: the MAP that keeps attributes i1..in
    (1-based), the paper's abbreviation for
    ``MAP_{lambda x.[alpha_i1(x), ...]}``."""
    return map_bag(
        lambda member: Tup(*(attribute(member, i) for i in indices)), bag)


def member(obj: Any, bag: Bag) -> bool:
    """Membership test: does ``obj`` p-belong to ``bag`` for some p>0?"""
    _require_bag(bag, "membership test")
    return obj in bag


def contains_subbag(left: Bag, right: Bag) -> bool:
    """Containment test: is ``right`` a subbag of ``left``?"""
    return right.is_subbag_of(left)
