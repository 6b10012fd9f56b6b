"""Dict kernels for the operators with no columnar twin.

The flat BALG operators run as bulk column kernels
(:mod:`repro.engine.columnar`).  What is left here restructures
*nested* values — nest, unnest, flatten, powerset, powerbag — where the
work is per element (building a ``Tup``, opening an inner ``Bag``,
enumerating subbags) and there is no column to sweep.  Each kernel
takes a plain ``value -> count`` dict and yields ``(value, count)``
pairs in which a value may repeat; :func:`collect` sums them back into
a dict, ticking the governor as it goes, so a long expansion is
governed inside the kernel and not only after it.

No Bag is sealed and no typing pass runs until the engine's final
result.  Static well-typedness is the lowering pass's problem (and the
tree walker remains the semantics oracle); the kernels only enforce
the checks that guard memory safety (powerset budgets) and value
integrity (tuples where tuples are required).

Every kernel matches the operator semantics of :mod:`repro.core.ops`
and :mod:`repro.core.nest` exactly; the differential harness checks
bag-equality with the tree walker on generated programs.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Tuple,
)

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError, BudgetExceeded
from repro.core.ops import (
    powerbag_multiplicity, powerbag_total, powerset_cardinality,
    subbags,
)
from repro.engine.columnar import _require_tup

__all__ = ["collect", "k_flatten", "k_nest", "k_unnest", "k_powerset",
           "k_powerbag"]

#: A multiplicity stream: ``(value, count)`` pairs, values may repeat.
Rows = Iterable[Tuple[Any, int]]


def collect(rows: Rows, tick: Optional[Callable[[], None]] = None,
            every: int = 128,
            get_every: Optional[Callable[[], int]] = None,
            sr=None) -> Dict[Any, int]:
    """Materialise a multiplicity stream into a ``value -> count``
    dict, summing repeated values.

    ``tick`` (typically ``ResourceGovernor.tick``) is invoked every
    ``every`` materialised rows so step budgets, deadlines, and
    cancellation apply inside a long expansion without a per-row
    penalty.  ``get_every`` re-reads the interval after each tick, so
    an adaptive context (near-deadline halving) takes effect inside a
    long-running build instead of only at the next one.

    ``sr`` selects the multiplicity semiring; ``None`` is the int fast
    path, anything else sums collisions with ``sr.add`` (coercing
    stray int counts through ``sr.coerce``).
    """
    counts: Dict[Any, int] = {}
    get = counts.get
    if sr is None and tick is None:
        for value, count in rows:
            counts[value] = get(value, 0) + count
        return counts
    pending = 0
    for value, count in rows:
        if sr is None:
            counts[value] = get(value, 0) + count
        else:
            count = sr.coerce(count)
            existing = get(value)
            counts[value] = (count if existing is None
                             else sr.add(existing, count))
        if tick is not None:
            pending += 1
            if pending >= every:
                pending = 0
                tick()
                if get_every is not None:
                    every = get_every()
    return counts


# ----------------------------------------------------------------------
# Restructuring kernels
# ----------------------------------------------------------------------

def k_flatten(counts: Dict[Any, int], sr=None
              ) -> Iterator[Tuple[Any, int]]:
    """``delta(B)``: flatten one level of nesting, scaling the inner
    multiplicities by the outer count."""
    for inner, outer_count in counts.items():
        if not isinstance(inner, Bag):
            raise BagTypeError(
                "bag-destroy requires a bag of bags, found element "
                f"of type {type(inner).__name__}")
        if sr is None:
            for element, inner_count in inner.items():
                yield element, inner_count * outer_count
        else:
            outer_count = sr.coerce(outer_count)
            for element, inner_count in inner.items():
                yield element, sr.mul(sr.coerce(inner_count),
                                      outer_count)


def k_nest(counts: Dict[Any, int], group_indices: Tuple[int, ...],
           sr=None) -> Iterator[Tuple[Any, int]]:
    """``nest_J(B)``: group by the complement of ``group_indices``,
    collecting the J-projections into an inner bag (the grouping
    kernel; semantics of :func:`repro.core.nest.nest_bag`)."""
    groups: Dict[Tup, Dict[Any, int]] = {}
    rest_indices: Optional[Tuple[int, ...]] = None
    for element, count in counts.items():
        _require_tup(element, "nest")
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
            existing = bucket.get(grouped)
            count = sr.coerce(count)
            bucket[grouped] = (count if existing is None
                               else sr.add(existing, count))
    one = 1 if sr is None else sr.one
    for key, bucket in groups.items():
        yield Tup(*key.items(), Bag.from_counts(bucket)), one


def k_unnest(counts: Dict[Any, int], index: int, sr=None
             ) -> Iterator[Tuple[Any, int]]:
    """``unnest_i(B)``: expand the bag-valued attribute ``i``,
    multiplying multiplicities (:func:`repro.core.nest.unnest_bag`)."""
    for element, count in counts.items():
        _require_tup(element, "unnest")
        if not 1 <= index <= element.arity:
            raise BagTypeError(
                f"unnest index {index} out of range for arity "
                f"{element.arity}")
        inner = element.attribute(index)
        if not isinstance(inner, Bag):
            raise BagTypeError(f"attribute {index} is not bag-valued")
        prefix = element.items()[:index - 1]
        suffix = element.items()[index:]
        if sr is not None:
            count = sr.coerce(count)
        for member, inner_count in inner.items():
            spliced = (member.items() if isinstance(member, Tup)
                       else (member,))
            yield (Tup(*prefix, *spliced, *suffix),
                   count * inner_count if sr is None
                   else sr.mul(count, sr.coerce(inner_count)))


# ----------------------------------------------------------------------
# Powerset expansion (budget-checked before materialisation)
# ----------------------------------------------------------------------

def k_powerset(counts: Dict[Any, int], budget: Optional[int],
               sr=None) -> Iterator[Tuple[Any, int]]:
    """``P(B)``: every subbag once; the budget check fires before any
    subbag is generated (Prop 3.2 territory)."""
    if sr is not None and not sr.integer_counts:
        raise BagTypeError(
            f"powerset requires integer multiplicities; semiring "
            f"{sr.name!r} does not provide them")
    base = Bag.from_counts(counts)
    cardinality = powerset_cardinality(base)
    if budget is not None and cardinality > budget:
        raise BudgetExceeded(
            f"powerset would contain {cardinality} subbags, "
            f"budget is {budget}", budget="powerset", limit=budget,
            observed=cardinality)
    for subbag in subbags(base):
        yield subbag, 1


def k_powerbag(counts: Dict[Any, int], budget: Optional[int],
               sr=None) -> Iterator[Tuple[Any, int]]:
    """``P_b(B)``: the duplicate-aware powerset of Definition 5.1."""
    if sr is not None and not sr.integer_counts:
        raise BagTypeError(
            f"powerbag requires integer multiplicities; semiring "
            f"{sr.name!r} does not provide them")
    base = Bag.from_counts(counts)
    total = powerbag_total(base)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"powerbag would contain {total} subbags (with duplicates), "
            f"budget is {budget}", budget="powerbag", limit=budget,
            observed=total)
    for subbag in subbags(base):
        yield subbag, powerbag_multiplicity(base, subbag)
