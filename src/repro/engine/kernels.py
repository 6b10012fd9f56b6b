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

No outer Bag is sealed and no typing pass runs until the engine's
final result.  Static well-typedness is the lowering pass's problem
(and the tree walker remains the semantics oracle); the kernels only
enforce the checks that guard memory safety (powerset budgets) and
value integrity (tuples where tuples are required, and — in
:func:`k_nest`, whose inner bags *are* sealed here — rows of one
shape).

Nest and unnest only rearrange values a checked constructor has seen,
so they run on the trusted path: index plans
(:func:`~repro.engine.columnar.pick_getter`) over raw item tuples,
:meth:`Tup.trusted <repro.core.bag.Tup.trusted>` per output value,
:meth:`Bag.trusted <repro.core.bag.Bag.trusted>` per group, shapes
derived from the input rows' own instead of re-walked per member.

Every kernel matches the operator semantics of :mod:`repro.core.ops`
and :mod:`repro.core.nest` exactly; the differential harness checks
bag-equality with the tree walker on generated programs.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Tuple,
)

from repro.core.bag import (
    Bag, Tup, _merge_shapes, _shape_of, _splice_shape, _tup_shape,
)
from repro.core.database import _rigid_size
from repro.core.errors import (
    BagTypeError, BudgetExceeded, HeterogeneousBagError,
)
from repro.core.ops import (
    powerbag_multiplicity, powerbag_total, powerset_cardinality,
    subbags,
)
from repro.engine.columnar import _require_tup, pick_getter

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
    kernel; semantics of :func:`repro.core.nest.nest_bag`).

    Rows are grouped on the raw item tuple of their key under two
    index plans; a ``Tup`` is wrapped once per member and per group,
    and each inner bag is sealed once (:meth:`Bag.trusted`) with a
    shape picked off the rows' own.  Homogeneity is checked here, per
    input row, which is what licenses that: rows whose shapes only
    *merge* (an empty inner bag beside a full one) take the checked
    seal.  No two rows meet in one member — the two plans partition a
    row's attributes and the rows are distinct — so a bucket is
    filled by assignment."""
    low, high = min(group_indices), max(group_indices)
    pick_grouped = pick_getter(group_indices)
    pick_rest = None      # the complement, known with the first arity
    shape = None          # the rows' merged shape so far
    uniform = True        # ... and every row's own shape equals it
    groups: Dict[tuple, Dict[Tup, Any]] = {}
    trusted = Tup.trusted
    for element, count in counts.items():
        _require_tup(element, "nest")
        items = element._items
        if high > len(items) or low < 1:
            raise BagTypeError(
                f"nest indices {group_indices} out of range for arity "
                f"{len(items)}")
        row_shape = element._shape
        if row_shape is None:  # a trusted upstream row, not yet walked
            row_shape = _shape_of(element)
        if row_shape is not shape and row_shape != shape:
            if shape is None:
                shape = row_shape
                pick_rest = pick_getter(tuple(
                    i for i in range(1, len(items) + 1)
                    if i not in group_indices))
            else:
                merged = _merge_shapes(shape, row_shape)
                if merged is None:
                    raise HeterogeneousBagError(
                        "bags must be homogeneous: cannot mix elements "
                        f"of shapes {shape} and {row_shape}")
                shape, uniform = merged, False
        key = pick_rest(items)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = {}
        bucket[trusted(pick_grouped(items))] = (
            count if sr is None else sr.coerce(count))
    if uniform and groups:
        member_shape = _tup_shape(pick_grouped(shape[1]))
        out_shape = _tup_shape(pick_rest(shape[1])
                               + (("bag", member_shape),))
    one = 1 if sr is None else sr.one
    for key, bucket in groups.items():
        # from_counts' guarantee: no zero (or negative) multiplicity
        # is ever sealed unchecked
        if uniform and (min(bucket.values()) > 0 if sr is None else
                        not any(map(sr.is_zero, bucket.values()))):
            yield trusted(key + (Bag.trusted(bucket, member_shape),),
                          out_shape), one
        else:
            yield trusted(key + (Bag.from_counts(bucket),)), one


def k_unnest(counts: Dict[Any, int], index: int, sr=None
             ) -> Iterator[Tuple[Any, int]]:
    """``unnest_i(B)``: expand the bag-valued attribute ``i``,
    multiplying multiplicities (:func:`repro.core.nest.unnest_bag`).

    A spliced row only rearranges validated values, and its shape is
    the outer row's with its member's shape spliced in (interned), so
    the homogeneity pass of whoever seals the rows compares identities
    instead of walking each one.  When the inner bag's shape holds no
    bag, that is the bag's shape, spliced once per outer row; otherwise
    a member's own shape can be less specific than the bag's (an empty
    inner bag beside a full one), and each member's is spliced — the
    row's shape is its type (:func:`repro.core.types.type_of`) — after
    the check that it merges into the bag's sealed shape."""
    trusted = Tup.trusted
    for element, count in counts.items():
        _require_tup(element, "unnest")
        items = element._items
        if not 1 <= index <= len(items):
            raise BagTypeError(
                f"unnest index {index} out of range for arity "
                f"{len(items)}")
        inner = items[index - 1]
        if not isinstance(inner, Bag):
            raise BagTypeError(f"attribute {index} is not bag-valued")
        prefix = items[:index - 1]
        suffix = items[index:]
        if sr is not None:
            count = sr.coerce(count)
        shape = outer = None
        if inner._counts:
            outer = element._shape or _shape_of(element)
            if _rigid_size(inner._shape) is not None:
                shape = _splice_shape(outer, index, inner._shape)
        for member, inner_count in inner._counts.items():
            spliced = (member._items if isinstance(member, Tup)
                       else (member,))
            yield (trusted(prefix + spliced + suffix, shape or
                           _member_row_shape(outer, index, inner, member)),
                   count * inner_count if sr is None
                   else sr.mul(count, sr.coerce(inner_count)))


def _member_row_shape(outer: tuple, index: int, inner: Bag,
                      member: Any) -> tuple:
    """The shape of the row unnesting ``member`` of ``inner`` splices,
    where ``inner``'s shape holds a bag: the member's own shape,
    spliced, once it is checked to merge into the shape ``inner`` was
    sealed with (a member that does not is a seal gone wrong, refused
    here as the checked seal would refuse it)."""
    member_shape = _shape_of(member)
    if _merge_shapes(inner._shape, member_shape) is None:
        raise HeterogeneousBagError(
            "bags must be homogeneous: cannot mix elements of shapes "
            f"{inner._shape} and {member_shape}")
    return _splice_shape(outer, index, member_shape)


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
