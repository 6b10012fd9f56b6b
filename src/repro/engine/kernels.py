"""Dict-keyed multiplicity kernels for the physical engine.

The tree-walking evaluator recomputes, for **every** intermediate
result, an immutable :class:`~repro.core.bag.Bag`: a homogeneity check
over all elements, a structural ``type_of``/``unify`` pass per binary
operator, and a frozenset hash of the whole counts mapping.  Those
passes are what make chains of differences and dedups scale badly even
though the underlying mapping is already a dict.

The kernels below work directly on *multiplicity streams* — iterables
of ``(value, count)`` pairs in which the same value may appear more
than once (consumers sum the counts) — and on plain ``value -> count``
dicts for the materialised build sides.  No Bag is constructed, no
typing pass runs, no hash is taken until the engine's final result is
sealed into a Bag.  Static well-typedness is the lowering pass's
problem (and the tree walker remains the semantics oracle); the
kernels only enforce the checks that guard memory safety (powerset
budgets) and value integrity (tuples where tuples are required).

Every kernel matches the operator semantics of :mod:`repro.core.ops`
exactly; the differential fuzz suite (``tests/test_engine.py``) checks
bag-equality of the two evaluators on random well-typed programs.
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

__all__ = [
    "Rows", "collect",
    "k_additive_union", "k_monus", "k_min_intersect", "k_max_union",
    "k_dedup", "k_scale", "k_map", "k_select", "k_product",
    "k_hash_join", "k_flatten", "k_nest", "k_unnest",
    "k_powerset", "k_powerbag",
]

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
    cancellation apply to hash builds without a per-row penalty.
    ``get_every`` re-reads the interval after each tick, so an
    adaptive context (near-deadline halving) takes effect inside a
    long-running build instead of only at the next one.

    ``sr`` selects the multiplicity semiring; ``None`` is the int fast
    path, anything else sums collisions with ``sr.add`` (coercing
    stray int counts through ``sr.coerce``).
    """
    if sr is not None:
        return _collect_generic(rows, tick, every, get_every, sr)
    counts: Dict[Any, int] = {}
    get = counts.get
    if tick is None:
        for value, count in rows:
            counts[value] = get(value, 0) + count
        return counts
    pending = 0
    for value, count in rows:
        counts[value] = get(value, 0) + count
        pending += 1
        if pending >= every:
            pending = 0
            tick()
            if get_every is not None:
                every = get_every()
    return counts


def _collect_generic(rows: Rows, tick, every, get_every,
                     sr) -> Dict[Any, int]:
    """Generic-semiring :func:`collect` (same governance contract)."""
    counts: Dict[Any, int] = {}
    get = counts.get
    coerce, add = sr.coerce, sr.add
    pending = 0
    for value, count in rows:
        count = coerce(count)
        existing = get(value)
        counts[value] = count if existing is None else add(existing,
                                                           count)
        if tick is not None:
            pending += 1
            if pending >= every:
                pending = 0
                tick()
                if get_every is not None:
                    every = get_every()
    return counts


# ----------------------------------------------------------------------
# Union family: monus / min / max need both sides exact, so the right
# side is a materialised dict; additive union is fully streaming.
# ----------------------------------------------------------------------

def k_additive_union(left: Rows, right: Rows) -> Iterator[Tuple[Any, int]]:
    """``B (+) B'``: concatenate the streams; consumers sum counts."""
    yield from left
    yield from right


def k_monus(left: Dict[Any, int], right: Dict[Any, int],
            sr=None) -> Iterator[Tuple[Any, int]]:
    """``B - B'``: monus on multiplicities (n = max(0, p - q))."""
    get = right.get
    if sr is None:
        for value, count in left.items():
            remaining = count - get(value, 0)
            if remaining > 0:
                yield value, remaining
    else:
        coerce, monus, is_zero = sr.coerce, sr.monus, sr.is_zero
        for value, count in left.items():
            remaining = monus(coerce(count), coerce(get(value, 0)))
            if not is_zero(remaining):
                yield value, remaining


def k_min_intersect(small: Dict[Any, int], large: Dict[Any, int],
                    sr=None) -> Iterator[Tuple[Any, int]]:
    """``B n B'``: nonzero min of multiplicities; probe the smaller."""
    get = large.get
    if sr is None:
        for value, count in small.items():
            other = get(value, 0)
            if other > 0:
                yield value, count if count < other else other
    else:
        coerce, meet, is_zero = sr.coerce, sr.min_, sr.is_zero
        for value, count in small.items():
            other = get(value)
            # incomparable annotations (provenance) can meet at zero
            if other is not None and not is_zero(
                    both := meet(coerce(count), coerce(other))):
                yield value, both


def k_max_union(left: Dict[Any, int], right: Dict[Any, int],
                sr=None) -> Iterator[Tuple[Any, int]]:
    """``B u B'``: max of multiplicities."""
    if sr is None:
        left_get = left.get
        for value, count in left.items():
            other = right.get(value, 0)
            yield value, count if count > other else other
        for value, count in right.items():
            if left_get(value, 0) == 0:
                yield value, count
    else:
        coerce, join = sr.coerce, sr.max_
        for value, count in left.items():
            other = right.get(value)
            count = coerce(count)
            yield value, (count if other is None
                          else join(count, coerce(other)))
        for value, count in right.items():
            if value not in left:
                yield value, coerce(count)


# ----------------------------------------------------------------------
# Streaming unary kernels
# ----------------------------------------------------------------------

def k_dedup(rows: Rows, sr=None) -> Iterator[Tuple[Any, int]]:
    """``eps(B)``: emit each distinct value once with count 1 (the
    semiring's ``one``).

    Streams with an O(distinct) seen-set, so a dedup above a pipelined
    union never materialises the union.
    """
    seen = set()
    add = seen.add
    one = 1 if sr is None else sr.one
    for value, _ in rows:
        if value not in seen:
            add(value)
            yield value, one


def k_scale(rows: Rows, factor: int, sr=None
            ) -> Iterator[Tuple[Any, int]]:
    """Multiply every multiplicity by a constant ``factor`` — the
    kernel behind ``e (+) e (+) ... (+) e`` of a shared subexpression."""
    if sr is None:
        for value, count in rows:
            yield value, count * factor
    else:
        scale = sr.scale
        for value, count in rows:
            yield value, scale(count, factor)


def k_map(rows: Rows, fn: Callable[[Any], Any]
          ) -> Iterator[Tuple[Any, int]]:
    """``MAP_phi(B)``: image stream; colliding images are summed by the
    consumer, matching the additive restructuring semantics."""
    for value, count in rows:
        yield fn(value), count


def k_select(rows: Rows, predicate: Callable[[Any], bool]
             ) -> Iterator[Tuple[Any, int]]:
    """``sigma(B)``: keep satisfying values, multiplicities unchanged."""
    for value, count in rows:
        if predicate(value):
            yield value, count


# ----------------------------------------------------------------------
# Product / join kernels
# ----------------------------------------------------------------------

def _require_tup(value: Any, operation: str) -> Tup:
    if not isinstance(value, Tup):
        raise BagTypeError(
            f"{operation} requires bags of tuples, found element of "
            f"type {type(value).__name__}")
    return value


def k_product(probe: Rows, build: Dict[Any, int],
              sr=None) -> Iterator[Tuple[Any, int]]:
    """``B x B'``: nested-loop product against a materialised build
    side; counts multiply and tuples concatenate."""
    build_items = list(build.items())
    for value in build:
        _require_tup(value, "cartesian product")
    if sr is None:
        for left, lcount in probe:
            _require_tup(left, "cartesian product")
            for right, rcount in build_items:
                yield left.concat(right), lcount * rcount
    else:
        coerce, mul = sr.coerce, sr.mul
        for left, lcount in probe:
            _require_tup(left, "cartesian product")
            lcount = coerce(lcount)
            for right, rcount in build_items:
                yield left.concat(right), mul(lcount, coerce(rcount))


def k_hash_join(probe: Rows, build: Dict[Any, int],
                probe_key: Callable[[Tup], Any],
                build_key: Callable[[Tup], Any],
                probe_is_left: bool, sr=None
                ) -> Iterator[Tuple[Any, int]]:
    """Equi-join kernel for ``sigma_{alpha_i = alpha_j}(B x B')``.

    The build side is hashed on its key attributes; the probe side
    streams.  ``probe_is_left`` restores the concatenation order of
    the logical product (the build side is chosen by estimated size,
    not by syntactic position).
    """
    table: Dict[Any, list] = {}
    if sr is None:
        for value, count in build.items():
            _require_tup(value, "hash join")
            table.setdefault(build_key(value), []).append((value, count))
        for value, count in probe:
            _require_tup(value, "hash join")
            matches = table.get(probe_key(value))
            if not matches:
                continue
            if probe_is_left:
                for other, other_count in matches:
                    yield value.concat(other), count * other_count
            else:
                for other, other_count in matches:
                    yield other.concat(value), count * other_count
    else:
        coerce, mul = sr.coerce, sr.mul
        for value, count in build.items():
            _require_tup(value, "hash join")
            table.setdefault(build_key(value), []).append(
                (value, coerce(count)))
        for value, count in probe:
            _require_tup(value, "hash join")
            matches = table.get(probe_key(value))
            if not matches:
                continue
            count = coerce(count)
            if probe_is_left:
                for other, other_count in matches:
                    yield value.concat(other), mul(count, other_count)
            else:
                for other, other_count in matches:
                    yield other.concat(value), mul(count, other_count)


# ----------------------------------------------------------------------
# Restructuring kernels
# ----------------------------------------------------------------------

def k_flatten(rows: Rows, sr=None) -> Iterator[Tuple[Any, int]]:
    """``delta(B)``: flatten one level of nesting, scaling the inner
    multiplicities by the outer count."""
    if sr is None:
        for inner, outer_count in rows:
            if not isinstance(inner, Bag):
                raise BagTypeError(
                    "bag-destroy requires a bag of bags, found element "
                    f"of type {type(inner).__name__}")
            for element, inner_count in inner.items():
                yield element, inner_count * outer_count
    else:
        coerce, mul = sr.coerce, sr.mul
        for inner, outer_count in rows:
            if not isinstance(inner, Bag):
                raise BagTypeError(
                    "bag-destroy requires a bag of bags, found element "
                    f"of type {type(inner).__name__}")
            outer_count = coerce(outer_count)
            for element, inner_count in inner.items():
                yield element, mul(coerce(inner_count), outer_count)


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


def k_unnest(rows: Rows, index: int, sr=None
             ) -> Iterator[Tuple[Any, int]]:
    """``unnest_i(B)``: expand the bag-valued attribute ``i``,
    multiplying multiplicities (:func:`repro.core.nest.unnest_bag`)."""
    for element, count in rows:
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
        if sr is None:
            for member, inner_count in inner.items():
                spliced = (member.items() if isinstance(member, Tup)
                           else (member,))
                yield (Tup(*prefix, *spliced, *suffix),
                       count * inner_count)
        else:
            count = sr.coerce(count)
            for member, inner_count in inner.items():
                spliced = (member.items() if isinstance(member, Tup)
                           else (member,))
                yield (Tup(*prefix, *spliced, *suffix),
                       sr.mul(count, sr.coerce(inner_count)))


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
