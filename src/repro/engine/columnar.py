"""Columnar bag representation + count-vector kernels.

The paper's flat operators are whole-bag count arithmetic, and this
module is where the step programs of :mod:`repro.engine.codegen` do
it: a bag is two parallel arrays — a value array and a
multiplicity-count array — and each kernel is one C-speed bulk
operation (a dict comprehension, ``dict.fromkeys``, a list
comprehension) over whole columns, so no row pays interpreter
dispatch per operator.  Hash-style operators (monus, min-intersect,
max-union, join/product build sides) use plain ``value -> count``
dicts, the dictionary form of the same columns.

Semantics match :mod:`repro.core.ops` exactly — the differential
harness's ``engine`` backends and the mutation tests in
``tests/test_columnar.py`` pin this (a mutant that forgets the monus
zero-clamp, the join multiplicity product, or the dedup collapse of
the count column is caught within a handful of generated cases).

A *rearrangement* — the paper's ``pi_{i1..in}``, a MAP whose lambda
only picks attributes of its own row — is an **index plan**:
:func:`pick_getter` turns the picks into one ``operator.itemgetter``
over a row's item tuple.  Directly on a product or a join the
projection runs inside the quadratic kernel (``picks=``): each pair's
count is summed under the picked raw item tuple and a ``Tup`` is built
once per *distinct* output row, so the joined rows never exist.  Under
``eps`` (``dedup=True``, with or without ``picks``) the kernel reads no
count and multiplies none: it writes the support, each row with one.

Typing: the steps that consume both operands of ``(+)``, ``-``, ``u``
or ``n`` first call :func:`require_same_type`, the walker's check with
the walker's error, read off one row per side.

Governance: the quadratic kernels (:func:`c_product`,
:func:`c_hash_join`) accept a ``tick`` callable and invoke it once
per ``TICK_CHUNK`` output rows, so step budgets, deadlines, and
cancellation reach inside a single fused kernel.  The linear kernels
are governed by their caller per kernel invocation (the fused
segment's steps tick proportionally to each result's size).
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.bag import (
    Bag, Tup, _check_homogeneous, _concat_shape, _merge_shapes,
    _shape_of,
)
from repro.core.database import _rigid_size
from repro.core.errors import BagTypeError
from repro.core.ops import _require_same_type
from repro.core.ops import attribute as ops_attribute

__all__ = [
    "ColumnarBag", "to_columnar", "from_columnar", "columnar_counts",
    "sum_counts", "TICK_CHUNK", "require_same_type",
    "c_monus", "c_min_intersect", "c_max_union", "c_add_union",
    "c_dedup", "c_scale", "c_scale_dict", "c_map", "c_select",
    "c_product", "c_hash_join", "c_sym_diff_dedup", "pick_getter",
]

#: Output rows between governor ticks inside a quadratic kernel.
TICK_CHUNK = 1024


class ColumnarBag:
    """A bag as two parallel columns: values and multiplicity counts.

    ``distinct=True`` asserts the value column has no repeats (scans
    and dict-kernel outputs); ``False`` means repeated values must be
    summed on materialisation (map images, union concatenations).
    """

    __slots__ = ("values", "counts", "distinct")

    def __init__(self, values: Sequence[Any], counts: Sequence[int],
                 distinct: bool = False):
        if len(values) != len(counts):
            raise ValueError(
                f"column length mismatch: {len(values)} values vs "
                f"{len(counts)} counts")
        self.values = list(values)
        self.counts = list(counts)
        self.distinct = distinct

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return (f"ColumnarBag({len(self.values)} rows, "
                f"distinct={self.distinct})")


def to_columnar(bag: Bag) -> ColumnarBag:
    """Decompose a sealed bag into parallel value/count columns."""
    if not isinstance(bag, Bag):
        raise BagTypeError(
            f"to_columnar expects a Bag, got {type(bag).__name__}")
    values: List[Any] = []
    counts: List[int] = []
    for value, count in bag.items():
        values.append(value)
        counts.append(count)
    return ColumnarBag(values, counts, distinct=True)


def from_columnar(col: ColumnarBag) -> Bag:
    """Seal columns back into a bag (inverse of :func:`to_columnar`)."""
    return Bag.from_counts(columnar_counts(col))


def columnar_counts(col: ColumnarBag, sr=None) -> Dict[Any, int]:
    """The dictionary form of a columnar bag."""
    if col.distinct:
        return dict(zip(col.values, col.counts))
    return sum_counts(col.values, col.counts, sr)


def sum_counts(values: Iterable[Any],
               counts: Iterable[int], sr=None) -> Dict[Any, int]:
    """Materialise possibly-repeating columns, summing counts."""
    out: Dict[Any, int] = {}
    get = out.get
    if sr is None:
        for value, count in zip(values, counts):
            out[value] = get(value, 0) + count
    else:
        add = sr.add
        for value, count in zip(values, counts):
            existing = get(value)
            out[value] = count if existing is None else add(existing,
                                                            count)
    return out


# ----------------------------------------------------------------------
# The union family's type check
# ----------------------------------------------------------------------

def require_same_type(left: Iterable[Any], right: Iterable[Any],
                      operation: str, swapped: bool = False) -> None:
    """The tree walker's check that ``(+)``, ``-``, ``u`` and ``n`` see
    bags of one type, on two step operands (counts dicts or value
    columns), with the walker's verdict: an empty side unifies with
    anything, and otherwise the sides' shapes must merge — which is
    where their types unify.  On a mismatch both sides are sealed and
    :func:`repro.core.ops._require_same_type` raises, so the error's
    subtype and text are the walker's (``swapped``: ``left`` is the
    operator's right operand).

    O(1) per side unless its first row holds an empty inner bag
    (:func:`_side_shape`)."""
    if not left or not right:
        return
    left_shape, right_shape = _side_shape(left), _side_shape(right)
    if (left_shape is right_shape
            or _merge_shapes(left_shape, right_shape) is not None):
        return
    sides = [Bag.from_counts(dict.fromkeys(rows, 1))
             for rows in (left, right)]
    if swapped:
        sides.reverse()
    _require_same_type(sides[0], sides[1], operation)


def _side_shape(rows: Iterable[Any]):
    """A non-empty operand's merged shape.  That is its first row's —
    the other rows of a homogeneous operand merge into it unchanged —
    unless the row holds an empty inner bag's ``("bag", None)``, which
    a later row may fill; then every row's shape is merged."""
    shape = _shape_of(next(iter(rows)))
    if _rigid_size(shape) is None and _has_placeholder(shape):
        shape = _check_homogeneous(rows)
    return shape


def _has_placeholder(shape) -> bool:
    """Whether ``shape`` holds an empty bag's ``("bag", None)``."""
    if shape is None:
        return True
    if shape[0] == "atom":
        return False
    if shape[0] == "bag":
        return _has_placeholder(shape[1])
    return any(_has_placeholder(item) for item in shape[1])


# ----------------------------------------------------------------------
# Dict kernels (hash sides: both columns already materialised)
# ----------------------------------------------------------------------

def c_monus(left: Dict[Any, int],
            right: Dict[Any, int], sr=None) -> Dict[Any, int]:
    """``B - B'``: monus on multiplicities, ``max(0, p - q)`` with the
    zeroes dropped."""
    get = right.get
    if sr is None:
        return {value: remaining for value, count in left.items()
                if (remaining := count - get(value, 0)) > 0}
    monus, is_zero, zero = sr.monus, sr.is_zero, sr.zero
    return {value: remaining for value, count in left.items()
            if not is_zero(remaining := monus(count,
                                              get(value, zero)))}


def c_min_intersect(small: Dict[Any, int],
                    large: Dict[Any, int], sr=None) -> Dict[Any, int]:
    """``B n B'``: nonzero min of multiplicities; iterate the smaller."""
    get = large.get
    if sr is None:
        return {value: count if count < other else other
                for value, count in small.items()
                if (other := get(value, 0)) > 0}
    meet, is_zero = sr.min_, sr.is_zero
    return {value: both for value, count in small.items()
            if (other := get(value)) is not None
            and not is_zero(both := meet(count, other))}


def c_max_union(left: Dict[Any, int],
                right: Dict[Any, int], sr=None) -> Dict[Any, int]:
    """``B u B'``: max of multiplicities."""
    get = left.get
    if sr is None:
        out = {value: count if count > (other := get(value, 0)) else
               other for value, count in right.items()}
        for value, count in left.items():
            if value not in out:
                out[value] = count
        return out
    join = sr.max_
    out = {value: (count if (other := get(value)) is None
                   else join(count, other))
           for value, count in right.items()}
    for value, count in left.items():
        if value not in out:
            out[value] = count
    return out


def c_add_union(left: Dict[Any, int],
                right: Dict[Any, int], sr=None) -> Dict[Any, int]:
    """``B (+) B'`` in dictionary form: pointwise count sum."""
    out = dict(left)
    get = out.get
    if sr is None:
        for value, count in right.items():
            out[value] = get(value, 0) + count
        return out
    add = sr.add
    for value, count in right.items():
        existing = get(value)
        out[value] = count if existing is None else add(existing, count)
    return out


def c_sym_diff_dedup(left: Dict[Any, int],
                     right: Dict[Any, int], sr=None) -> Dict[Any, int]:
    """``eps((B - B') (+) (B' - B))`` in one pass: the values whose
    multiplicities differ between the two bags, each with count 1
    (the semiring's ``one``).

    An element survives either monus exactly when its counts differ,
    so the whole dedup'd symmetric difference is one candidate sweep
    over the C-level key-set union — the compiler emits this wherever
    the four-operator pattern appears in a segment (the e20/e26
    headline chain), replacing two monus passes, a concatenation, and
    a dedup."""
    get_r = right.get
    if sr is None:
        out = {value: 1 for value, count in left.items()
               if get_r(value, 0) != count}
        # values only the right side has differ by definition; the set
        # difference and the fromkeys update both run at C level
        out.update(dict.fromkeys(right.keys() - left.keys(), 1))
        return out
    # the generic fusion is sound only in naturally ordered semirings
    # where a (monus) b = 0 and b (monus) a = 0 together imply a = b;
    # that is exactly "counts equal" for the shipped instances
    one, zero = sr.one, sr.zero
    out = {value: one for value, count in left.items()
           if get_r(value, zero) != count}
    out.update(dict.fromkeys(right.keys() - left.keys(), one))
    return out


# ----------------------------------------------------------------------
# Column kernels
# ----------------------------------------------------------------------

def c_dedup(values: Iterable[Any], sr=None) -> Dict[Any, int]:
    """``eps(B)``: duplicate elimination straight off the value
    column — every surviving count is 1 (the semiring's ``one``),
    whatever the count column said (the count array collapses, not
    just the repeats)."""
    return dict.fromkeys(values, 1 if sr is None else sr.one)


def c_scale(counts: Sequence[int], factor: int,
            sr=None) -> List[int]:
    """Multiply the whole count column by a constant."""
    if sr is None:
        return [count * factor for count in counts]
    scale = sr.scale
    return [scale(count, factor) for count in counts]


def c_scale_dict(counts: Dict[Any, int],
                 factor: int, sr=None) -> Dict[Any, int]:
    """Dictionary form of :func:`c_scale`."""
    if sr is None:
        return {value: count * factor
                for value, count in counts.items()}
    scale = sr.scale
    return {value: scale(count, factor)
            for value, count in counts.items()}


def c_map(values: Sequence[Any],
          fn: Callable[[Any], Any]) -> List[Any]:
    """``MAP_phi(B)``: transform the value column; the count column
    rides along unchanged (colliding images sum on materialisation)."""
    return [fn(value) for value in values]


def c_select(values: Sequence[Any], counts: Sequence[int],
             predicate: Callable[[Any], bool]
             ) -> Tuple[List[Any], List[int]]:
    """``sigma(B)``: filter both columns in one pass."""
    out_values: List[Any] = []
    out_counts: List[int] = []
    add_value = out_values.append
    add_count = out_counts.append
    for value, count in zip(values, counts):
        if predicate(value):
            add_value(value)
            add_count(count)
    return out_values, out_counts


# ----------------------------------------------------------------------
# Product / join kernels (quadratic: tick inside)
# ----------------------------------------------------------------------

def _require_tup(value: Any, operation: str) -> None:
    if not isinstance(value, Tup):
        raise BagTypeError(
            f"{operation} requires bags of tuples, found element of "
            f"type {type(value).__name__}")


def pick_getter(picks: Sequence[int]) -> Callable[[tuple], tuple]:
    """A rearrangement's index plan: the projected row's item tuple
    read off a source row's item tuple, by the 1-based ``picks``, in
    one C-level call.  A single pick is wrapped back into a 1-tuple (a
    bare ``itemgetter`` would hand back the item itself) and no picks
    at all — the grouping key of a nest over every attribute — read
    the empty tuple.  A pick past the row's arity raises
    ``IndexError``; callers turn that into ``alpha_i``'s own error."""
    if not picks:
        return lambda items: ()
    if len(picks) == 1:
        index = picks[0] - 1
        return lambda items: (items[index],)
    return itemgetter(*(pick - 1 for pick in picks))


def _pick_error(row: tuple, picks: Sequence[int]) -> None:
    """A pick past the pair's arity: raise ``alpha_i``'s own error,
    text and all."""
    joined = Tup.trusted(row)
    for pick in picks:
        ops_attribute(joined, pick)


def _sum_picked(sums: Dict[tuple, Any], picks: Sequence[int],
                getter: Callable[[tuple], tuple], items: tuple,
                items_first: bool, count: Any,
                matches: Iterable[Tuple[Tup, Any]], sr=None) -> None:
    """One probe row against its matches under a fused projection:
    each pair's count product is summed into ``sums`` under the picked
    *raw* item tuple, so no joined ``Tup`` is built (raw-tuple
    equality is ``Tup.__eq__``'s own definition: the grouping is the
    one :func:`sum_counts` would make).  ``items_first`` says whether
    the probe row is the left half of the pair."""
    seen = sums.get
    mul, add = (None, None) if sr is None else (sr.mul, sr.add)
    try:
        for other, other_count in matches:
            row = (items + other._items if items_first
                   else other._items + items)
            key = getter(row)
            if mul is None:
                sums[key] = seen(key, 0) + count * other_count
            else:
                weight = mul(count, other_count)
                prior = seen(key)
                sums[key] = (weight if prior is None
                             else add(prior, weight))
    except IndexError:
        _pick_error(row, picks)
        raise


def _dedup_pairs(seen: Dict[Any, Any], value: Tup, value_first: bool,
                 matches: Sequence[Tuple[Tup, Any]], one: Any,
                 picks: Optional[Sequence[int]] = None,
                 getter: Optional[Callable[[tuple], tuple]] = None
                 ) -> None:
    """One probe row against its matches under a fused dedup: each
    pair's row (``Tup.concat``'s, shape and all; with ``getter``, its
    picked raw item tuple) is keyed in ``seen`` with the count ``one``,
    the first equal row keeping its key; no count is read."""
    items = value._items
    if getter is None:
        shape, trusted = value._shape, Tup.trusted
        last = joined = None
        for other, _ in matches:
            if other._shape is not last:
                # concat's shape rule, once per run of equal shapes
                last = other._shape
                joined = (None if shape is None or last is None
                          else _concat_shape(shape, last) if value_first
                          else _concat_shape(last, shape))
            seen[trusted(items + other._items if value_first
                         else other._items + items, joined)] = one
        return
    try:
        for other, _ in matches:
            row = (items + other._items if value_first
                   else other._items + items)
            seen[getter(row)] = one
    except IndexError:
        _pick_error(row, picks)
        raise


def _picked_rows(sums: Dict[tuple, Any]) -> Dict[Tup, Any]:
    """Wrap each *distinct* picked item tuple once (its items sit
    inside validated source rows)."""
    trusted = Tup.trusted
    return {trusted(key): count for key, count in sums.items()}


def c_product(probe_values: Sequence[Any], probe_counts: Optional[list],
              build: Dict[Any, int],
              tick: Optional[Callable[[], None]] = None,
              sr=None, picks: Optional[Sequence[int]] = None,
              dedup: bool = False):
    """``B x B'`` against a materialised build dict: tuples
    concatenate, counts multiply.  Returns the ``(values, counts)``
    columns — or, with ``picks`` (the rearrangement sitting directly
    on the product) or ``dedup`` (``eps`` on it, ``probe_counts``
    unread), ``(counts dict of the output rows, pairs enumerated)``."""
    for value in build:
        _require_tup(value, "cartesian product")
    build_items = list(build.items())
    out_values: List[Any] = []
    out_counts: List[int] = []
    sums: Dict[tuple, Any] = {}
    getter = None if picks is None else pick_getter(picks)
    one = 1 if sr is None else sr.one
    pending = 0
    mul = None if sr is None else sr.mul
    for left, lcount in zip(probe_values, probe_counts or repeat(None)):
        _require_tup(left, "cartesian product")
        if dedup:
            _dedup_pairs(sums, left, True, build_items, one, picks,
                         getter)
        elif getter is not None:
            _sum_picked(sums, picks, getter, left._items, True, lcount,
                        build_items, sr)
        else:
            out_values.extend(left.concat(right)
                              for right, _ in build_items)
            if mul is None:
                out_counts.extend(lcount * rcount
                                  for _, rcount in build_items)
            else:
                out_counts.extend(mul(lcount, rcount)
                                  for _, rcount in build_items)
        if tick is not None:
            pending += len(build_items)
            if pending >= TICK_CHUNK:
                pending = 0
                tick()
    if not (dedup or getter):
        return out_values, out_counts
    return ((sums if getter is None else _picked_rows(sums)),
            len(probe_values) * len(build_items))


def c_hash_join(probe_values: Sequence[Any],
                probe_counts: Optional[list],
                build: Dict[Any, int],
                probe_key: Callable[[Tup], Any],
                build_key: Callable[[Tup], Any],
                probe_is_left: bool,
                tick: Optional[Callable[[], None]] = None,
                sr=None, picks: Optional[Sequence[int]] = None,
                dedup: bool = False):
    """Equi-join: hash the build dict on its key attributes, stream
    the probe columns; counts multiply and concatenation order follows
    ``probe_is_left`` (the logical product order, not the build
    choice).  Returns the ``(values, counts)`` columns — or, with
    ``picks`` (the rearrangement sitting directly on the join) or
    ``dedup`` (``eps`` on it, ``probe_counts`` unread), ``(counts
    dict of the output rows, pairs enumerated)``."""
    table: Dict[Any, list] = {}
    for value, count in build.items():
        _require_tup(value, "hash join")
        table.setdefault(build_key(value), []).append((value, count))
    out_values: List[Any] = []
    out_counts: List[int] = []
    add_value = out_values.append
    add_count = out_counts.append
    sums: Dict[tuple, Any] = {}
    getter = None if picks is None else pick_getter(picks)
    one = 1 if sr is None else sr.one
    pairs = 0
    get = table.get
    pending = 0
    mul = None if sr is None else sr.mul
    for value, count in zip(probe_values, probe_counts or repeat(None)):
        _require_tup(value, "hash join")
        matches = get(probe_key(value))
        if not matches:
            continue
        if dedup:
            _dedup_pairs(sums, value, probe_is_left, matches, one, picks,
                         getter)
            pairs += len(matches)
        elif getter is not None:
            _sum_picked(sums, picks, getter, value._items,
                        probe_is_left, count, matches, sr)
            pairs += len(matches)
        elif probe_is_left:
            for other, other_count in matches:
                add_value(value.concat(other))
                add_count(count * other_count if mul is None
                          else mul(count, other_count))
        else:
            for other, other_count in matches:
                add_value(other.concat(value))
                add_count(count * other_count if mul is None
                          else mul(count, other_count))
        if tick is not None:
            pending += len(matches)
            if pending >= TICK_CHUNK:
                pending = 0
                tick()
    if not (dedup or getter):
        return out_values, out_counts
    return (sums if getter is None else _picked_rows(sums)), pairs
