"""Immutable nested-bag values: atoms, tuples, and bags.

This module implements the *data definition language* of Section 3 of
Grumbach & Milo: every complex object is built from atomic constants
with the tuple constructor ``Tup`` and the bag constructor ``Bag``.

Design notes
------------
* Values are immutable and hashable.  Hashability is what lets a bag
  contain other bags (nested bags are the whole point of the paper) while
  multiplicities are tracked in an ordinary dictionary.
* A ``Bag`` stores ``element -> count`` with strictly positive integer
  counts.  An element *n-belongs* to the bag when its count is exactly
  ``n`` (Section 2 terminology).
* Atoms are arbitrary hashable Python scalars (strings, integers,
  frozen dataclasses, ...).  ``Tup`` and ``Bag`` instances are never
  atoms.
* Construction enforces homogeneity: all elements of a bag must have
  the same type (same arity for tuples, recursively compatible element
  types for nested bags).  This mirrors the paper's requirement that a
  bag is a homogeneous collection.

The algebra operators themselves (additive union, powerset, ...) live
in :mod:`repro.core.ops`; this module only provides the value model and
container conveniences.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from repro.core.errors import HeterogeneousBagError, ValueConstructionError
from repro.core.semiring import SemiringValue

__all__ = ["Tup", "Bag", "is_atom", "canonical_key", "EMPTY_BAG"]


def is_atom(value: Any) -> bool:
    """Return True when ``value`` is an atomic constant.

    Atoms are everything that is neither a :class:`Tup` nor a
    :class:`Bag`.  The paper assumes a single atomic type ``U`` with an
    infinite domain of constants; we realise that domain as the set of
    hashable Python scalars.
    """
    return not isinstance(value, (Tup, Bag))


class Tup:
    """An immutable k-ary tuple of complex objects.

    The paper writes ``[o1, ..., ok]`` for tuples; attribute projection
    uses 1-based indices (``alpha_i``).  ``Tup`` exposes both the Pythonic
    0-based ``tup[i]`` and the paper's 1-based :meth:`attribute`.
    """

    __slots__ = ("_items", "_hash", "_shape")

    def __init__(self, *items: Any):
        for item in items:
            _check_value(item)
        self._items: Tuple[Any, ...] = tuple(items)
        self._hash = None  # computed once on first __hash__, then cached
        self._shape = None  # structural fingerprint, cached on demand

    @property
    def arity(self) -> int:
        """Number of attributes of this tuple."""
        return len(self._items)

    def attribute(self, i: int) -> Any:
        """Return the i-th attribute, 1-based (the paper's alpha_i)."""
        if not 1 <= i <= len(self._items):
            raise IndexError(
                f"attribute index {i} out of range for arity {self.arity}")
        return self._items[i - 1]

    def items(self) -> Tuple[Any, ...]:
        """Return the underlying attribute tuple (0-based)."""
        return self._items

    @staticmethod
    def trusted(items: Tuple[Any, ...], shape=None) -> "Tup":
        """Wrap an items tuple whose every item is already a validated
        value, skipping the per-item check; the hash stays lazy, and
        so does the shape unless the caller derived it from the
        sources' shapes and hands it in.

        The one constructor for callers that only rearrange values a
        checked constructor has seen: :meth:`concat` and the fused
        join-dedup kernel (one per join output row, the kernel with
        ``concat``'s shape), the shard decoder (one per row off the
        wire),
        projection — a rearrangement lambda's index plan (one per
        mapped row) and the fused join-project kernels (one per
        *distinct* projected row) — and the nest / unnest kernels (one
        per distinct group member and per group; one per spliced
        row)."""
        out = Tup.__new__(Tup)
        out._items = items
        out._hash = None
        out._shape = shape
        return out

    def concat(self, other: "Tup") -> "Tup":
        """Concatenate two tuples (used by the Cartesian product)."""
        if not isinstance(other, Tup):
            raise ValueConstructionError(
                f"cannot concatenate Tup with {type(other).__name__}")
        shape = None
        if self._shape is not None and other._shape is not None:
            shape = _concat_shape(self._shape, other._shape)
        return Tup.trusted(self._items + other._items, shape)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Tup) and self._items == other._items

    def __hash__(self) -> int:
        # computed on first use and slot-cached: join/dedup kernels hash
        # every row at least once, but many rows are built and discarded
        # without ever entering a dict (projections, predicates), and a
        # concat in the join hot path should not pay two child walks
        value = self._hash
        if value is None:
            value = hash(("Tup", self._items))
            self._hash = value
        return value

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self._items)
        return f"[{inner}]"

    def __reduce__(self):
        # structure only: str hashes are salted per interpreter, so a
        # cached hash must not cross processes (the shape is seed-free)
        return Tup.trusted, (self._items, self._shape)


class Bag:
    """An immutable bag (multiset) of homogeneous complex objects.

    A bag maps each distinct element to a strictly positive multiplicity.
    ``Bag`` instances are hashable, so bags can nest arbitrarily deep.

    Constructors
    ------------
    ``Bag(iterable)``
        Count duplicates from an iterable, e.g. ``Bag(['a', 'a', 'b'])``.
    ``Bag.from_counts(mapping)``
        Build directly from an ``element -> count`` mapping.
    ``Bag.of(*elements)``
        Variadic convenience: ``Bag.of('a', 'a', 'b')``.

    The empty bag is polymorphic (it belongs to every bag type), matching
    the paper's ``[[ ]]``.

    The sealed shape
    ----------------
    ``_shape`` is the merged shape fingerprint of the members
    (:func:`_shape_of`; ``None`` for none), and
    :func:`repro.core.types.type_of` and
    :func:`repro.core.database.encoding_size` read a bag's type and
    size off it without visiting a member — so it must be *exactly* the
    merge of the members' own shapes.  ``Bag(...)`` and
    :meth:`from_counts` compute it in the homogeneity check;
    :meth:`trusted` takes it from its callers: the nest kernel, which
    hands one in only when every row of its input has the same shape,
    a proven plan's root seal, which reads it off the rows' rigid
    static type, and the shard decoder, which reads it off a bag-free
    member column's layout or runs the homogeneity check.  Tuples keep
    theirs the same way: computed from the items on demand, or handed
    to :meth:`Tup.trusted` by a caller that derived it from its
    sources' (``concat``, nest, unnest — per member wherever members'
    shapes can differ).
    ``_cardinality`` counts an annotation as one occurrence, which is
    what the standard encoding writes.
    """

    __slots__ = ("_counts", "_hash", "_cardinality", "_shape")

    def __init__(self, elements: Iterable[Any] = ()):
        counts: Dict[Any, int] = {}
        for element in elements:
            _check_value(element)
            counts[element] = counts.get(element, 0) + 1
        self._shape = _check_homogeneous(counts.keys())
        self._counts = counts
        self._cardinality = sum(counts.values())
        self._hash = None

    @classmethod
    def from_counts(cls, counts: Mapping[Any, int]) -> "Bag":
        """Build a bag from an ``element -> multiplicity`` mapping.

        Multiplicities are non-negative ints (zero counts dropped,
        negative counts an error) or :class:`SemiringValue` annotations
        from a non-integer semiring (zero annotations dropped).
        """
        bag = cls.__new__(cls)
        clean: Dict[Any, int] = {}
        for element, count in counts.items():
            if isinstance(count, int):
                if count < 0:
                    raise ValueConstructionError(
                        f"multiplicity must be non-negative, got {count}")
                if count == 0:
                    continue
            elif isinstance(count, SemiringValue):
                if count.is_zero():
                    continue
            else:
                raise ValueConstructionError(
                    "multiplicity must be an int or a semiring "
                    f"annotation, got {count!r}")
            _check_value(element)
            clean[element] = count
        bag._shape = _check_homogeneous(clean.keys())
        bag._counts = clean
        bag._cardinality = _cardinality_of(clean)
        bag._hash = None
        return bag

    @classmethod
    def trusted(cls, counts: Dict[Any, Any], shape) -> "Bag":
        """Seal ``counts`` as it stands — the :meth:`Tup.trusted`
        contract extended to bags: every element is already a
        validated value, every multiplicity is already positive (a
        non-zero annotation), ``shape`` is the merged shape of the
        elements (``None`` for none), and the bag keeps the dict.

        Three callers: the nest kernel
        (:func:`repro.engine.kernels.k_nest`), which has checked
        homogeneity per input row and derives each inner bag's shape
        from the rows' own; the root seal of a proven plan
        (:meth:`repro.engine.lower.PhysicalPlan.execute`), whose rows'
        static type is rigid, so the type fixes every row's shape, and
        whose kernels keep only non-zero counts; and the shard decoder
        (:mod:`repro.engine.parallel.codec`), which seals each inner
        bag with the shape its bag-free member column implies (else
        the homogeneity check's), after rejecting a non-positive
        packed count and colliding members.  Unpickling rebuilds
        through here too (:meth:`__reduce__`)."""
        bag = cls.__new__(cls)
        bag._shape = shape
        bag._counts = counts
        bag._cardinality = _cardinality_of(counts)
        bag._hash = None
        return bag

    @classmethod
    def of(cls, *elements: Any) -> "Bag":
        """Variadic constructor: ``Bag.of('a', 'a', 'b')``."""
        return cls(elements)

    @classmethod
    def single(cls, element: Any, count: int = 1) -> "Bag":
        """The bag ``B^element_count`` of Section 2: ``count`` copies of
        ``element`` and nothing else."""
        return cls.from_counts({element: count})

    # ------------------------------------------------------------------
    # Multiset interface
    # ------------------------------------------------------------------

    def multiplicity(self, element: Any) -> int:
        """Number of occurrences of ``element`` (0 when absent)."""
        return self._counts.get(element, 0)

    def n_belongs(self, element: Any, n: int) -> bool:
        """The paper's *n-belongs*: exactly ``n`` occurrences."""
        return self.multiplicity(element) == n

    def counts(self) -> Mapping[Any, int]:
        """Read-only view of the ``element -> count`` mapping."""
        return dict(self._counts)

    def support(self) -> frozenset:
        """The set of distinct elements (the bag with duplicates removed,
        as a Python frozenset)."""
        return frozenset(self._counts)

    @property
    def cardinality(self) -> int:
        """Total number of elements *counting duplicates* (the paper's
        notion of bag size, matching the standard encoding)."""
        return self._cardinality

    @property
    def distinct_count(self) -> int:
        """Number of distinct elements."""
        return len(self._counts)

    def is_empty(self) -> bool:
        return not self._counts

    def is_set(self) -> bool:
        """True when every element occurs exactly once (the bag is a
        relation in the classical sense)."""
        return all(count == 1 for count in self._counts.values())

    def is_subbag_of(self, other: "Bag") -> bool:
        """The paper's subbag relation: ``self <= other`` iff every
        element n-belonging to ``self`` p-belongs to ``other`` for some
        p >= n."""
        if not isinstance(other, Bag):
            raise ValueConstructionError(
                f"subbag comparison against {type(other).__name__}")
        return all(other.multiplicity(element) >= count
                   for element, count in self._counts.items())

    def items(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over ``(element, count)`` pairs."""
        return iter(self._counts.items())

    def elements(self) -> Iterator[Any]:
        """Iterate over elements *with* duplicates (each element is
        yielded ``count`` times), matching the standard encoding."""
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def distinct(self) -> Iterator[Any]:
        """Iterate over distinct elements (no duplicates)."""
        return iter(self._counts)

    def an_element(self) -> Any:
        """Return an arbitrary element; error on the empty bag."""
        if not self._counts:
            raise ValueConstructionError("the empty bag has no elements")
        return next(iter(self._counts))

    # ------------------------------------------------------------------
    # Protocol methods
    # ------------------------------------------------------------------

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def __iter__(self) -> Iterator[Any]:
        return self.elements()

    def __len__(self) -> int:
        return self._cardinality

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Bag) and self._counts == other._counts

    def __le__(self, other: "Bag") -> bool:
        return self.is_subbag_of(other)

    def __hash__(self) -> int:
        # computed on first use: most bags (query results above all)
        # are never used as dictionary keys, and the frozenset walk is
        # O(n) — only nested bags pay it
        value = self._hash
        if value is None:
            value = hash(("Bag", frozenset(self._counts.items())))
            self._hash = value
        return value

    def __repr__(self) -> str:
        if not self._counts:
            return "{{}}"
        parts = []
        for element in sorted(self._counts, key=canonical_key):
            count = self._counts[element]
            if count == 1:
                parts.append(repr(element))
            else:
                parts.append(f"{element!r}*{count}")
        return "{{" + ", ".join(parts) + "}}"

    def __reduce__(self):
        # structure only, as Tup.__reduce__
        return Bag.trusted, (self._counts, self._shape)


def _cardinality_of(counts: Mapping[Any, Any]) -> int:
    """Elements counting duplicates; an annotation that is not an
    integer weighs one."""
    try:
        return sum(counts.values())
    except TypeError:
        return sum(count if isinstance(count, int) else 1
                   for count in counts.values())


def canonical_key(value: Any) -> Tuple:
    """A total-order key over complex objects, used for deterministic
    display and for the lexicographic enumeration of Section 5.

    Atoms sort before tuples, which sort before bags; within a kind the
    order is lexicographic.  Atoms order naturally within one Python
    type (so integers compare numerically) and by type name across
    types, which yields the linear order on the domain that Section 4's
    order-enriched results assume.  A bag's multiplicities are keyed
    the way atoms are: source adaptation is shallow under the tropical
    and provenance semirings, so an ``int``-counted nested bag can meet
    an annotated one, and annotations have no ``<`` of their own.
    """
    if isinstance(value, Tup):
        return (1, tuple(canonical_key(item) for item in value.items()))
    if isinstance(value, Bag):
        ordered = sorted(value.counts().items(),
                         key=lambda pair: canonical_key(pair[0]))
        return (2, tuple((canonical_key(element), canonical_key(count))
                         for element, count in ordered))
    if isinstance(value, (bool, int, float, str, bytes)):
        return (0, (type(value).__name__, value))
    return (0, (type(value).__name__, repr(value)))


# ----------------------------------------------------------------------
# Construction-time checks
# ----------------------------------------------------------------------

def _check_value(value: Any) -> None:
    """Reject unhashable or mutable-container elements early."""
    if isinstance(value, (Tup, Bag)):
        return
    if isinstance(value, (list, dict, set)):
        raise ValueConstructionError(
            f"{type(value).__name__} is not a valid complex object; "
            "use Tup for tuples and Bag for collections")
    try:
        hash(value)
    except TypeError as exc:
        raise ValueConstructionError(
            f"bag elements must be hashable, got {value!r}") from exc


#: Interned fingerprints: every atom shares one shape object, and flat
#: tuples of atoms (by far the most common values) share one per
#: arity — so the homogeneity merge usually short-circuits on
#: identity instead of walking structures.
_ATOM_SHAPE = ("atom",)
_FLAT_TUP_SHAPES: Dict[int, tuple] = {}
_CONCAT_SHAPE_CACHE: Dict[tuple, tuple] = {}


def _flat_tup_shape(arity: int) -> tuple:
    shape = _FLAT_TUP_SHAPES.get(arity)
    if shape is None:
        shape = ("tuple", (_ATOM_SHAPE,) * arity)
        _FLAT_TUP_SHAPES[arity] = shape
    return shape


def _tup_shape(items: tuple) -> tuple:
    """The shape of a tuple whose attributes have shapes ``items``."""
    if all(item is _ATOM_SHAPE for item in items):
        return _flat_tup_shape(len(items))
    return ("tuple", items)


def _concat_shape(left: tuple, right: tuple) -> tuple:
    """The shape of a tuple concatenation, interned per side-pair so
    every row of a join output carries the *same* shape object."""
    key = (left, right)
    shape = _CONCAT_SHAPE_CACHE.get(key)
    if shape is None:
        shape = _tup_shape(left[1] + right[1])
        if len(_CONCAT_SHAPE_CACHE) < 4096:
            _CONCAT_SHAPE_CACHE[key] = shape
    return shape


def _splice_shape(outer: tuple, index: int, member) -> tuple:
    """The shape of an unnested row: tuple shape ``outer`` with its
    bag-valued attribute ``index`` (1-based) replaced by the
    attributes of the bag's members (shape ``member``; a member that
    is not a tuple occupies one attribute).  Interned like
    :func:`_concat_shape`, in the same cache (a three-part key never
    meets a side-pair)."""
    key = (outer, index, member)
    shape = _CONCAT_SHAPE_CACHE.get(key)
    if shape is None:
        middle = member[1] if member[0] == "tuple" else (member,)
        shape = _tup_shape(outer[1][:index - 1] + middle
                           + outer[1][index:])
        if len(_CONCAT_SHAPE_CACHE) < 4096:
            _CONCAT_SHAPE_CACHE[key] = shape
    return shape


def _shape_of(value: Any):
    """A lightweight structural fingerprint used for the homogeneity
    check (full typing lives in :mod:`repro.core.types`).

    The empty bag is compatible with every bag shape, which the
    fingerprint encodes with ``("bag", None)``.  Tuples cache their
    fingerprint; bags store theirs at construction time (the
    homogeneity check derives it anyway), so repeated validation of
    the same values costs an attribute read, not a structure walk.
    """
    if isinstance(value, Tup):
        shape = value._shape
        if shape is None:
            # _tup_shape, inlined: every seal of fresh rows walks here
            items = tuple(_shape_of(item) for item in value.items())
            if all(item is _ATOM_SHAPE for item in items):
                shape = _flat_tup_shape(len(items))
            else:
                shape = ("tuple", items)
            value._shape = shape
        return shape
    if isinstance(value, Bag):
        return ("bag", value._shape)
    return _ATOM_SHAPE


def _merge_shapes(left, right):
    """Unify two shape fingerprints; None when incompatible."""
    if left is right:
        return left
    if left is None:
        return right
    if right is None:
        return left
    if left[0] != right[0]:
        return None
    if left[0] == "atom":
        return left
    if left[0] == "bag":
        merged = _merge_shapes(left[1], right[1])
        if merged is None and not (left[1] is None or right[1] is None):
            return None
        return ("bag", merged)
    # tuple: arities and attribute shapes must merge pointwise
    if len(left[1]) != len(right[1]):
        return None
    merged_items = []
    for litem, ritem in zip(left[1], right[1]):
        merged = _merge_shapes(litem, ritem)
        if merged is None:
            return None
        merged_items.append(merged)
    return ("tuple", tuple(merged_items))


def _check_homogeneous(elements: Iterable[Any]):
    """Ensure all elements share a common shape (homogeneous bag).

    Returns the merged shape (``None`` for an empty collection) — the
    bag constructors store it so nested validation never re-walks."""
    shape = None
    for element in elements:
        candidate = _shape_of(element)
        if shape is None:
            shape = candidate
            continue
        if shape is candidate:
            continue
        merged = _merge_shapes(shape, candidate)
        if merged is None:
            raise HeterogeneousBagError(
                "bags must be homogeneous: cannot mix elements of shapes "
                f"{shape} and {candidate}")
        shape = merged
    return shape


#: The polymorphic empty bag ``[[ ]]``.
EMPTY_BAG = Bag()
