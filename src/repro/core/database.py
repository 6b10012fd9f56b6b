"""Bag databases: schemas, instances, standard encoding, genericity.

Implements the Section 2 framework:

* a **bag schema** ``B : T`` names a bag and gives it a bag type;
* a **database schema** is a finite set of bag schemas with distinct
  names; an **instance** maps each name to a bag of the right type;
* the **standard encoding** of a bag writes every element out as many
  times as it occurs (duplicates are explicit, *not* run-length
  compressed — the paper insists on this, because real systems store
  duplicates to avoid the cost of duplicate elimination).  The *size*
  of a database is the size of its standard encoding
  (:func:`encoding_size`);
* queries must be **generic**: insensitive to isomorphisms, i.e. to
  bijective renamings of the atomic constants
  (:func:`apply_renaming`, :func:`are_isomorphic`).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional

from repro.core.bag import Bag, Tup, is_atom
from repro.core.errors import BagTypeError
from repro.core.types import BagType, Type, type_of, unify

__all__ = [
    "encoding_size", "active_domain", "apply_renaming", "are_isomorphic",
    "Schema", "Instance",
]


def encoding_size(value: Any) -> int:
    """Size of the standard encoding of a complex object.

    Atoms cost 1; tuples and bags cost 1 (for the delimiters) plus the
    sizes of their members, *with duplicates written out explicitly*.
    This is the size measure all complexity statements of the paper are
    relative to.  A non-integer semiring annotation weighs one
    occurrence: the encoding writes the element once per annotation
    (the K-relation rule of arXiv 2501.16543).

    A bag is priced off its sealed shape (:func:`_bag_size`): when the
    shape holds no bag every member has the same size, and the bag's
    is arithmetic on its cardinality.
    """
    if isinstance(value, Bag):
        return _bag_size(value)
    if isinstance(value, Tup):
        return 1 + sum(encoding_size(item) for item in value.items())
    return 1


def _bag_size(bag: Bag) -> int:
    """``1 + |B| * size(member)`` when ``bag``'s shape holds no bag —
    ``Bag._cardinality`` already weighs an annotation as one
    occurrence — else the members' sizes, each distinct member once,
    weighted by its count."""
    shape = bag._shape
    if shape is None:
        return 1
    member = _rigid_size(shape)
    if member is not None:
        return 1 + bag._cardinality * member
    return 1 + sum((count if isinstance(count, int) else 1)
                   * encoding_size(element)
                   for element, count in bag.items())


#: ``shape -> rigid size`` (``None``: the shape holds a bag), bounded
#: like the shape caches of :mod:`repro.core.bag`.
_RIGID_SIZES: Dict[Any, Optional[int]] = {}


def _rigid_size(shape) -> Optional[int]:
    """The standard-encoding size every value of ``shape`` has — an
    atom 1, a tuple 1 plus its attributes' — or ``None`` when the shape
    holds a bag, whose members' sizes (and shapes) can differ."""
    size = _RIGID_SIZES.get(shape, -1)
    if size == -1:
        if shape[0] == "atom":
            size = 1
        elif shape[0] == "bag":
            size = None
        else:
            size = 1
            for item in shape[1]:
                item_size = _rigid_size(item)
                if item_size is None:
                    size = None
                    break
                size += item_size
        if len(_RIGID_SIZES) < 4096:
            _RIGID_SIZES[shape] = size
    return size


def active_domain(value: Any) -> frozenset:
    """The set of atomic constants occurring in a complex object."""
    atoms = set()
    _collect_atoms(value, atoms)
    return frozenset(atoms)


def _collect_atoms(value: Any, out: set) -> None:
    if isinstance(value, Tup):
        for item in value.items():
            _collect_atoms(item, out)
    elif isinstance(value, Bag):
        for element in value.distinct():
            _collect_atoms(element, out)
    else:
        out.add(value)


def apply_renaming(value: Any, mapping: Mapping[Any, Any]) -> Any:
    """Apply an atom renaming componentwise (the natural extension of a
    bijection ``h : D -> D'`` to complex objects).

    Atoms absent from ``mapping`` are left unchanged, so partial
    renamings work too.
    """
    if isinstance(value, Tup):
        return Tup(*(apply_renaming(item, mapping)
                     for item in value.items()))
    if isinstance(value, Bag):
        counts: Dict[Any, int] = {}
        for element, count in value.items():
            image = apply_renaming(element, mapping)
            counts[image] = counts.get(image, 0) + count
        return Bag.from_counts(counts)
    return mapping.get(value, value)


def are_isomorphic(left: Mapping[str, Bag], right: Mapping[str, Bag],
                   max_domain: int = 8) -> bool:
    """Decide whether two database instances are isomorphic.

    Isomorphism for bag databases (Section 2): a bijection ``h`` between
    the active domains such that ``t`` k-belongs to a bag iff ``h(t)``
    k-belongs to its counterpart.  Decided by backtracking over atom
    bijections; intended for the small instances used in genericity
    tests (``max_domain`` guards against accidental blow-ups).
    """
    if set(left) != set(right):
        return False
    left_domain = sorted(
        set().union(*(active_domain(bag) for bag in left.values()))
        if left else set(),
        key=repr)
    right_domain = sorted(
        set().union(*(active_domain(bag) for bag in right.values()))
        if right else set(),
        key=repr)
    if len(left_domain) != len(right_domain):
        return False
    if len(left_domain) > max_domain:
        raise BagTypeError(
            f"isomorphism search over {len(left_domain)} atoms exceeds "
            f"max_domain={max_domain}")
    for permutation in itertools.permutations(right_domain):
        mapping = dict(zip(left_domain, permutation))
        if all(apply_renaming(left[name], mapping) == right[name]
               for name in left):
            return True
    return False


class Schema:
    """A database schema: bag names with their bag types."""

    def __init__(self, bags: Mapping[str, Type]):
        clean: Dict[str, BagType] = {}
        for name, bag_type in bags.items():
            if not isinstance(name, str) or not name:
                raise BagTypeError(
                    f"bag names must be non-empty strings, got {name!r}")
            if not isinstance(bag_type, BagType):
                raise BagTypeError(
                    f"schema entry {name!r} must have a bag type, got "
                    f"{bag_type!r}")
            clean[name] = bag_type
        self._bags = clean

    def names(self) -> Iterator[str]:
        return iter(self._bags)

    def type_of(self, name: str) -> BagType:
        if name not in self._bags:
            raise BagTypeError(f"unknown bag name {name!r}")
        return self._bags[name]

    def __contains__(self, name: str) -> bool:
        return name in self._bags

    def __iter__(self) -> Iterator[str]:
        return iter(self._bags)

    def __len__(self) -> int:
        return len(self._bags)

    def items(self):
        return self._bags.items()

    def bag_nesting(self) -> int:
        """Maximal bag nesting over all bag types in the schema."""
        if not self._bags:
            return 0
        return max(bag_type.bag_nesting()
                   for bag_type in self._bags.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {bag_type!r}"
                          for name, bag_type in self._bags.items())
        return f"Schema({{{inner}}})"


class Instance:
    """An instance of a database schema: name -> bag, type-checked."""

    def __init__(self, schema: Schema, bags: Mapping[str, Bag]):
        if set(bags) != set(schema.names()):
            missing = set(schema.names()) - set(bags)
            extra = set(bags) - set(schema.names())
            raise BagTypeError(
                f"instance does not match schema "
                f"(missing={sorted(missing)}, extra={sorted(extra)})")
        for name, bag in bags.items():
            declared = schema.type_of(name)
            try:
                unify(declared, type_of(bag))
            except BagTypeError as exc:
                raise BagTypeError(
                    f"bag {name!r} does not inhabit its declared type "
                    f"{declared!r}") from exc
        self.schema = schema
        self._bags = dict(bags)

    def __getitem__(self, name: str) -> Bag:
        return self._bags[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bags)

    def __len__(self) -> int:
        return len(self._bags)

    def bags(self) -> Mapping[str, Bag]:
        """Read-only copy of the name -> bag mapping."""
        return dict(self._bags)

    def size(self) -> int:
        """Standard-encoding size of the whole instance."""
        return sum(encoding_size(bag) for bag in self._bags.values())

    def domain(self) -> frozenset:
        """Union of the active domains of all bags."""
        atoms: set = set()
        for bag in self._bags.values():
            atoms |= active_domain(bag)
        return frozenset(atoms)

    def rename(self, mapping: Mapping[Any, Any]) -> "Instance":
        """The image instance under an atom renaming."""
        return Instance(self.schema,
                        {name: apply_renaming(bag, mapping)
                         for name, bag in self._bags.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={bag!r}"
                          for name, bag in self._bags.items())
        return f"Instance({inner})"
