"""The type system of Section 2: atomic type U, tuple types, bag types.

Types are defined recursively:

* ``U`` is the atomic type (an infinite domain of constants);
* if ``T1 .. Tk`` are types then ``[T1, ..., Tk]`` is a tuple type;
* if ``T`` is a type then ``{{T}}`` is a bag type.

The *bag nesting* of a type is the maximal number of bag constructors on
a root-to-leaf path of the type tree; it is the measure that stratifies
the algebra into the fragments BALG^1, BALG^2, BALG^3, ... studied in
Sections 4-6.

This module provides the type objects, inference of the type of a value
(:func:`type_of`), unification (:func:`unify`), and the nesting measure
(:meth:`Type.bag_nesting`).  A distinguished :data:`UNKNOWN` type stands
for the element type of an empty bag, which is polymorphic.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple as PyTuple

from repro.core.bag import _ATOM_SHAPE, Bag, Tup, _shape_of, _tup_shape
from repro.core.errors import BagTypeError

__all__ = [
    "Type", "AtomType", "TupleType", "BagType", "UnknownType",
    "U", "UNKNOWN", "type_of", "unify", "is_unnested_type",
    "flat_tuple_type", "flat_bag_type", "parse_type", "rigid_shape",
    "element_arity",
]


class Type:
    """Abstract base of all type objects.  Types are immutable value
    objects with structural equality."""

    __slots__ = ()

    def bag_nesting(self) -> int:
        """Maximal number of bag constructors on a root-to-leaf path."""
        raise NotImplementedError

    def accepts(self, value: Any) -> bool:
        """Membership test: does ``value`` inhabit this type?"""
        raise NotImplementedError


class AtomType(Type):
    """The atomic type ``U`` of Section 2."""

    __slots__ = ()

    def bag_nesting(self) -> int:
        return 0

    def accepts(self, value: Any) -> bool:
        return not isinstance(value, (Tup, Bag))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, AtomType)

    def __hash__(self) -> int:
        return hash("AtomType")

    def __repr__(self) -> str:
        return "U"


class UnknownType(Type):
    """The polymorphic type of the elements of an empty bag.

    ``UNKNOWN`` unifies with everything; its nesting is 0 (it counts
    as contributing no bag constructors).
    """

    __slots__ = ()

    def bag_nesting(self) -> int:
        return 0

    def accepts(self, value: Any) -> bool:  # the empty bag has no values
        return True

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, UnknownType)

    def __hash__(self) -> int:
        return hash("UnknownType")

    def __repr__(self) -> str:
        return "?"


class TupleType(Type):
    """Tuple type ``[T1, ..., Tk]``."""

    __slots__ = ("attributes",)

    def __init__(self, attributes: PyTuple[Type, ...] | list):
        attributes = tuple(attributes)
        for attribute in attributes:
            if not isinstance(attribute, Type):
                raise BagTypeError(
                    f"tuple attribute types must be Type, got {attribute!r}")
        object.__setattr__(self, "attributes", attributes)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("TupleType is immutable")

    def __reduce__(self):  # unpickling must not go through __setattr__
        return TupleType, (self.attributes,)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attribute(self, i: int) -> Type:
        """The i-th attribute type, 1-based (matching alpha_i)."""
        if not 1 <= i <= len(self.attributes):
            raise BagTypeError(
                f"attribute index {i} out of range for arity {self.arity}")
        return self.attributes[i - 1]

    def bag_nesting(self) -> int:
        if not self.attributes:
            return 0
        return max(attr.bag_nesting() for attr in self.attributes)

    def accepts(self, value: Any) -> bool:
        if not isinstance(value, Tup) or value.arity != self.arity:
            return False
        return all(attr.accepts(item)
                   for attr, item in zip(self.attributes, value.items()))

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, TupleType)
                and self.attributes == other.attributes)

    def __hash__(self) -> int:
        return hash(("TupleType", self.attributes))

    def __repr__(self) -> str:
        inner = ", ".join(repr(attr) for attr in self.attributes)
        return f"[{inner}]"


class BagType(Type):
    """Bag type ``{{T}}``."""

    __slots__ = ("element",)

    def __init__(self, element: Type):
        if not isinstance(element, Type):
            raise BagTypeError(
                f"bag element type must be a Type, got {element!r}")
        object.__setattr__(self, "element", element)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("BagType is immutable")

    def __reduce__(self):  # unpickling must not go through __setattr__
        return BagType, (self.element,)

    def bag_nesting(self) -> int:
        return 1 + self.element.bag_nesting()

    def accepts(self, value: Any) -> bool:
        if not isinstance(value, Bag):
            return False
        return all(self.element.accepts(element)
                   for element in value.distinct())

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, BagType) and self.element == other.element

    def __hash__(self) -> int:
        return hash(("BagType", self.element))

    def __repr__(self) -> str:
        return f"{{{{{self.element!r}}}}}"


#: The atomic type instance.
U = AtomType()

#: The polymorphic unknown (empty-bag element) type instance.
UNKNOWN = UnknownType()


def flat_tuple_type(arity: int) -> TupleType:
    """The flat tuple type ``U^arity`` = [U, ..., U]."""
    return TupleType((U,) * arity)


def flat_bag_type(arity: int) -> BagType:
    """The unnested bag type ``{{U^arity}}`` of Section 4 (BALG^1)."""
    return BagType(flat_tuple_type(arity))


#: The type each shape fingerprint met so far stands for, interned
#: (bounded like :data:`repro.core.bag._CONCAT_SHAPE_CACHE`): a shape
#: is converted once, and equal shapes share one type object.
_SHAPE_TYPES: dict = {}


def _shape_type(shape) -> Type:
    """The type a shape fingerprint (:func:`repro.core.bag._shape_of`)
    stands for.  ``None`` — no members, the element of an empty bag —
    is :data:`UNKNOWN`, so ``("bag", None)`` is ``{{?}}``."""
    found = _SHAPE_TYPES.get(shape)
    if found is None:
        if shape is None:
            found = UNKNOWN
        elif shape[0] == "atom":
            found = U
        elif shape[0] == "bag":
            found = BagType(_shape_type(shape[1]))
        else:
            found = TupleType(tuple(_shape_type(item)
                                    for item in shape[1]))
        if len(_SHAPE_TYPES) < 4096:
            _SHAPE_TYPES[shape] = found
    return found


def type_of(value: Any) -> Type:
    """Infer the (most specific) type of a complex object.

    The element type of an empty bag is :data:`UNKNOWN`; for non-empty
    bags it is the unification of the element types of all members.

    That unification is what a bag's seal already computed: every
    constructor stores the merged shape of its members in ``_shape``
    (shapes merge exactly where types unify, an empty bag's ``None``
    playing :data:`UNKNOWN`), and a tuple's shape is cached by
    :func:`~repro.core.bag._shape_of`.  So this is a lookup of that
    shape in an intern table — no member is visited, whatever the
    bag's size.
    """
    if isinstance(value, Bag):
        return _shape_type(("bag", value._shape))
    if isinstance(value, Tup):
        return _shape_type(_shape_of(value))
    return U


#: The shape each rigid type fixes (``None``: not rigid), interned
#: like :data:`_SHAPE_TYPES` in the other direction.
_TYPE_SHAPES: dict = {}


def rigid_shape(typ: Type):
    """The shape fingerprint (:func:`repro.core.bag._shape_of`) every
    value of ``typ`` has, when the type alone fixes it — ``typ`` is
    *rigid*: atoms, and tuples of rigid types.  ``None`` for a type
    holding a bag or :data:`UNKNOWN`, whose values' shapes differ (an
    inner bag may be empty, or not)."""
    if typ in _TYPE_SHAPES:
        return _TYPE_SHAPES[typ]
    found = None
    if isinstance(typ, AtomType):
        found = _ATOM_SHAPE
    elif isinstance(typ, TupleType):
        items = tuple(rigid_shape(item) for item in typ.attributes)
        if None not in items:
            found = _tup_shape(items)
    if len(_TYPE_SHAPES) < 4096:
        _TYPE_SHAPES[typ] = found
    return found


def element_arity(typ: Optional[Type]) -> Optional[int]:
    """The arity of a bag type's tuples; ``None`` for anything else
    (not a bag of tuples, or no type at all)."""
    if isinstance(typ, BagType) and isinstance(typ.element, TupleType):
        return typ.element.arity
    return None


def unify(left: Type, right: Type) -> Type:
    """Structural unification of two types.

    ``UNKNOWN`` unifies with anything; otherwise the constructors must
    match recursively.  Raises :class:`BagTypeError` on mismatch.
    """
    if left is right or left == right:  # nothing to rebuild
        return left
    if isinstance(left, UnknownType):
        return right
    if isinstance(right, UnknownType):
        return left
    if isinstance(left, AtomType) and isinstance(right, AtomType):
        return left
    if isinstance(left, BagType) and isinstance(right, BagType):
        return BagType(unify(left.element, right.element))
    if isinstance(left, TupleType) and isinstance(right, TupleType):
        if left.arity != right.arity:
            raise BagTypeError(
                f"cannot unify tuple types of arity {left.arity} "
                f"and {right.arity}")
        return TupleType(tuple(unify(la, ra) for la, ra
                               in zip(left.attributes, right.attributes)))
    raise BagTypeError(f"cannot unify {left!r} with {right!r}")


def is_unnested_type(candidate: Type) -> bool:
    """True for the BALG^1 types of Section 4: ``U^k`` and ``{{U^k}}``
    (including bare ``U`` and ``{{U}}``)."""
    return candidate.bag_nesting() <= 1


def parse_type(text: str) -> Type:
    """Parse the textual type syntax used throughout the docs:

    ``U``          the atomic type
    ``[T, T, ...]`` a tuple type
    ``{{T}}``      a bag type

    Example: ``parse_type("{{[U, {{U}}]}}")``.
    """
    parser = _TypeParser(text)
    result = parser.parse()
    parser.expect_end()
    return result


class _TypeParser:
    """Tiny recursive-descent parser for the type syntax."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    def parse(self) -> Type:
        self._skip_spaces()
        if self._peek("{{"):
            self._consume("{{")
            inner = self.parse()
            self._skip_spaces()
            self._consume("}}")
            return BagType(inner)
        if self._peek("["):
            self._consume("[")
            attributes = []
            self._skip_spaces()
            if not self._peek("]"):
                attributes.append(self.parse())
                self._skip_spaces()
                while self._peek(","):
                    self._consume(",")
                    attributes.append(self.parse())
                    self._skip_spaces()
            self._consume("]")
            return TupleType(tuple(attributes))
        if self._peek("U"):
            self._consume("U")
            return U
        if self._peek("?"):
            self._consume("?")
            return UNKNOWN
        raise BagTypeError(
            f"unparsable type at offset {self._pos}: {self._text!r}")

    def expect_end(self) -> None:
        self._skip_spaces()
        if self._pos != len(self._text):
            raise BagTypeError(
                f"trailing characters in type: {self._text[self._pos:]!r}")

    def _skip_spaces(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos] == " ":
            self._pos += 1

    def _peek(self, token: str) -> bool:
        return self._text.startswith(token, self._pos)

    def _consume(self, token: str) -> None:
        if not self._peek(token):
            raise BagTypeError(
                f"expected {token!r} at offset {self._pos} "
                f"in {self._text!r}")
        self._pos += len(token)
