"""Static type inference for algebra expressions.

Every subexpression of a BALG expression has a type; the fragments
``BALG^k`` of the paper are defined by bounding the *bag nesting* of all
those types (Section 3: "We denote the algebra when restricted to bag
nesting of depth k, BALG^k").  The checker therefore records the type of
every node it visits so that :mod:`repro.core.fragments` can compute the
nesting of a whole expression.

The checker reuses the same node hooks as the evaluator: each node
implements ``_infer(checker, tenv)``; the checker supplies environment
plumbing and the annotation log.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.database import Schema
from repro.core.errors import BagTypeError, UnboundVariableError
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Bagging, Cartesian, Const,
    Dedup, Expr, Intersection, Map, MaxUnion, Powerbag, Powerset, Select,
    Subtraction, Tupling, Var,
)
from repro.core.nest import Nest, Unnest
from repro.core.types import BagType, Type

__all__ = ["TypeChecker", "infer_type", "annotate_types",
           "static_types"]


#: Type-environment frames mirror the evaluator's: (base_mapping, chain).
_TFrame = Optional[Tuple[str, Type, object]]


class TypeChecker:
    """Infers the type of an expression under a schema.

    After :meth:`check` runs, :attr:`annotations` holds one
    ``(node, type)`` pair per visited node occurrence, in visit order.
    """

    def __init__(self):
        self.annotations: List[Tuple[Expr, Type]] = []

    # -- environment -----------------------------------------------------

    def bind(self, tenv, name: str, declared: Type):
        base, frame = tenv
        return (base, (name, declared, frame))

    def lookup(self, name: str, tenv) -> Type:
        base, frame = tenv
        while frame is not None:
            frame_name, declared, frame = frame
            if frame_name == name:
                return declared
        if name in base:
            return base[name]
        raise UnboundVariableError(
            f"variable {name!r} is bound neither by a lambda nor by the "
            "schema")

    # -- inference --------------------------------------------------------

    def infer(self, expr: Expr, tenv) -> Type:
        inferred = expr._infer(self, tenv)
        self.annotations.append((expr, inferred))
        return inferred

    def check(self, expr: Expr,
              schema: Optional[Mapping[str, Type] | Schema] = None,
              **named_types: Type) -> Type:
        """Infer the type of ``expr`` under ``schema``.

        ``schema`` may be a :class:`~repro.core.database.Schema`, a
        plain ``name -> Type`` mapping, or omitted when the expression
        is closed; keyword arguments add individual bindings.
        """
        base: Dict[str, Type] = {}
        if isinstance(schema, Schema):
            base.update(dict(schema.items()))
        elif schema is not None:
            base.update(schema)
        base.update(named_types)
        for name, declared in base.items():
            if not isinstance(declared, Type):
                raise BagTypeError(
                    f"schema entry {name!r} must be a Type, got "
                    f"{declared!r}")
        return self.infer(expr, (base, None))

    # -- derived measurements ----------------------------------------------

    def max_bag_nesting(self) -> int:
        """Maximal bag nesting over every annotated subexpression type
        (the measure defining BALG^k membership)."""
        if not self.annotations:
            return 0
        return max(annotated.bag_nesting()
                   for _, annotated in self.annotations)


def infer_type(expr: Expr,
               schema: Optional[Mapping[str, Type] | Schema] = None,
               **named_types: Type) -> Type:
    """Infer the result type of an expression (one-shot convenience)."""
    return TypeChecker().check(expr, schema, **named_types)


def annotate_types(expr: Expr,
                   schema: Optional[Mapping[str, Type] | Schema] = None,
                   **named_types: Type) -> List[Tuple[Expr, Type]]:
    """Return the full (node, type) annotation log for an expression."""
    checker = TypeChecker()
    checker.check(expr, schema, **named_types)
    return checker.annotations


#: The operators whose ``_infer`` states what evaluation produces.
#: ``Ifp`` (and any other extension node) is not among them: its body
#: is typed once, under the seed's type, not at the fixpoint.
_PROVABLE = frozenset((
    Var, Const, AdditiveUnion, Subtraction, MaxUnion, Intersection,
    Select, Map, Dedup, Cartesian, Attribute, Tupling, Bagging,
    BagDestroy, Powerset, Powerbag, Nest, Unnest))


class _DataflowChecker(TypeChecker):
    """A checker that keeps, by node identity, the type of every node
    it types in the schema's own environment — outside every lambda,
    which is where a plan's dataflow nodes sit.

    It leaves a selection's lambdas untyped: they decide which members
    stay, never their type (the selection's type is its operand's), so
    comparing two sides of different types is no reason to withhold
    the proof."""

    def __init__(self):  # no annotation log: the types by identity
        self.types: Dict[int, Type] = {}

    def infer(self, expr: Expr, tenv) -> Type:
        kind = type(expr)
        if kind not in _PROVABLE:
            raise BagTypeError(f"{kind.__name__} has no static type proof")
        if kind is Select:
            inferred = self.infer(expr.operand, tenv)
            if not isinstance(inferred, BagType):
                raise BagTypeError("selection requires a bag operand")
        else:
            inferred = expr._infer(self, tenv)
        if tenv[1] is None:
            self.types[id(expr)] = inferred
        return inferred


def static_types(expr: Expr, schema: Mapping[str, Type]
                 ) -> Dict[int, Type]:
    """``id(node) -> type`` for the dataflow nodes of ``expr`` under
    ``schema`` — what the planner proves before it lowers.

    ``expr`` is well typed exactly when its own id is in the result.
    Otherwise the checker stopped at the first node it could not type
    (or at an operator outside :data:`_PROVABLE`), and the result holds
    only the subtrees it typed before that: each of those types is
    still sound, but nothing is said about the rest."""
    checker = _DataflowChecker()
    try:
        checker.infer(expr, (schema, None))
    except (BagTypeError, RecursionError):  # untypable: no proof
        pass
    return checker.types
