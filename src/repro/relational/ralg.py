"""The (nested) relational algebra baseline, as set semantics for BALG.

The paper compares BALG against RALG (flat relational algebra) and
RALG^k (nested relational algebra with set nesting <= k).  Their
operators are "similar to those of the bag algebra, but they operate
only on (nested) sets" — which we implement literally: a **set** is a
duplicate-free bag (recursively), and the relational evaluation of a
BALG expression applies duplicate elimination after every operator.

This gives three things:

* :func:`deep_dedup` — the sets-from-bags coercion;
* :class:`SetEvaluator` — evaluates any BALG AST under set semantics,
  i.e. *as* a nested-relational-algebra query (RALG when the types are
  flat, RALG^k when nested);
* :func:`ralg_translate` + :func:`supports_agree` — the constructive
  content of Proposition 4.2: for every ``BALG^1_{-minus}`` query Q
  there is an RALG query Q' with the same support on every input, and
  we *build* Q' by the proof's replacement rules and test the
  agreement.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError
from repro.core.eval import Evaluator
from repro.core.expr import (
    AdditiveUnion, Attribute, Bagging, BagDestroy, Cartesian, Const,
    Dedup, Expr, Intersection, Map, MaxUnion, Powerbag, Powerset,
    Select, Subtraction, Tupling, Var, map_children,
)

__all__ = [
    "deep_dedup", "is_set_value", "SetEvaluator", "relational_evaluate",
    "ralg_translate", "supports_agree",
]


def deep_dedup(value: Any) -> Any:
    """Coerce a complex object to a (nested) set: recursively remove
    duplicates at every bag level."""
    if isinstance(value, Tup):
        return Tup(*(deep_dedup(item) for item in value.items()))
    if isinstance(value, Bag):
        return Bag.from_counts(
            {deep_dedup(element): 1 for element in value.distinct()})
    return value


def is_set_value(value: Any) -> bool:
    """Is the object a (nested) set, i.e. duplicate-free at every
    level?"""
    if isinstance(value, Tup):
        return all(is_set_value(item) for item in value.items())
    if isinstance(value, Bag):
        return value.is_set() and all(is_set_value(element)
                                      for element in value.distinct())
    return True


class SetEvaluator(Evaluator):
    """Evaluates a BALG expression under *set* semantics.

    Every intermediate bag is deduplicated (recursively at the top
    level only — inner bags were themselves produced by deduplicated
    steps), which is precisely how the nested relational algebra
    interprets the same operator symbols.  Additive union collapses to
    union, Cartesian product to relational product, MAP to relational
    restructuring, powerset to the relational powerset.
    """

    def eval(self, expr: Expr, env) -> Any:
        result = super().eval(expr, env)
        if isinstance(expr, Const):
            return deep_dedup(result)  # a literal is an input: all levels
        if isinstance(result, Bag):
            result = Bag.from_counts(
                {element: 1 for element in result.distinct()})
        return result

    def run(self, expr: Expr,
            database: Optional[Mapping[str, Bag]] = None,
            **named_bags: Bag) -> Any:
        # Inputs are coerced to sets: a relational query only ever sees
        # relations.
        bindings = {}
        if database is not None:
            bindings.update(database)
        bindings.update(named_bags)
        coerced = {name: deep_dedup(bag) if isinstance(bag, Bag) else bag
                   for name, bag in bindings.items()}
        return super().run(expr, coerced)


def relational_evaluate(expr: Expr,
                        database: Optional[Mapping[str, Bag]] = None,
                        powerset_budget: Optional[int] = None,
                        **named_bags: Bag) -> Any:
    """One-shot set-semantics evaluation (the RALG/RALG^k baseline)."""
    return SetEvaluator(powerset_budget=powerset_budget).run(
        expr, database, **named_bags)


# ----------------------------------------------------------------------
# Proposition 4.2: BALG^1 without subtraction = RALG on supports
# ----------------------------------------------------------------------

_FORBIDDEN_42 = (Subtraction, Powerset, Powerbag, BagDestroy)

#: The operators the translation keeps (additive union turns maximal).
_KEPT_42 = (Var, Const, AdditiveUnion, MaxUnion, Intersection, Cartesian,
            Map, Select, Tupling, Bagging, Attribute)


def ralg_translate(expr: Expr) -> Expr:
    """The Q -> Q' construction in the proof of Proposition 4.2.

    Replaces every BALG^1_{-minus} operator by its relational
    counterpart: additive union becomes (set) union, and the remaining
    operators keep their syntax — under set semantics they *are* the
    relational operators.  Duplicate elimination is simply omitted.
    The result is meant to be evaluated with :class:`SetEvaluator`.
    """
    if isinstance(expr, _FORBIDDEN_42):
        raise BagTypeError(
            f"Proposition 4.2 covers BALG^1 without subtraction; "
            f"operator {type(expr).__name__} is outside the fragment")
    if isinstance(expr, Dedup):
        return ralg_translate(expr.operand)   # eps is dropped
    if isinstance(expr, _KEPT_42):
        translated = map_children(expr, ralg_translate)
        if isinstance(translated, AdditiveUnion):
            return MaxUnion(translated.left, translated.right)
        return translated
    raise BagTypeError(
        f"unexpected operator {type(expr).__name__} in a BALG^1 "
        "expression")


def supports_agree(query: Expr, database: Mapping[str, Bag]) -> bool:
    """Check the Proposition 4.2 statement on a concrete input:
    ``a in Q(DB)  iff  a in Q'(DB')`` where DB' deduplicates every
    relation.  Returns True when the supports coincide."""
    bag_result = Evaluator().run(query, database)
    set_result = SetEvaluator().run(ralg_translate(query), database)
    if not isinstance(bag_result, Bag) or not isinstance(set_result, Bag):
        return bag_result == set_result
    return bag_result.support() == set_result.support()
