"""Pretty-printer: AST back to parseable surface syntax.

``parse(to_text(expr))`` is the identity up to the projection sugar
(``pi[..]`` prints as the MAP it desugars to only when the MAP does not
match the projection shape).
"""

from __future__ import annotations

from typing import Any

from repro.core.bag import Bag, Tup, canonical_key
from repro.core.errors import BagTypeError
from repro.core.expr import (
    AdditiveUnion, Attribute, Bagging, BagDestroy, Cartesian, Const,
    Dedup, Expr, Intersection, Map, MaxUnion, Powerbag, Powerset,
    Select, Subtraction, Tupling, Var, fresh_name, substitute,
)

__all__ = ["to_text"]

_CMP_TEXT = {"eq": "=", "ne": "!=", "le": "<=", "lt": "<"}


def to_text(expr: Expr) -> str:
    """Render an expression in the parseable surface syntax."""
    return _render(expr)


def _render(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return _render_literal(expr.value)
    if isinstance(expr, AdditiveUnion):
        return f"({_render(expr.left)} (+) {_render(expr.right)})"
    if isinstance(expr, Subtraction):
        return f"({_render(expr.left)} - {_render(expr.right)})"
    if isinstance(expr, MaxUnion):
        return f"({_render(expr.left)} u {_render(expr.right)})"
    if isinstance(expr, Intersection):
        return f"({_render(expr.left)} n {_render(expr.right)})"
    if isinstance(expr, Cartesian):
        return f"({_render(expr.left)} x {_render(expr.right)})"
    if isinstance(expr, Powerset):
        return f"P({_render(expr.operand)})"
    if isinstance(expr, Powerbag):
        return f"Pb({_render(expr.operand)})"
    if isinstance(expr, BagDestroy):
        return f"delta({_render(expr.operand)})"
    if isinstance(expr, Dedup):
        return f"eps({_render(expr.operand)})"
    if isinstance(expr, Bagging):
        return f"beta({_render(expr.item)})"
    if isinstance(expr, Tupling):
        inner = ", ".join(_render(part) for part in expr.parts)
        return f"tau({inner})"
    if isinstance(expr, Attribute):
        return f"alpha{expr.index}({_render(expr.operand)})"
    if isinstance(expr, Map):
        projection = _as_projection(expr)
        if projection is not None:
            indices = ",".join(str(i) for i in projection)
            return f"pi[{indices}]({_render(expr.operand)})"
        param, body = _renamed(expr.lam.param, expr.lam.body)
        return (f"map[{param}: {_render(body)}]"
                f"({_render(expr.operand)})")
    if isinstance(expr, Select):
        comparator = _CMP_TEXT[expr.op]
        left_param, left_body = _renamed(expr.left.param,
                                         expr.left.body)
        right_param, right_body = _renamed(expr.right.param,
                                           expr.right.body)
        if left_param != right_param:
            # normalise both sides to the left parameter name
            right_body = substitute(right_body,
                                    {right_param: Var(left_param)})
        return (f"sigma[{left_param}: {_render(left_body)} "
                f"{comparator} {_render(right_body)}]"
                f"({_render(expr.operand)})")
    from repro.core.nest import Nest, Unnest
    if isinstance(expr, Nest):
        listed = ",".join(str(i) for i in expr.indices)
        return f"nest[{listed}]({_render(expr.operand)})"
    if isinstance(expr, Unnest):
        return f"unnest[{expr.index}]({_render(expr.operand)})"
    # extension nodes (e.g. Ifp)
    from repro.machines.ifp import Ifp
    if isinstance(expr, Ifp):
        param, body = _renamed(expr.param, expr.body)
        return f"ifp[{param}: {_render(body)}; {_render(expr.seed)}]"
    raise BagTypeError(
        f"no surface form for node {type(expr).__name__}")


def _renamed(param: str, body: Expr):
    """The library's internal lambda names start with '·', which the
    lexer does not accept; rename binder *and* occurrences."""
    safe = param.replace("·", "v_")
    if safe == param:
        return param, body
    if safe in body.free_vars():
        safe = fresh_name(safe, body.free_vars())
    return safe, substitute(body, {param: Var(safe)})


def _as_projection(expr: Map):
    """Detect ``MAP[lam t. tau(alpha_i1 t, ..., alpha_ik t)]`` and
    return the indices, else None."""
    body = expr.lam.body
    if not isinstance(body, Tupling) or not body.parts:
        return None
    indices = []
    for part in body.parts:
        if (isinstance(part, Attribute)
                and isinstance(part.operand, Var)
                and part.operand.name == expr.lam.param):
            indices.append(part.index)
        else:
            return None
    return indices


def _render_literal(value: Any) -> str:
    if isinstance(value, Bag):
        parts = []
        for element in sorted(value.distinct(), key=canonical_key):
            parts.extend([_render_literal(element)]
                         * value.multiplicity(element))
        return "{{" + ", ".join(parts) + "}}"
    if isinstance(value, Tup):
        inner = ", ".join(_render_literal(item) for item in value.items())
        return f"[{inner}]"
    if isinstance(value, str):
        if "'" in value:
            raise BagTypeError(
                "atom literals containing quotes have no surface form")
        return f"'{value}'"
    if isinstance(value, bool):
        raise BagTypeError("boolean atoms have no surface form")
    if isinstance(value, int):
        return str(value)
    raise BagTypeError(
        f"atom {value!r} has no surface form (use str or int atoms)")
