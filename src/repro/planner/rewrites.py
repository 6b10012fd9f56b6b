"""Planner rewrite passes: the algebraic rules of Section 3, tagged.

The paper notes that the operators satisfy the classical algebraic
properties (associativity, commutativity of the unions and the
intersection) "which can be used to define rewriting rules, to optimize
queries over bags, in the same spirit as optimization of queries over
sets, by pushing down selections for instance".  This module carries
that rule set with the planner's discipline: every rule is registered
as a :class:`Rule` carrying

* a stable **name** (what ``:passes`` toggles and ``:explain`` counts),
* the **stage** it belongs to (``normalize`` rules are unconditional
  structural clean-ups that run at ``--opt-level >= 1``; ``rewrite``
  rules are the cost-directed algebraic equivalences of
  ``--opt-level 2``), and
* its **side condition**: the explicit statement of *why* the rule
  preserves bag semantics — multiplicities, not just the supporting
  set.  The paper's warning ([CV93]) is that conjunctive-query
  minimization does not survive the move to bags; these annotations
  are the per-rule record of what does, in the semiring-annotation
  spirit of *Codd's Theorem for Databases over Semirings*.

Every rule is a function ``Expr -> Optional[Expr]`` returning the
rewritten node or ``None``.  The pass manager
(:mod:`repro.planner.manager`) applies them bottom-up to a governed,
bounded fixpoint, and the differential testkit checks every rule
preserves semantics on random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

from repro.core import ops
from repro.core.bag import Bag, EMPTY_BAG
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Expr,
    Intersection, Lam, Map, MaxUnion, Powerset, Select, Subtraction,
    Tupling, Var, fresh_name, substitute,
)

__all__ = [
    "Rule", "RewriteRule", "substitute",
    "NORMALIZE_RULES", "REWRITE_RULES", "ALL_RULES", "rule_named",
    "product_pushdown_rule",
    "fold_constants", "drop_neutral_elements", "idempotent_extremes",
    "self_subtraction", "cancel_attribute_of_tupling", "collapse_dedup",
    "fuse_maps", "push_selection_through_map",
    "push_selection_into_union", "make_push_selection_into_product",
]

RewriteRule = Callable[[Expr], Optional[Expr]]


@dataclass(frozen=True)
class Rule:
    """A named, stage-tagged rewrite with its soundness annotation."""

    name: str
    fn: RewriteRule
    stage: str  # "normalize" | "rewrite"
    side_condition: str
    requires_schema: bool = False
    #: The rewrite performs multiplicity arithmetic over N at compile
    #: time, so it is only sound when the plan's semiring is N: e.g.
    #: folding ``({{x}} (+) {{x}}) - {{x}}`` to ``{{x}}`` is wrong
    #: under Bool, and folding at all re-labels provenance variables.
    nat_only: bool = False

    def __call__(self, expr: Expr) -> Optional[Expr]:
        return self.fn(expr)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

_BINARY_OPS = {
    AdditiveUnion: ops.additive_union,
    Subtraction: ops.subtraction,
    MaxUnion: ops.max_union,
    Intersection: ops.intersection,
    Cartesian: ops.cartesian,
}


def fold_constants(expr: Expr) -> Optional[Expr]:
    """Evaluate binary operators whose operands are both literals."""
    operator = _BINARY_OPS.get(type(expr))
    if operator is None:
        return None
    left, right = expr.left, expr.right
    if (isinstance(left, Const) and isinstance(right, Const)
            and isinstance(left.value, Bag)
            and isinstance(right.value, Bag)):
        return Const(operator(left.value, right.value))
    return None


def _is_empty_const(expr: Expr) -> bool:
    return (isinstance(expr, Const) and isinstance(expr.value, Bag)
            and expr.value.is_empty())


def drop_neutral_elements(expr: Expr) -> Optional[Expr]:
    """``B (+) {{}} = B``, ``B u {{}} = B``, ``B - {{}} = B``,
    ``{{}} - B = {{}}``, ``B n {{}} = {{}}``."""
    if isinstance(expr, (AdditiveUnion, MaxUnion)):
        if _is_empty_const(expr.left):
            return expr.right
        if _is_empty_const(expr.right):
            return expr.left
    if isinstance(expr, Subtraction):
        if _is_empty_const(expr.right):
            return expr.left
        if _is_empty_const(expr.left):
            return Const(EMPTY_BAG)
    if isinstance(expr, Intersection):
        if _is_empty_const(expr.left) or _is_empty_const(expr.right):
            return Const(EMPTY_BAG)
    return None


def idempotent_extremes(expr: Expr) -> Optional[Expr]:
    """``B u B = B`` and ``B n B = B`` for syntactically identical
    (hence semantically identical — expressions are pure) operands."""
    if isinstance(expr, (MaxUnion, Intersection)):
        if expr.left == expr.right:
            return expr.left
    return None


def self_subtraction(expr: Expr) -> Optional[Expr]:
    """``B - B = {{}}``."""
    if isinstance(expr, Subtraction) and expr.left == expr.right:
        return Const(EMPTY_BAG)
    return None


def collapse_dedup(expr: Expr) -> Optional[Expr]:
    """``eps(eps(B)) = eps(B)`` and ``eps(P(B)) = P(B)`` (a powerset is
    already duplicate-free)."""
    if isinstance(expr, Dedup):
        if isinstance(expr.operand, Dedup):
            return expr.operand
        if isinstance(expr.operand, Powerset):
            return expr.operand
    return None


def _compose(outer: Lam, inner: Lam) -> Lam:
    """``lambda p. outer(inner(p))``, with the inner binder renamed
    where the outer body mentions its name free."""
    param, body = inner.param, inner.body
    names = outer.body.free_vars() - {outer.param}
    if param in names:
        param = fresh_name(param, names | body.free_vars())
        body = substitute(body, {inner.param: Var(param)})
    return Lam(param, substitute(outer.body, {outer.param: body}))


def fuse_maps(expr: Expr) -> Optional[Expr]:
    """``MAP_f(MAP_g(B)) = MAP_{f o g}(B)``.

    Correct under bag semantics because MAP adds the multiplicities of
    colliding images, and function composition collides exactly the
    same members.
    """
    if not isinstance(expr, Map) or not isinstance(expr.operand, Map):
        return None
    return Map(_compose(expr.lam, expr.operand.lam),
               expr.operand.operand)


def cancel_attribute_of_tupling(expr: Expr) -> Optional[Expr]:
    """``alpha_i(tau(o1, ..., ok)) = o_i`` — the beta-reduction that
    MAP fusion leaves behind."""
    if isinstance(expr, Attribute) and isinstance(expr.operand, Tupling):
        if 1 <= expr.index <= len(expr.operand.parts):
            return expr.operand.parts[expr.index - 1]
    return None


def push_selection_through_map(expr: Expr) -> Optional[Expr]:
    """``sigma_{phi=phi'}(MAP_f(B)) = MAP_f(sigma_{phi.f = phi'.f}(B))``.

    Sound for any comparator: a member o of B contributes to the
    selected result iff its image f(o) passes the test, i.e. iff o
    passes the composed test; MAP's additive collision handling is
    unaffected because exactly the same members survive.  Running the
    selection first shrinks the bag MAP traverses.
    """
    if not isinstance(expr, Select) or not isinstance(expr.operand,
                                                      Map):
        return None
    mapped = expr.operand
    pushed = Select(_compose(expr.left, mapped.lam),
                    _compose(expr.right, mapped.lam), mapped.operand,
                    op=expr.op)
    return Map(mapped.lam, pushed)


def push_selection_into_union(expr: Expr) -> Optional[Expr]:
    """``sigma(A (+) B) = sigma(A) (+) sigma(B)`` (same for u, n, -):
    selections commute with all four multiplicity-wise operators."""
    if not isinstance(expr, Select):
        return None
    operand = expr.operand
    if isinstance(operand, (AdditiveUnion, MaxUnion, Intersection,
                            Subtraction)):
        return type(operand)(
            Select(expr.left, expr.right, operand.left, op=expr.op),
            Select(expr.left, expr.right, operand.right, op=expr.op))
    return None


def _attribute_indices(body: Expr, param: str) -> Optional[Set[int]]:
    """The set of attribute indices a restricted lambda body projects
    from its parameter; None when the body is not of the restricted
    shape ``Attribute(Var(param), i)`` / constants / tupling thereof."""
    if isinstance(body, Const):
        return set()
    if isinstance(body, Attribute) and isinstance(body.operand, Var) \
            and body.operand.name == param:
        return {body.index}
    if isinstance(body, Tupling):
        indices: Set[int] = set()
        for part in body.parts:
            inner = _attribute_indices(part, param)
            if inner is None:
                return None
            indices |= inner
        return indices
    return None


def _shift_attributes(body: Expr, param: str, offset: int) -> Expr:
    """Reindex the attribute projections of a restricted lambda body."""
    if isinstance(body, Const):
        return body
    if isinstance(body, Attribute):
        return Attribute(body.operand, body.index + offset)
    if isinstance(body, Tupling):
        return Tupling(*(_shift_attributes(part, param, offset)
                         for part in body.parts))
    raise AssertionError("unreachable: shape checked beforehand")


def make_push_selection_into_product(
        left_arity_of: Callable[[Expr], Optional[int]]) -> RewriteRule:
    """Build the selection-pushdown-through-product rule.

    The rule needs the arity of the product's left operand to decide
    which side a selection touches; ``left_arity_of`` supplies it (the
    planner wires this to the type checker via the plan context's
    schema).
    """

    def rule(expr: Expr) -> Optional[Expr]:
        if not isinstance(expr, Select) or not isinstance(expr.operand,
                                                          Cartesian):
            return None
        product = expr.operand
        arity = left_arity_of(product.left)
        if arity is None:
            return None
        left_idx = _attribute_indices(expr.left.body, expr.left.param)
        right_idx = _attribute_indices(expr.right.body, expr.right.param)
        if left_idx is None or right_idx is None:
            return None
        touched = left_idx | right_idx
        if touched and max(touched) <= arity:
            pushed = Select(expr.left, expr.right, product.left,
                            op=expr.op)
            return Cartesian(pushed, product.right)
        if touched and min(touched) > arity:
            shifted_left = Lam(expr.left.param, _shift_attributes(
                expr.left.body, expr.left.param, -arity))
            shifted_right = Lam(expr.right.param, _shift_attributes(
                expr.right.body, expr.right.param, -arity))
            pushed = Select(shifted_left, shifted_right, product.right,
                            op=expr.op)
            return Cartesian(product.left, pushed)
        return None

    return rule


# ----------------------------------------------------------------------
# The registry: names, stages, side conditions
# ----------------------------------------------------------------------

#: Normalize-stage rules: unconditional structural clean-ups.  They are
#: confluent and terminating on their own, so they run at every opt
#: level >= 1 (opt level 0 disables even these — the differential
#: backend ``engine-opt0`` wants the raw tree).
NORMALIZE_RULES: Tuple[Rule, ...] = (
    Rule("cancel-attribute", cancel_attribute_of_tupling, "normalize",
         "alpha_i(tau(o_1..o_k)) = o_i holds per member object; no bag "
         "is touched, so every multiplicity is preserved verbatim."),
    Rule("collapse-dedup", collapse_dedup, "normalize",
         "eps is idempotent and P(B) is duplicate-free by "
         "construction, so the inner pass already produced every "
         "multiplicity the outer pass would."),
)

#: Rewrite-stage rules: the cost-directed algebraic equivalences,
#: ordered cheap-first.  Enabled at opt level 2.
REWRITE_RULES: Tuple[Rule, ...] = (
    Rule("fold-constants", fold_constants, "rewrite",
         "both operands are literal bags, so the kernel operator "
         "computes the exact result multiplicities at compile time.  "
         "N-only: the fold runs the N kernels, which disagrees with "
         "non-cancellative domains and re-indexes provenance labels.",
         nat_only=True),
    Rule("drop-neutral", drop_neutral_elements, "rewrite",
         "{{}} is the neutral element of (+), u, and right-monus and "
         "absorbing for n and left-monus under the multiplicity "
         "definitions of Section 3; no non-empty operand changes."),
    Rule("idempotent-extremes", idempotent_extremes, "rewrite",
         "max(n, n) = n and min(n, n) = n pointwise on "
         "multiplicities; sound only for syntactically identical "
         "operands, which purity upgrades to semantic identity."),
    Rule("self-subtraction", self_subtraction, "rewrite",
         "monus gives n - n = 0 pointwise on multiplicities; needs "
         "the identical-operand side condition, as above."),
    Rule("fuse-maps", fuse_maps, "rewrite",
         "MAP adds the multiplicities of colliding images, and f o g "
         "collides exactly the members g collides then f collides — "
         "the additive collision totals agree."),
    Rule("push-select-map", push_selection_through_map, "rewrite",
         "a member passes sigma after MAP_f iff it passes the "
         "f-composed test before; the surviving member set is "
         "identical, so MAP's additive collisions are unchanged.  "
         "Side condition: no binder captures a free variable (the "
         "composed lambdas rename theirs where one would)."),
    Rule("push-select-union", push_selection_into_union, "rewrite",
         "sigma filters each member independently of its "
         "multiplicity, and (+), u, n, monus combine multiplicities "
         "pointwise per member — filtering before or after combining "
         "yields the same pointwise totals."),
)

#: All statically-known rules (the schema-dependent product pushdown is
#: constructed per-compilation by :func:`product_pushdown_rule`).
ALL_RULES: Tuple[Rule, ...] = NORMALIZE_RULES + REWRITE_RULES


def product_pushdown_rule(left_arity_of: Callable[[Expr], Optional[int]]
                          ) -> Rule:
    """The schema-driven selection-pushdown-through-product rule,
    wrapped with its planner metadata."""
    return Rule("push-select-product",
                make_push_selection_into_product(left_arity_of),
                "rewrite",
                "a selection touching only the left (resp. right) "
                "factor's attribute positions filters members "
                "independently of the other factor; x multiplies "
                "multiplicities, so filtering one factor first scales "
                "the same products.  Side condition: the left operand's "
                "arity must be known (from the schema) and the touched "
                "positions must fall entirely on one side.",
                requires_schema=True)


def rule_named(name: str) -> Rule:
    """Look up a statically-registered rule by name."""
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise KeyError(f"no rewrite rule named {name!r}")
