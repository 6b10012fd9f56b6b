"""Tests for the rewrite rules (repro.planner.rewrites) and the
planner's rewrite fixpoint.  Every rule must preserve bag semantics —
checked on random inputs — and the fixpoint must be reached.

The capture-avoiding ``substitute`` is also checked as a generated
property: on BALG^1 and BALG^2 cases, replacing a relation ``R`` by
the variable ``t1`` (the generator's own first lambda parameter) and
binding ``t1`` to ``R``'s bag leaves the answer unchanged.  A longer
stream (the CI ``engine-parity`` job runs it on the run-id seed)::

    PYTHONPATH=src python -m tests.test_rewrites --cases 200 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import pytest
from hypothesis import given

import repro.core.expr as expr_module
from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.derived import select_attr_eq_const
from repro.core.errors import GovernedError, ReproError, ResourceLimitError
from repro.core.eval import Evaluator, evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Lam, Map,
    MaxUnion, Powerset, Select, Subtraction, Tupling, Var, var,
)
from repro.core.types import flat_bag_type
from repro.engine import evaluate as engine_evaluate
from repro.machines import Ifp
from repro import planner
from repro.planner import PassConfig, PlanContext, estimated_cost
from repro.planner.rewrites import (
    cancel_attribute_of_tupling, collapse_dedup, drop_neutral_elements,
    fold_constants, fuse_maps, idempotent_extremes,
    push_selection_into_union, push_selection_through_map,
    self_subtraction, substitute,
)
from repro.surface import parse, to_text
from repro.testkit import generate_case
from repro.testkit.cli import _resolve_seed
from repro.testkit.differential import DEFAULT_LIMITS
from tests.conftest import atom_bags, flat_bags

SEED = 33
CASES = 200
FRAGMENTS = ("balg1", "balg2")


def _compile(expr, schema=None):
    """The planner's logical stages at opt level 2."""
    return planner.compile(expr, PlanContext(
        engine="tree", schema=schema, config=PassConfig.for_level(2)))


def _optimize(expr, schema=None):
    return _compile(expr, schema).logical


class TestSubstitute:
    def test_variable(self):
        assert substitute(var("X"), {"X": var("Y")}) == var("Y")
        assert substitute(var("Z"), {"X": var("Y")}) == var("Z")

    def test_under_binders_respects_shadowing(self):
        body = Map(Lam("x", Var("x")), Var("x"))
        # substituting for "x" must rewrite the free operand occurrence
        # but not the bound body occurrence
        replaced = substitute(body, {"x": var("B")})
        assert replaced == Map(Lam("x", Var("x")), var("B"))

    def test_nested_structures(self):
        expr = Tupling(Attribute(Var("x"), 1), Const("k"))
        replaced = substitute(expr, {"x": Var("y")})
        assert replaced == Tupling(Attribute(Var("y"), 1), Const("k"))

    def test_simultaneous(self):
        swapped = substitute(Tupling(Var("x"), Var("y")),
                             {"x": Var("y"), "y": Var("x")})
        assert swapped == Tupling(Var("y"), Var("x"))

    def test_renames_a_capturing_binder(self):
        expr = Map(Lam("y", Tupling(Var("x"), Var("y"))), var("R"))
        replaced = substitute(expr, {"x": Attribute(Var("y"), 1)})
        assert replaced == Map(
            Lam("y_1", Tupling(Attribute(Var("y"), 1), Var("y_1"))),
            var("R"))

    def test_unchanged_subtree_keeps_its_identity(self):
        expr = Map(Lam("y", Var("y")), var("R")) + var("S")
        assert substitute(expr, {"T": var("U")}) is expr
        assert substitute(expr, {"S": var("U")}).left is expr.left

    def test_into_ifp_seed_and_body(self):
        fixpoint = Ifp("X", Var("X") + var("G"), var("G"))
        assert substitute(fixpoint, {"G": var("H")}) == Ifp(
            "X", Var("X") + var("H"), var("H"))
        # the IFP parameter shadows in the body only
        assert substitute(fixpoint, {"X": var("H")}) == fixpoint
        # and is renamed where it would capture
        assert substitute(fixpoint, {"G": Var("X")}) == Ifp(
            "X_1", Var("X_1") + Var("X"), Var("X"))

    def test_printer_renames_inside_an_ifp(self):
        expr = Map(Lam("·p", Ifp("a", Var("a"), Var("·p"))), var("R"))
        text = to_text(expr)
        assert "·" not in text
        assert parse(text) == Map(
            Lam("v_p", Ifp("a", Var("a"), Var("v_p"))), var("R"))


class TestIndividualRules:
    def test_fold_constants(self):
        expr = AdditiveUnion(Const(Bag.of("a")), Const(Bag.of("a")))
        folded = fold_constants(expr)
        assert folded == Const(Bag.from_counts({"a": 2}))

    def test_fold_ignores_variables(self):
        assert fold_constants(var("A") + Const(Bag.of("a"))) is None

    def test_drop_neutral(self):
        assert drop_neutral_elements(var("B") + Const(EMPTY_BAG)) == \
            var("B")
        assert drop_neutral_elements(Const(EMPTY_BAG) - var("B")) == \
            Const(EMPTY_BAG)
        assert drop_neutral_elements(var("B") & Const(EMPTY_BAG)) == \
            Const(EMPTY_BAG)

    def test_idempotent_extremes(self):
        assert idempotent_extremes(var("B") | var("B")) == var("B")
        assert idempotent_extremes(var("B") & var("B")) == var("B")
        assert idempotent_extremes(var("A") | var("B")) is None

    def test_self_subtraction(self):
        assert self_subtraction(var("B") - var("B")) == Const(EMPTY_BAG)

    def test_collapse_dedup(self):
        assert collapse_dedup(Dedup(Dedup(var("B")))) == Dedup(var("B"))
        assert collapse_dedup(Dedup(Powerset(var("B")))) == \
            Powerset(var("B"))

    def test_cancel_attribute_of_tupling(self):
        expr = Attribute(Tupling(Const("a"), Const("b")), 2)
        assert cancel_attribute_of_tupling(expr) == Const("b")

    def test_fuse_maps_structure(self):
        inner = Lam("x", Tupling(Attribute(Var("x"), 2),
                                 Attribute(Var("x"), 1)))
        outer = Lam("y", Attribute(Var("y"), 1))
        fused = fuse_maps(Map(outer, Map(inner, var("B"))))
        assert isinstance(fused, Map)
        assert fused.operand == var("B")

    def test_push_selection_into_union(self):
        query = select_attr_eq_const(var("A") + var("B"), 1, "a")
        pushed = push_selection_into_union(query)
        assert isinstance(pushed, AdditiveUnion)
        assert isinstance(pushed.left, Select)


class TestRuleSoundness:
    """Each rewrite preserves semantics on random inputs."""

    @given(atom_bags())
    def test_neutral_elements_sound(self, bag):
        expr = var("B") + Const(EMPTY_BAG)
        assert evaluate(_optimize(expr), B=bag) == evaluate(expr, B=bag)

    @given(flat_bags(arity=2))
    def test_fusion_sound(self, bag):
        inner = Lam("x", Tupling(Attribute(Var("x"), 2),
                                 Attribute(Var("x"), 1)))
        outer = Lam("y", Tupling(Attribute(Var("y"), 1),
                                 Const("k")))
        expr = Map(outer, Map(inner, var("B")))
        assert evaluate(_optimize(expr), B=bag) == evaluate(expr, B=bag)

    @given(flat_bags(arity=2), flat_bags(arity=2))
    def test_selection_union_pushdown_sound(self, left, right):
        expr = select_attr_eq_const(var("A") + var("B"), 1, "a")
        optimized = _optimize(expr)
        env = {"A": left, "B": right}
        assert evaluate(optimized, env) == evaluate(expr, env)

    @given(flat_bags(arity=2), flat_bags(arity=1))
    def test_product_pushdown_sound(self, left, right):
        schema = {"A": flat_bag_type(2), "B": flat_bag_type(1)}
        for index, const in [(1, "a"), (2, "b"), (3, "a")]:
            expr = select_attr_eq_const(var("A") * var("B"), index,
                                        const)
            optimized = _optimize(expr, schema)
            env = {"A": left, "B": right}
            assert evaluate(optimized, env) == evaluate(expr, env)

    @given(atom_bags())
    def test_idempotence_sound(self, bag):
        expr = var("B") | var("B")
        assert evaluate(_optimize(expr), B=bag) == evaluate(expr, B=bag)


class TestFixpoint:
    def test_reaches_fixpoint(self):
        expr = Dedup(Dedup(Dedup(var("B") + Const(EMPTY_BAG))))
        optimized = _optimize(expr)
        assert optimized == Dedup(var("B"))
        # optimizing again changes nothing
        assert _optimize(optimized) == optimized

    def test_product_pushdown_needs_schema(self):
        query = select_attr_eq_const(var("A") * var("B"), 1, "a")
        assert _optimize(query) == query  # schema-free: no pushdown
        schema = {"A": flat_bag_type(2), "B": flat_bag_type(1)}
        pushed = _optimize(query, schema)
        assert isinstance(pushed, Cartesian)

    def test_pushdown_reduces_intermediate_size(self):
        """The point of the exercise: the selection runs before the
        product, so the peak intermediate bag is smaller."""
        from repro.core.eval import Evaluator
        schema = {"A": flat_bag_type(2), "B": flat_bag_type(1)}
        A = Bag([Tup(str(i), "a" if i == 0 else "z")
                 for i in range(20)])
        B = Bag([Tup(str(i)) for i in range(20)])
        query = select_attr_eq_const(var("A") * var("B"), 2, "a")
        naive, clever = Evaluator(), Evaluator()
        naive.run(query, A=A, B=B)
        clever.run(_optimize(query, schema), A=A, B=B)
        assert (clever.stats.peak_encoding_size
                < naive.stats.peak_encoding_size)

    def test_rewrites_counted(self):
        report = _compile(Dedup(Dedup(var("B")))).report
        assert report.total_firings >= 1

    def test_estimated_cost_weights_powerset(self):
        assert estimated_cost(Powerset(var("B"))) > estimated_cost(
            Dedup(var("B")))

    def test_extension_nodes_pass_through(self):
        from repro.machines import Ifp
        expr = Ifp("X", Var("X"), var("G"))
        assert _optimize(expr) == expr


class TestSelectionThroughMap:
    @given(flat_bags(arity=2))
    def test_sound_on_random_inputs(self, bag):
        mapped = Map(Lam("m", Tupling(Attribute(Var("m"), 2))),
                     var("B"))
        query = Select(Lam("s", Attribute(Var("s"), 1)),
                       Lam("s", Const("a")), mapped)
        pushed = push_selection_through_map(query)
        assert pushed is not None
        assert isinstance(pushed, Map)
        assert evaluate(pushed, B=bag) == evaluate(query, B=bag)

    @given(flat_bags(arity=2))
    def test_capture_guard(self, bag):
        """A selection lambda freely mentioning the MAP parameter's
        name is pushed under a renamed binder, never captured."""
        mapped = Map(Lam("m", Tupling(Attribute(Var("m"), 2))),
                     var("B"))
        risky = Select(Lam("s", Attribute(Var("s"), 1)),
                       Lam("s", Var("m")), mapped)   # free "m"!
        pushed = push_selection_through_map(risky)
        assert isinstance(pushed, Map)
        assert pushed.operand.right.param != "m"
        env = {"B": bag, "m": "a"}
        assert evaluate(pushed, env) == evaluate(risky, env)

    @given(flat_bags(arity=2))
    def test_engine_applies_it(self, bag):
        mapped = Map(Lam("m", Tupling(Attribute(Var("m"), 2),
                                      Const("k"))), var("B"))
        query = Select(Lam("s", Attribute(Var("s"), 2)),
                       Lam("s", Const("k")), mapped)
        optimized = _optimize(query)
        assert isinstance(optimized, Map)
        assert evaluate(optimized, B=bag) == evaluate(query, B=bag)


# ----------------------------------------------------------------------
# Capture: the rules compose lambdas under inner binders
# ----------------------------------------------------------------------

_R = Bag([Tup("a"), Tup("c")])
_S = Bag([Tup("a"), Tup("b"), Tup("b")])

#: MAP[x. MAP[y. tau(x, y)](R)](MAP[y. alpha1(y)](S)): fusing substitutes
#: alpha1(y) under the inner binder y.
_FUSE_CAPTURE = Map(
    Lam("x", Map(Lam("y", Tupling(Var("x"), Var("y"))), var("R"))),
    Map(Lam("y", Attribute(Var("y"), 1)), var("S")))

#: sigma[x. MAP[y. x](R) = x. MAP[y. alpha1(y)](R)](MAP[y. alpha1(y)](S)):
#: pushing the selection substitutes alpha1(y) under the same binder.
_PUSH_CAPTURE = Select(
    Lam("x", Map(Lam("y", Var("x")), var("R"))),
    Lam("x", Map(Lam("y", Attribute(Var("y"), 1)), var("R"))),
    Map(Lam("y", Attribute(Var("y"), 1)), var("S")))


class TestCaptureAvoidance:
    @pytest.mark.parametrize("query", [_FUSE_CAPTURE, _PUSH_CAPTURE],
                             ids=["fuse-maps", "push-select-map"])
    def test_engines_agree_with_the_walker(self, query):
        database = {"R": _R, "S": _S}
        rewritten = _optimize(query)
        assert rewritten != query  # the rule fired
        expected = Evaluator().run(query, database)
        assert evaluate(rewritten, database) == expected
        assert engine_evaluate(query, database, engine="physical",
                               opt_level=2, cache=None) == expected
        assert engine_evaluate(query, database, engine="codegen",
                               cache=None) == expected

    def test_fused_binder_is_renamed_not_captured(self):
        fused = fuse_maps(_FUSE_CAPTURE)
        inner = fused.lam.body
        assert fused.lam.param == "y"
        assert inner.lam.param != "y"
        assert Attribute(Var("y"), 1) in inner.lam.body.parts

    def test_outer_free_variable_is_not_captured(self):
        """``MAP[x. tau(x, y)](MAP[y. alpha1(y)](S))`` with ``y`` free:
        the fused lambda cannot take ``y`` as its parameter."""
        query = Map(Lam("x", Tupling(Var("x"), Var("y"))),
                    Map(Lam("y", Attribute(Var("y"), 1)), var("S")))
        fused = fuse_maps(query)
        assert fused.lam.param != "y"
        env = {"S": _S, "y": "k"}
        assert evaluate(fused, env) == evaluate(query, env)

    def test_rewrites_inside_an_ifp(self):
        closure = Ifp("X", Dedup(Dedup(Var("X") + var("G"))), var("G"))
        rewritten = _optimize(closure)
        assert rewritten == Ifp("X", Dedup(Var("X") + var("G")),
                                var("G"))
        graph = Bag([Tup("a", "b"), Tup("b", "c")])
        assert evaluate(rewritten, G=graph) == evaluate(closure, G=graph)


# ----------------------------------------------------------------------
# The substitution property, generated
# ----------------------------------------------------------------------

def _outcome(expr, database):
    """The walker's bag, the typed error's class name, or ``None`` for
    a governed verdict."""
    try:
        return Evaluator(limits=DEFAULT_LIMITS).run(expr, database)
    except (GovernedError, ResourceLimitError, RecursionError):
        return None
    except ReproError as error:
        return type(error).__name__


def _read_under_t1(expr) -> set:
    """Names free in a child the generator's first binder scopes."""
    return {name for node in expr.walk()
            for child, binder in zip(node.children(), node.binders())
            if binder == "t1" for name in child.free_vars()}


def substitution_problems(seed: int, index: int,
                          fragment: str) -> List[str]:
    """``expr[R := t1]`` with ``t1`` bound to ``R``'s bag must answer
    what ``expr`` does.  ``R`` is a relation read under the ``t1``
    binder when there is one (the capturing case), else the first
    relation ``expr`` reads."""
    case = generate_case(seed, index, fragment=fragment)
    relations = case.expr.free_vars() & set(case.database)
    names = (sorted(relations & _read_under_t1(case.expr))
             or sorted(relations))
    if not names:
        return []
    substituted = substitute(case.expr, {names[0]: Var("t1")})
    expected = _outcome(case.expr, case.database)
    got = _outcome(substituted,
                   dict(case.database, t1=case.database[names[0]]))
    if expected is None or got is None or got == expected:
        return []
    return [f"{fragment} {case.label()}: {names[0]} := t1 in "
            f"{case.expr!r} gives {got!r}, expected {expected!r}"]


def substitution_sweep(seed: int, cases: int) -> List[str]:
    return [problem for fragment in FRAGMENTS
            for index in range(cases)
            for problem in substitution_problems(seed, index, fragment)]


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_substitution_property(fragment):
    assert not [problem for index in range(CASES)
                for problem in substitution_problems(SEED, index,
                                                     fragment)]


def test_a_capturing_substitute_is_caught(monkeypatch):
    """With binders never renamed, the property finds a capture."""
    monkeypatch.setattr(expr_module, "fresh_name",
                        lambda stem, taken: stem)
    assert substitution_sweep(SEED, CASES)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", default=str(SEED),
                        help="integer, or 'from-run-id' for "
                             "$GITHUB_RUN_ID")
    parser.add_argument("--cases", type=int, default=CASES)
    arguments = parser.parse_args(argv)
    seed = _resolve_seed(arguments.seed)
    problems = substitution_sweep(seed, arguments.cases)
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"substitution: seed {seed}, {arguments.cases} cases x "
          f"{len(FRAGMENTS)} fragments: "
          f"{'FAILED' if problems else 'OK'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
