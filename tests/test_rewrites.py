"""Tests for the rewrite rules (repro.planner.rewrites) and the
planner's rewrite fixpoint.  Every rule must preserve bag semantics —
checked on random inputs — and the fixpoint must be reached."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.derived import select_attr_eq_const
from repro.core.eval import evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Lam, Map,
    MaxUnion, Powerset, Select, Subtraction, Tupling, Var, var,
)
from repro.core.types import flat_bag_type
from repro import planner
from repro.planner import PassConfig, PlanContext, estimated_cost
from repro.planner.rewrites import (
    cancel_attribute_of_tupling, collapse_dedup, drop_neutral_elements,
    fold_constants, fuse_maps, idempotent_extremes,
    push_selection_into_union, push_selection_through_map,
    self_subtraction, substitute,
)
from tests.conftest import atom_bags, flat_bags


def _compile(expr, schema=None):
    """The planner's logical stages at opt level 2."""
    return planner.compile(expr, PlanContext(
        engine="tree", schema=schema, config=PassConfig.for_level(2)))


def _optimize(expr, schema=None):
    return _compile(expr, schema).logical


class TestSubstitute:
    def test_variable(self):
        assert substitute(var("X"), "X", var("Y")) == var("Y")
        assert substitute(var("Z"), "X", var("Y")) == var("Z")

    def test_under_binders_respects_shadowing(self):
        body = Map(Lam("x", Var("x")), Var("x"))
        # substituting for "x" must rewrite the free operand occurrence
        # but not the bound body occurrence
        replaced = substitute(body, "x", var("B"))
        assert replaced == Map(Lam("x", Var("x")), var("B"))

    def test_nested_structures(self):
        expr = Tupling(Attribute(Var("x"), 1), Const("k"))
        replaced = substitute(expr, "x", Var("y"))
        assert replaced == Tupling(Attribute(Var("y"), 1), Const("k"))


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

    def test_capture_guard(self):
        """A selection lambda freely mentioning the MAP parameter's
        name must not be rewritten (it would be captured)."""
        mapped = Map(Lam("m", Tupling(Attribute(Var("m"), 1))),
                     var("B"))
        risky = Select(Lam("s", Var("m")),        # free "m"!
                       Lam("s", Var("m")), mapped)
        assert push_selection_through_map(risky) is None

    @given(flat_bags(arity=2))
    def test_engine_applies_it(self, bag):
        mapped = Map(Lam("m", Tupling(Attribute(Var("m"), 2),
                                      Const("k"))), var("B"))
        query = Select(Lam("s", Attribute(Var("s"), 2)),
                       Lam("s", Const("k")), mapped)
        optimized = _optimize(query)
        assert isinstance(optimized, Map)
        assert evaluate(optimized, B=bag) == evaluate(query, B=bag)
