"""Tests for the expression AST and the instrumented evaluator."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.database import encoding_size
from repro.core.errors import (
    BagTypeError, ResourceLimitError, UnboundVariableError,
)
from repro.core.eval import EvalStats, Evaluator, evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Bagging, Cartesian, Const,
    Dedup, EMPTY, Intersection, Lam, Map, MaxUnion, Powerbag, Powerset,
    Select, Subtraction, Tupling, Var, var,
)
from tests.conftest import atom_bags, flat_bags


class TestBasicEvaluation:
    def test_var_lookup(self, sample_bag):
        assert evaluate(var("B"), B=sample_bag) == sample_bag

    def test_const(self):
        assert evaluate(Const("a")) == "a"
        assert evaluate(EMPTY) == EMPTY_BAG

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(var("missing"))

    def test_operator_sugar(self, sample_bag):
        doubled = var("B") + var("B")
        assert evaluate(doubled, B=sample_bag).cardinality == 6
        gone = var("B") - var("B")
        assert evaluate(gone, B=sample_bag) == EMPTY_BAG
        assert evaluate(var("B") | var("B"), B=sample_bag) == sample_bag
        assert evaluate(var("B") & var("B"), B=sample_bag) == sample_bag

    def test_cartesian_sugar(self, sample_bag):
        assert evaluate(var("B") * var("B"),
                        B=sample_bag).cardinality == 9

    def test_tupling_and_bagging(self):
        expr = Bagging(Tupling(Const("a"), Const("b")))
        assert evaluate(expr) == Bag.of(Tup("a", "b"))

    def test_attribute(self):
        expr = Attribute(Const(Tup("x", "y")), 2)
        assert evaluate(expr) == "y"

    def test_powerset_node(self):
        result = evaluate(Powerset(var("B")), B=Bag.from_counts({"a": 2}))
        assert result.cardinality == 3

    def test_powerbag_node(self):
        result = evaluate(Powerbag(var("B")), B=Bag.from_counts({"a": 2}))
        assert result.cardinality == 4

    def test_bag_destroy_node(self):
        nested = Bag([Bag(["a", "a"]), Bag(["b"])])
        assert evaluate(BagDestroy(var("N")), N=nested) == Bag.from_counts(
            {"a": 2, "b": 1})

    def test_dedup_node(self, sample_bag):
        assert evaluate(Dedup(var("B")), B=sample_bag).is_set()


class TestLambdas:
    def test_map_with_lambda(self, sample_bag):
        swap = Lam("t", Tupling(Attribute(Var("t"), 2),
                                Attribute(Var("t"), 1)))
        swapped = evaluate(Map(swap, var("B")), B=sample_bag)
        assert swapped.multiplicity(Tup("b", "a")) == 2

    def test_select_equality(self, sample_bag):
        query = Select(Lam("t", Attribute(Var("t"), 1)),
                       Lam("t", Const("a")), var("B"))
        assert evaluate(query, B=sample_bag) == Bag.from_counts(
            {Tup("a", "b"): 2})

    def test_select_order_comparators(self):
        bag = Bag.of(Tup(1), Tup(2), Tup(3))
        below = Select(Lam("t", Attribute(Var("t"), 1)),
                       Lam("t", Const(2)), var("B"), op="le")
        assert evaluate(below, B=bag).cardinality == 2
        strictly = Select(Lam("t", Attribute(Var("t"), 1)),
                          Lam("t", Const(2)), var("B"), op="lt")
        assert evaluate(strictly, B=bag).cardinality == 1
        unequal = Select(Lam("t", Attribute(Var("t"), 1)),
                         Lam("t", Const(2)), var("B"), op="ne")
        assert evaluate(unequal, B=bag).cardinality == 2

    def test_invalid_comparator_rejected(self):
        with pytest.raises(BagTypeError):
            Select(Lam("t", Var("t")), Lam("t", Var("t")), var("B"),
                   op="ge")

    def test_lexical_scoping(self):
        """An inner lambda sees the enclosing lambda's variable —
        the pattern the Section 4 parity query depends on."""
        outer_bag = Bag.of(Tup("a"), Tup("b"))
        # For each x in B, count the elements equal to x: MAP over B of
        # (select y = x from B) collapsed to its cardinality marker.
        inner = Select(Lam("y", Var("y")), Lam("y", Var("x")), var("B"))
        query = Map(Lam("x", inner), var("B"))
        result = evaluate(query, B=outer_bag)
        assert result.multiplicity(Bag.of(Tup("a"))) == 1
        assert result.multiplicity(Bag.of(Tup("b"))) == 1

    def test_shadowing(self):
        # The innermost binding of the same name wins.
        body = Map(Lam("x", Var("x")), var("B"))
        shadowed = Map(Lam("x", body), var("Outer"))
        result = evaluate(shadowed, B=Bag.of("z"),
                          Outer=Bag.of("ignored"))
        assert result == Bag.of(Bag.of("z"))

    def test_lam_requires_expression_body(self):
        with pytest.raises(BagTypeError):
            Lam("x", "not an expression")  # type: ignore[arg-type]

    def test_map_requires_lam(self):
        with pytest.raises(BagTypeError):
            Map("not a lam", var("B"))  # type: ignore[arg-type]


class TestStructure:
    def test_free_vars(self):
        query = Map(Lam("x", Var("x")), var("B")) + var("C")
        assert query.free_vars() == frozenset({"B", "C"})

    def test_bound_var_not_free(self):
        query = Map(Lam("x", AdditiveUnion(Var("x"), var("D"))), var("B"))
        assert query.free_vars() == frozenset({"B", "D"})

    def test_size_counts_nodes(self):
        assert var("B").size() == 1
        assert (var("B") + var("C")).size() == 3

    def test_walk_covers_lambda_bodies(self):
        query = Map(Lam("x", var("Hidden")), var("B"))
        names = {node.name for node in query.walk()
                 if isinstance(node, Var)}
        assert names == {"Hidden", "B", }

    def test_structural_equality(self):
        assert var("B") + var("C") == var("B") + var("C")
        assert var("B") + var("C") != var("C") + var("B")
        assert hash(var("B") + var("C")) == hash(var("B") + var("C"))

    def test_cached_hash_is_invisible(self):
        """Taking an expression's hash caches it per node; nothing a
        caller can observe — the plan-cache key, equality, the repr,
        a pickle, a copy — may depend on whether that happened."""
        from repro.core.nest import Nest
        from repro.engine.cache import canonical_key
        from repro.machines.ifp import Ifp

        def build():
            pair = Select(Lam("t", Attribute(Var("t"), 1)),
                          Lam("t", Const("a")), var("B") * var("C"))
            return Ifp("X", Var("X") + Nest(Dedup(pair), 1), var("S"))

        cold, warm = build(), build()
        for node in warm.walk():
            hash(node)
        assert hash(cold) == hash(warm) == hash(warm)
        assert cold == warm and repr(cold) == repr(warm)
        assert canonical_key(cold) == canonical_key(warm)
        assert pickle.dumps(build()) == pickle.dumps(warm)
        for clone in (pickle.loads(pickle.dumps(warm)),
                      copy.copy(warm), copy.deepcopy(warm)):
            # the copy carries structure only, and hashes afresh
            assert not hasattr(clone, "_hash")
            assert clone == cold and hash(clone) == hash(cold)
            assert canonical_key(clone) == canonical_key(cold)

    def test_repr_is_stable(self):
        expr = Select(Lam("t", Attribute(Var("t"), 1)),
                      Lam("t", Const("a")), var("B"))
        assert "σ" in repr(expr)
        assert "α1" in repr(expr)


class TestInstrumentation:
    def test_op_counts(self, sample_bag):
        evaluator = Evaluator()
        evaluator.run(var("B") + var("B"), B=sample_bag)
        assert evaluator.stats.op_counts["AdditiveUnion"] == 1
        assert evaluator.stats.op_counts["Var"] == 2

    def test_peak_multiplicity(self):
        bag = Bag.from_counts({Tup("a"): 3})
        evaluator = Evaluator()
        evaluator.run(var("B") * var("B"), B=bag)
        assert evaluator.stats.peak_multiplicity == 9

    def test_peak_encoding_size(self, sample_bag):
        evaluator = Evaluator()
        evaluator.run(var("B"), B=sample_bag)
        assert evaluator.stats.peak_encoding_size == encoding_size(
            sample_bag)

    def test_stats_disabled(self, sample_bag):
        evaluator = Evaluator(track_stats=False)
        evaluator.run(var("B"), B=sample_bag)
        assert evaluator.stats.nodes_evaluated == 0

    def test_merged_stats(self):
        left, right = EvalStats(), EvalStats()
        left.op_counts = {"Var": 2}
        right.op_counts = {"Var": 1, "Map": 3}
        left.peak_multiplicity = 5
        right.peak_multiplicity = 7
        merged = left.merged_with(right)
        assert merged.op_counts == {"Var": 3, "Map": 3}
        assert merged.peak_multiplicity == 7

    def test_powerset_budget_propagates(self):
        evaluator = Evaluator(powerset_budget=4)
        with pytest.raises(ResourceLimitError):
            evaluator.run(Powerset(var("B")),
                          B=Bag.from_counts({"a": 10}))


class TestEvaluatorEnvironment:
    def test_database_mapping_and_kwargs_combine(self, sample_bag):
        result = evaluate(var("A") + var("B"),
                          {"A": sample_bag}, B=sample_bag)
        assert result.cardinality == 6

    def test_kwargs_override_database(self, sample_bag):
        override = Bag.of(Tup("z", "z"))
        result = evaluate(var("B"), {"B": sample_bag}, B=override)
        assert result == override


class TestEvaluationProperties:
    @given(atom_bags(), atom_bags())
    def test_expression_layer_matches_ops(self, left, right):
        from repro.core import ops
        env = {"L": left, "R": right}
        assert evaluate(var("L") + var("R"), env) == ops.additive_union(
            left, right)
        assert evaluate(var("L") - var("R"), env) == ops.subtraction(
            left, right)
        assert evaluate(var("L") | var("R"), env) == ops.max_union(
            left, right)
        assert evaluate(var("L") & var("R"), env) == ops.intersection(
            left, right)

    @given(flat_bags())
    def test_identity_map(self, bag):
        assert evaluate(Map(Lam("x", Var("x")), var("B")), B=bag) == bag

    @given(flat_bags())
    def test_select_true_is_identity(self, bag):
        always = Select(Lam("x", Const("k")), Lam("x", Const("k")),
                        var("B"))
        assert evaluate(always, B=bag) == bag

    @given(flat_bags())
    def test_select_false_is_empty(self, bag):
        never = Select(Lam("x", Const("k")), Lam("x", Const("j")),
                       var("B"))
        assert evaluate(never, B=bag) == EMPTY_BAG
