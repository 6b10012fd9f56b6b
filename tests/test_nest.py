"""Tests for the nest/unnest extension operators (repro.core.nest) —
the conclusion's powerset-free paradigm."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.errors import BagTypeError
from repro.core.eval import evaluate
from repro.core.expr import var
from repro.core.nest import Nest, Unnest, nest_bag, unnest_bag
from repro.core.ops import project
from repro.core.typecheck import infer_type
from repro.core.types import BagType, TupleType, U, flat_bag_type
from tests.conftest import flat_bags


class TestNestOperational:
    def test_basic_grouping(self):
        bag = Bag([Tup("ann", "book"), Tup("ann", "pen"),
                   Tup("bob", "pen")])
        nested = nest_bag(bag, (2,))
        assert nested.multiplicity(
            Tup("ann", Bag.of(Tup("book"), Tup("pen")))) == 1
        assert nested.multiplicity(Tup("bob", Bag.of(Tup("pen")))) == 1
        assert nested.cardinality == 2

    def test_group_keeps_inner_multiplicities(self):
        bag = Bag.from_counts({Tup("ann", "book"): 3})
        nested = nest_bag(bag, (2,))
        assert nested.multiplicity(
            Tup("ann", Bag.from_counts({Tup("book"): 3}))) == 1

    def test_groups_occur_once(self):
        # nest is set-like at the outer level even when the key tuples
        # had duplicates across different group members
        bag = Bag.from_counts({Tup("k", "x"): 2, Tup("k", "y"): 1})
        nested = nest_bag(bag, (2,))
        assert nested.is_set()

    def test_nest_all_attributes(self):
        bag = Bag.of(Tup("a"), Tup("b"))
        nested = nest_bag(bag, (1,))
        assert nested == Bag.of(Tup(Bag.of(Tup("a"), Tup("b"))))

    def test_nest_errors(self):
        with pytest.raises(BagTypeError):
            nest_bag(Bag.of("atom"), (1,))
        with pytest.raises(BagTypeError):
            nest_bag(Bag.of(Tup("a")), (2,))
        with pytest.raises(BagTypeError):
            nest_bag(Bag.of(Tup("a")), ())

    def test_nest_empty_bag(self):
        assert nest_bag(EMPTY_BAG, (1,)) == EMPTY_BAG


class TestUnnestOperational:
    def test_basic_flattening(self):
        nested = Bag.of(Tup("ann", Bag.of(Tup("book"), Tup("pen"))))
        flat = unnest_bag(nested, 2)
        assert flat == Bag.of(Tup("ann", "book"), Tup("ann", "pen"))

    def test_multiplicities_multiply(self):
        nested = Bag.from_counts(
            {Tup("k", Bag.from_counts({Tup("x"): 3})): 2})
        flat = unnest_bag(nested, 2)
        assert flat == Bag.from_counts({Tup("k", "x"): 6})

    def test_atom_valued_inner_bags(self):
        nested = Bag.of(Tup("k", Bag.of("x", "y")))
        flat = unnest_bag(nested, 2)
        assert flat == Bag.of(Tup("k", "x"), Tup("k", "y"))

    def test_empty_group_disappears(self):
        nested = Bag.of(Tup("k", EMPTY_BAG))
        assert unnest_bag(nested, 2) == EMPTY_BAG

    def test_unnest_errors(self):
        with pytest.raises(BagTypeError):
            unnest_bag(Bag.of(Tup("a", "b")), 1)  # not bag-valued
        with pytest.raises(BagTypeError):
            unnest_bag(Bag.of(Tup("a")), 5)


class TestRoundTrip:
    @given(flat_bags(arity=3, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_unnest_inverts_nest(self, bag):
        """unnest(nest_J(B)) = B up to the attribute reordering
        [rest..., J...]."""
        nested = nest_bag(bag, (2,)) if not bag.is_empty() else bag
        if bag.is_empty():
            return
        restored = unnest_bag(nested, 3)  # group sits last
        reordered = project(bag, 1, 3, 2)
        assert restored == reordered

    @given(flat_bags(arity=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_preserved(self, bag):
        if bag.is_empty():
            return
        nested = nest_bag(bag, (1,))
        assert unnest_bag(nested, 2).cardinality == bag.cardinality


class TestExpressionNodes:
    def test_nest_node(self):
        bag = Bag([Tup("ann", "book"), Tup("ann", "pen")])
        result = evaluate(Nest(var("B"), 2), B=bag)
        assert result.cardinality == 1

    def test_unnest_node(self):
        nested = Bag.of(Tup("k", Bag.of(Tup("x"))))
        assert evaluate(Unnest(var("B"), 2),
                        B=nested) == Bag.of(Tup("k", "x"))

    def test_nest_type(self):
        inferred = infer_type(Nest(var("B"), 2), B=flat_bag_type(2))
        assert inferred == BagType(TupleType(
            (U, BagType(TupleType((U,))))))

    def test_unnest_type(self):
        nested_type = BagType(TupleType(
            (U, BagType(TupleType((U, U))))))
        inferred = infer_type(Unnest(var("B"), 2), B=nested_type)
        assert inferred == flat_bag_type(3)

    def test_nest_increases_nesting_by_one_only(self):
        """The conservativity point: nest reaches nesting input+1 —
        far below the powerset's reach."""
        from repro.core.fragments import max_bag_nesting
        assert max_bag_nesting(Nest(var("B"), 2),
                               B=flat_bag_type(2)) == 2

    def test_invalid_constructions(self):
        with pytest.raises(BagTypeError):
            Nest(var("B"))
        with pytest.raises(BagTypeError):
            Nest(var("B"), 1, 1)
        with pytest.raises(BagTypeError):
            Unnest(var("B"), 0)

    def test_type_errors(self):
        with pytest.raises(BagTypeError):
            infer_type(Nest(var("B"), 3), B=flat_bag_type(2))
        with pytest.raises(BagTypeError):
            infer_type(Unnest(var("B"), 1), B=flat_bag_type(2))

    def test_optimizer_passes_through(self):
        from repro.planner import PassConfig, PlanContext, compile
        expr = Nest(var("B"), 2)
        compiled = compile(expr, PlanContext(
            engine="tree", config=PassConfig.for_level(2)))
        assert compiled.logical == expr


class TestNestVsPowersetGrouping:
    def test_group_membership_matches_powerset_filter(self):
        """The same grouping computed via nest and via a powerset
        detour agree — but nest's intermediate is linear while the
        powerset's is exponential (measured in bench E17)."""
        bag = Bag([Tup("k1", "a"), Tup("k1", "b"), Tup("k2", "a")])
        nested = nest_bag(bag, (2,))
        for entry in nested.distinct():
            key, group = entry.attribute(1), entry.attribute(2)
            members = {t.attribute(1) for t in group.distinct()}
            expected = {t.attribute(2) for t in bag.distinct()
                        if t.attribute(1) == key}
            assert members == expected
