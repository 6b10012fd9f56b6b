"""Tests for the workload generators and the cardinality estimator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bag import Bag, Tup
from repro.core.derived import bag_as_int, sum_expr
from repro.core.errors import BagTypeError
from repro.core.eval import evaluate
from repro.core.expr import (
    Cartesian, Const, Dedup, Map, Lam, Powerbag, Powerset, Select,
    Tupling, Var, var,
)
from repro.planner import (
    BagStats, DEFAULT_SELECTIVITY, estimate, stats_of,
)
from repro.workloads import (
    integer_bags, order_book, random_multigraph, random_relation,
    single_constant_family, star_graph_database, uniform_family,
)


class TestWorkloads:
    def test_single_constant_family(self):
        bag = single_constant_family(5)
        assert bag.cardinality == 5
        assert bag.distinct_count == 1
        assert single_constant_family(0).is_empty()
        with pytest.raises(BagTypeError):
            single_constant_family(-1)

    def test_uniform_family(self):
        bag = uniform_family(3, 4)
        assert bag.distinct_count == 3
        assert bag.cardinality == 12

    def test_random_relation_is_set(self):
        relation = random_relation(6, arity=2, seed=1)
        assert relation.is_set()
        assert all(t.arity == 2 for t in relation.distinct())

    def test_random_relation_reproducible(self):
        assert random_relation(8, seed=5) == random_relation(8, seed=5)
        assert random_relation(8, seed=5) != random_relation(8, seed=6)

    def test_random_multigraph_has_duplicates_eventually(self):
        graph = random_multigraph(2, 40, seed=3)
        assert graph.cardinality == 40
        assert graph.distinct_count < 40  # pigeonhole on 4 edges

    def test_order_book(self):
        orders = order_book(30, seed=2)
        assert orders.cardinality == 30
        assert all(t.arity == 2 for t in orders.distinct())

    def test_integer_bags_sum(self):
        encoded = integer_bags([2, 2, 3])
        total = evaluate(sum_expr(var("V")), V=encoded)
        assert bag_as_int(total) == 7

    def test_star_graph_database(self):
        database = star_graph_database(4)
        assert set(database) == {"G", "Gp", "alpha"}
        assert database["G"].cardinality == database[
            "Gp"].cardinality


class TestBagStats:
    def test_distinct_clamped(self):
        stats = BagStats(cardinality=3, distinct=10)
        assert stats.distinct == 3

    def test_negative_rejected(self):
        with pytest.raises(BagTypeError):
            BagStats(-1, 0)

    def test_average_multiplicity(self):
        assert BagStats(10, 5).average_multiplicity == 2
        assert BagStats(0, 0).average_multiplicity == 0

    def test_stats_of(self):
        bag = Bag.from_counts({Tup("a"): 3, Tup("b"): 1})
        stats = stats_of(bag)
        assert stats.cardinality == 4
        assert stats.distinct == 2


class TestEstimatorExactRules:
    """Rows the docstring marks 'exactly' must be exact."""

    def _stats(self, **bags):
        return {name: stats_of(bag) for name, bag in bags.items()}

    def test_product_exact(self):
        left = Bag.from_counts({Tup("a"): 2, Tup("b"): 1})
        right = Bag.from_counts({Tup("x"): 3})
        estimated = estimate(var("L") * var("R"),
                             self._stats(L=left, R=right))
        actual = evaluate(var("L") * var("R"), L=left, R=right)
        assert estimated.cardinality == actual.cardinality
        assert estimated.distinct == actual.distinct_count

    def test_map_preserves_cardinality(self):
        bag = Bag.from_counts({Tup("a", "b"): 4, Tup("b", "a"): 2})
        expr = Map(Lam("t", Tupling(Const("k"))), var("B"))
        estimated = estimate(expr, self._stats(B=bag))
        actual = evaluate(expr, B=bag)
        assert estimated.cardinality == actual.cardinality

    def test_dedup_exact(self):
        bag = Bag.from_counts({Tup("a"): 5, Tup("b"): 2})
        estimated = estimate(Dedup(var("B")), self._stats(B=bag))
        assert estimated.cardinality == 2
        assert estimated.distinct == 2

    def test_powerbag_total(self):
        bag = Bag.from_counts({Tup("a"): 3})
        estimated = estimate(Powerbag(var("B")), self._stats(B=bag))
        assert estimated.cardinality == 2 ** 3

    def test_additive_union_exact_cardinality(self):
        left = Bag.from_counts({Tup("a"): 2})
        right = Bag.from_counts({Tup("a"): 5})
        estimated = estimate(var("L") + var("R"),
                             self._stats(L=left, R=right))
        assert estimated.cardinality == 7


class TestEstimatorBounds:
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_bounds_dominate_measurements(self, n_left, n_right, seed):
        """On random workloads every estimated cardinality bounds the
        measured one for the bound-flavoured operators (selectivity
        pushed to 1 so selections are worst-case too)."""
        left = random_multigraph(3, n_left, seed=seed)
        right = random_multigraph(3, n_right, seed=seed + 1)
        statistics = {"L": stats_of(left), "R": stats_of(right)}
        battery = [
            var("L") + var("R"),
            var("L") - var("R"),
            var("L") | var("R"),
            var("L") & var("R"),
            var("L") * var("R"),
            Dedup(var("L")),
            Select(Lam("t", Const("x")), Lam("t", Const("x")),
                   var("L")),  # keeps everything: worst case
        ]
        for expr in battery:
            estimated = estimate(expr, statistics, selectivity=1.0)
            actual = evaluate(expr, L=left, R=right)
            assert actual.cardinality <= estimated.cardinality + 1e-9, \
                expr
            assert actual.distinct_count <= estimated.distinct + 1e-9, \
                expr

    def test_powerset_bound_dominates(self):
        bag = uniform_family(2, 3)
        wrapped = Bag([Tup(element) for element in bag.elements()])
        estimated = estimate(Powerset(var("B")),
                             {"B": stats_of(wrapped)})
        actual = evaluate(Powerset(var("B")), B=wrapped)
        assert actual.cardinality <= estimated.cardinality

    def test_selectivity_validation(self):
        with pytest.raises(BagTypeError):
            estimate(var("B"), {"B": BagStats(1, 1)}, selectivity=0)

    def test_unknown_relation(self):
        with pytest.raises(BagTypeError):
            estimate(var("ghost"), {})

    def test_extension_operator_rejected(self):
        from repro.machines import Ifp
        with pytest.raises(BagTypeError):
            estimate(Ifp("X", Var("X"), var("B")),
                     {"B": BagStats(1, 1)})
