"""E16 — ablation: the Section 3 rewrite rules, measured.

Selection pushdown through a product shrinks the peak intermediate
standard-encoding size from O(|A| * |B|) to O(match * |B|); MAP fusion
removes a whole pass.  The benchmark measures both with and without
the planner's rewrite stage on growing inputs — the ablation DESIGN.md
calls out.
"""

from __future__ import annotations

from benchmarks.conftest import emit_table
from repro.core.bag import Bag, Tup
from repro.core.derived import select_attr_eq_const
from repro.core.eval import Evaluator
from repro.core.expr import Attribute, Lam, Map, Tupling, Var, var
from repro.core.types import flat_bag_type
from repro import planner
from repro.planner import PassConfig, PlanContext, estimated_cost


def _rewrite(query, schema=None):
    """The planner's level-2 logical rewrite: one fixpoint of the whole
    rule set, so MAP fusion's leftover ``alpha_i(tau(...))`` is
    cancelled in it."""
    return planner.compile(
        query, PlanContext(engine="tree", schema=schema,
                           config=PassConfig.for_level(2)))


def _tables(n: int):
    a = Bag([Tup(str(i), "hit" if i == 0 else "miss")
             for i in range(n)])
    b = Bag([Tup(str(i)) for i in range(n)])
    return {"A": a, "B": b}


def test_e16_selection_pushdown(benchmark):
    schema = {"A": flat_bag_type(2), "B": flat_bag_type(1)}
    query = select_attr_eq_const(var("A") * var("B"), 2, "hit")
    optimized = _rewrite(query, schema).logical

    rows = []
    for n in (8, 16, 32, 64):
        database = _tables(n)
        naive, clever = Evaluator(), Evaluator()
        naive_result = naive.run(query, database)
        clever_result = clever.run(optimized, database)
        assert naive_result == clever_result
        rows.append((n, naive.stats.peak_encoding_size,
                     clever.stats.peak_encoding_size,
                     f"{naive.stats.peak_encoding_size / clever.stats.peak_encoding_size:.1f}x"))
    emit_table(
        "e16_pushdown",
        "E16a  selection pushdown through x: peak intermediate "
        "encoding size, naive vs optimized",
        ["n per table", "naive peak", "optimized peak", "saving"],
        rows)

    database = _tables(32)
    benchmark(lambda: Evaluator().run(optimized, database))


def test_e16_map_fusion(benchmark):
    inner = Lam("t", Tupling(Attribute(Var("t"), 2),
                             Attribute(Var("t"), 1)))
    outer = Lam("s", Tupling(Attribute(Var("s"), 1)))
    query = Map(outer, Map(inner, var("A")))
    fused = _rewrite(query).logical

    rows = []
    for n in (16, 64, 256):
        database = _tables(n)
        naive, clever = Evaluator(), Evaluator()
        assert naive.run(query, database) == clever.run(fused, database)
        rows.append((n, naive.stats.nodes_evaluated,
                     clever.stats.nodes_evaluated))
    emit_table(
        "e16_fusion",
        "E16b  MAP fusion: evaluator node executions, two passes vs "
        "one",
        ["n", "unfused node evals", "fused node evals"], rows)
    assert estimated_cost(fused) < estimated_cost(query)

    database = _tables(128)
    benchmark(lambda: Evaluator().run(fused, database))


def test_e16_rule_hit_counts(benchmark):
    """How often each algebraic cleanup fires on a noisy query."""
    from repro.core.expr import Const, Dedup
    from repro.core.bag import EMPTY_BAG
    noisy = Dedup(Dedup((var("A") + Const(EMPTY_BAG)) - (
        var("A") - var("A"))))
    compiled = _rewrite(noisy)
    cleaned = compiled.logical
    rows = [("input nodes", noisy.size()),
            ("output nodes", cleaned.size()),
            ("rewrites applied", compiled.report.total_firings)]
    emit_table(
        "e16_rules",
        "E16c  algebraic cleanups on a redundant query",
        ["measure", "value"], rows)
    assert cleaned.size() < noisy.size()

    benchmark(lambda: _rewrite(noisy))


def test_e16_cardinality_estimates(benchmark):
    """The estimator's predictions vs measured outputs on the pushdown
    workload — the numbers a cost-based planner would plan with."""
    from repro.core.eval import evaluate
    from repro.planner import estimate, stats_of

    rows = []
    for n in (8, 16, 32):
        database = _tables(n)
        statistics = {name: stats_of(bag)
                      for name, bag in database.items()}
        query = select_attr_eq_const(var("A") * var("B"), 2, "hit")
        predicted = estimate(query, statistics, selectivity=1 / n)
        actual = evaluate(query, database)
        rows.append((n, f"{predicted.cardinality:.0f}",
                     actual.cardinality,
                     f"{predicted.cardinality / max(actual.cardinality, 1):.1f}x"))
    emit_table(
        "e16_cardinality",
        "E16d  cardinality estimates (selectivity 1/n) vs measured "
        "output sizes",
        ["n per table", "estimated", "measured", "ratio"], rows)

    database = _tables(16)
    statistics = {name: stats_of(bag) for name, bag in database.items()}
    query = select_attr_eq_const(var("A") * var("B"), 2, "hit")
    benchmark(lambda: estimate(query, statistics))
