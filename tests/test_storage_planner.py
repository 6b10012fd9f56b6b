"""Data-driven planning: the catalog on the compile path.

The persistence half of the subsystem is covered by
``tests/test_storage.py``; this file pins the planner-facing
contracts of ISSUE 7 — zero-scan compiles against cataloged
relations, histogram selectivity, estimator honesty on skewed
workspaces, catalog-driven plan shapes, statistics-tagged plan-cache
keys, and the execution-feedback loop.
"""

import random

import pytest

from repro.core.bag import Bag, Tup
from repro.core.eval import evaluate as oracle_evaluate
from repro.core.expr import (
    Attribute, Cartesian, Const, Dedup, Lam, Map, Select, Tupling, Var,
    substitute, var,
)
from repro.engine import (
    EngineStats, evaluate as engine_evaluate, explain_physical,
    plan_for,
)
from repro.engine.cache import PlanCache
from repro.planner import PassConfig, PlanContext, compile as planner_compile
from repro.planner.stats import (
    clear_stats_memo, estimate, stats_of, stats_scan_count,
)
from repro.storage import RelationSpec, Workspace
from repro.testkit.differential import Harness
from repro.testkit.wsdiff import (
    FUZZ_SPECS, seeded_workspace, workspace_case,
)


def _attr_eq_const(relation, index, value, op="eq"):
    return Select(Lam("t", Attribute(Var("t"), index)),
                  Lam("t", Const(value)), Var(relation), op=op)


@pytest.fixture()
def workspace(tmp_path):
    """A small analyzed workspace: uniform R, zipfian S."""
    ws = Workspace.create(str(tmp_path / "ws"))
    ws.generate((RelationSpec("R", rows=100, arity=2, distinct=20,
                              domain=10),
                 RelationSpec("S", rows=400, arity=2, distinct=40,
                              domain=25, skew="zipfian", zipf_s=1.3)),
                seed=13)
    ws.analyze()
    return ws


# ----------------------------------------------------------------------
# Zero-scan compiles and the memoized fallback
# ----------------------------------------------------------------------

def test_compile_against_catalog_scans_nothing(workspace):
    """The acceptance criterion: compiling against cataloged relations
    must not touch the bound bags at all."""
    database = workspace.database()
    expr = (var("R") + var("S")) & var("S")
    clear_stats_memo()
    before = stats_scan_count()
    ctx = PlanContext.capture(database, catalog=workspace)
    planner_compile(expr, ctx)
    assert stats_scan_count() == before
    assert ctx.stats_sources == {"R": "catalog", "S": "catalog"}


def test_catalogless_compile_scans_once_then_memoizes(workspace):
    database = workspace.database()
    expr = var("R") + var("S")
    clear_stats_memo()
    before = stats_scan_count()
    planner_compile(expr, PlanContext.capture(database))
    assert stats_scan_count() == before + 2
    # the historical bug: every compile re-derived statistics; the
    # identity memo makes repeat compiles free
    for _ in range(3):
        planner_compile(expr, PlanContext.capture(database))
    assert stats_scan_count() == before + 2


def test_stats_memo_is_identity_keyed():
    bag = Bag.from_counts({Tup(1,): 3})
    clear_stats_memo()
    before = stats_scan_count()
    assert stats_of(bag) is stats_of(bag)
    assert stats_scan_count() == before + 1
    clone = Bag.from_counts({Tup(1,): 3})
    stats_of(clone)
    assert stats_scan_count() == before + 2


def test_uncataloged_relation_falls_back_to_scan(workspace):
    database = workspace.database()
    database["X"] = Bag.from_counts({Tup(9, 9): 1})
    ctx = PlanContext.capture(database, catalog=workspace)
    assert ctx.stats_sources == {"R": "catalog", "S": "catalog",
                                 "X": "scanned"}
    assert ctx.statistics["X"].cardinality == 1.0


# ----------------------------------------------------------------------
# Statistics tags and the plan cache
# ----------------------------------------------------------------------

def test_stats_tag_is_catalog_only(workspace):
    database = workspace.database()
    database["X"] = Bag.from_counts({Tup(9, 9): 1})
    ctx = PlanContext.capture(database, catalog=workspace)
    tag = ctx.stats_tag()
    assert tag == ("stats", (("R", "catalog", 1), ("S", "catalog", 1)))
    # scanned-only compiles contribute no statistics fingerprint at
    # all: one warm plan serving two databases is pinned behaviour
    assert PlanContext.capture(database).stats_tag() is None


def test_analyze_retires_cached_plans(workspace):
    database = workspace.database()
    expr = var("R") + var("S")
    cache = PlanCache()
    stats = EngineStats()
    plan_for(expr, database, cache=cache, stats=stats,
             catalog=workspace)
    plan_for(expr, database, cache=cache, stats=stats,
             catalog=workspace)
    assert cache.stats.hits == 1
    # ANALYZE bumps epochs -> the stats tag changes -> a fresh compile
    workspace.analyze()
    plan_for(expr, database, cache=cache, stats=stats,
             catalog=workspace)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 2


def test_explain_stages_report_stats_sources(workspace):
    database = workspace.database()
    ctx = PlanContext.capture(database, catalog=workspace)
    compiled = planner_compile(var("R") + var("S"), ctx)
    record = compiled.report.stage("lower")
    assert record is not None
    assert "stats: R=catalog, S=catalog" in (record.note or "")


# ----------------------------------------------------------------------
# Histogram selectivity
# ----------------------------------------------------------------------

def _head_value(workspace, relation, column):
    entry = workspace.catalog.get(relation)
    return entry.column_stats[column - 1].mcv[0]


def test_selectivity_eq_const_uses_mcv(workspace):
    oracle = workspace.selectivity_oracle()
    value, fraction = _head_value(workspace, "S", 1)
    assert oracle(_attr_eq_const("S", 1, value)) == \
        pytest.approx(fraction)
    assert oracle(_attr_eq_const("S", 1, value, op="ne")) == \
        pytest.approx(1.0 - fraction)


def test_selectivity_attr_eq_attr(workspace):
    entry = workspace.catalog.get("S")
    select = Select(Lam("t", Attribute(Var("t"), 1)),
                    Lam("t", Attribute(Var("t"), 2)), Var("S"),
                    op="eq")
    expected = 1.0 / max(entry.column_stats[0].distinct,
                         entry.column_stats[1].distinct)
    assert workspace.selectivity_oracle()(select) == \
        pytest.approx(expected, rel=1e-6)


def test_selectivity_declines_unknown_shapes(workspace):
    oracle = workspace.selectivity_oracle()
    # operand is not a bare cataloged Var
    nested = Select(Lam("t", Attribute(Var("t"), 1)),
                    Lam("t", Const(1)), Dedup(Var("S")), op="eq")
    assert oracle(nested) is None
    assert oracle(_attr_eq_const("unknown", 1, 1)) is None
    # ordering comparisons are out of the histogram's scope
    assert oracle(_attr_eq_const("S", 1, 1, op="le")) is None


def test_selectivity_never_returns_zero(workspace):
    # off-MCV values estimate from the residual mass, never zero
    oracle = workspace.selectivity_oracle()
    kept = oracle(_attr_eq_const("R", 1, "no-such-value"))
    assert kept is not None and kept > 0.0
    # a column whose MCV list covers every distinct value would
    # estimate 0 for unseen constants; the floor keeps plans sane
    from repro.storage import Catalog
    tiny = Catalog()
    tiny.analyze_bag("T", Bag.from_counts({Tup(1,): 6, Tup(2,): 4}))
    kept = tiny.selectivity_oracle()(_attr_eq_const("T", 1, 99))
    assert kept == pytest.approx(1.0 / 20.0)


# ----------------------------------------------------------------------
# Estimator honesty on zipfian workspaces
# ----------------------------------------------------------------------

def _scaled_workspace(tmp_path, scale):
    ws = Workspace.create(str(tmp_path / f"scale-{scale}"))
    ws.generate((RelationSpec("R", rows=scale, arity=2,
                              distinct=max(4, scale // 5),
                              domain=max(4, scale // 8)),
                 RelationSpec("S", rows=scale, arity=2,
                              distinct=max(4, scale // 10),
                              domain=max(4, scale // 8),
                              skew="zipfian", zipf_s=1.3)),
                seed=scale)
    ws.analyze()
    return ws


def _q_error(estimated, actual):
    if estimated <= 0 or actual <= 0:
        return float("inf")
    return max(estimated / actual, actual / estimated)


@pytest.mark.parametrize("scale", [100, 400, 1600])
def test_exact_rows_have_unit_q_error(tmp_path, scale):
    """Product, MAP, and eps rows of the estimator table are exact, so
    against fresh catalog statistics their q-error is 1 at any scale."""
    ws = _scaled_workspace(tmp_path, scale)
    database = ws.database()
    statistics = {name: ws.catalog.get(name).bag_stats()
                  for name in ("R", "S")}
    fixtures = [
        (Cartesian(var("R"), var("S")),
         database["R"].cardinality * database["S"].cardinality),
        (Map(Lam("t", Tupling(Attribute(Var("t"), 1))), var("S")),
         database["S"].cardinality),
        (Dedup(var("S")), database["S"].distinct_count),
    ]
    for expr, actual in fixtures:
        estimated = estimate(expr, statistics).cardinality
        assert _q_error(estimated, actual) == pytest.approx(1.0), expr


@pytest.mark.parametrize("scale", [100, 400])
def test_upper_bound_rows_dominate_measured(tmp_path, scale):
    """The bound-flavoured rows (unions, intersection, subtraction)
    must dominate the measured cardinality on skewed data."""
    ws = _scaled_workspace(tmp_path, scale)
    database = ws.database()
    statistics = {name: ws.catalog.get(name).bag_stats()
                  for name in ("R", "S")}
    bounded = [var("R") + var("S"), var("R") | var("S"),
               var("R") & var("S"), var("R") - var("S"),
               Dedup(var("R") + var("S"))]
    for expr in bounded:
        estimated = estimate(expr, statistics)
        actual = oracle_evaluate(expr, database)
        assert estimated.cardinality >= actual.cardinality, expr
        assert estimated.distinct >= actual.distinct_count, expr


@pytest.mark.parametrize("scale", [100, 400, 1600])
def test_mcv_selectivity_q_error_bounded(tmp_path, scale):
    """Selections on most-common values estimate from exact fractions,
    so their q-error stays ~1 where the flat default drifts with
    scale and skew."""
    ws = _scaled_workspace(tmp_path, scale)
    database = ws.database()
    statistics = {name: ws.catalog.get(name).bag_stats()
                  for name in ("R", "S")}
    oracle_fn = ws.selectivity_oracle()
    worst_catalog = worst_flat = 1.0
    for column in (1, 2):
        entry = ws.catalog.get("S")
        for value, _ in entry.column_stats[column - 1].mcv[:3]:
            expr = _attr_eq_const("S", column, value)
            actual = oracle_evaluate(expr, database).cardinality
            with_catalog = estimate(
                expr, statistics, selectivity_fn=oracle_fn).cardinality
            flat = estimate(expr, statistics).cardinality
            worst_catalog = max(worst_catalog,
                                _q_error(with_catalog, actual))
            worst_flat = max(worst_flat, _q_error(flat, actual))
    assert worst_catalog == pytest.approx(1.0, rel=1e-6)
    assert worst_flat > worst_catalog


# ----------------------------------------------------------------------
# Catalog-driven plan shapes
# ----------------------------------------------------------------------

def _join_through_filter(workspace):
    """``sigma_{a1 = a3}(R x sigma_{a1 = tail}(S))`` — the filtered
    side's estimate decides the hash-join build side."""
    entry = workspace.catalog.get("S")
    tail = entry.column_stats[0].mcv[-1][0]
    filtered = _attr_eq_const("S", 1, tail)
    product = Cartesian(var("R"), filtered)
    return Select(Lam("t", Attribute(Var("t"), 1)),
                  Lam("t", Attribute(Var("t"), 3)), product, op="eq")


def test_catalog_statistics_flip_join_build_side(workspace):
    """The acceptance plan-shape test: with the flat default the
    filtered S side looks big (0.5 * 400 = 200 > |R| = 100) and the
    join builds on R; the catalog's histogram knows the tail filter
    keeps almost nothing, so the build side flips to the filtered
    side."""
    database = workspace.database()
    expr = _join_through_filter(workspace)
    flat = plan_for(expr, database, cache=None).render()
    informed = plan_for(expr, database, cache=None,
                        catalog=workspace).render()
    assert "HashJoin" in flat and "HashJoin" in informed
    assert "build=left" in flat
    assert "build=right" in informed


def test_flipped_plan_still_agrees_with_oracle(workspace):
    database = workspace.database()
    expr = _join_through_filter(workspace)
    expected = oracle_evaluate(expr, database)
    assert engine_evaluate(expr, database, cache=None,
                           catalog=workspace) == expected
    assert engine_evaluate(expr, database, cache=None) == expected


# ----------------------------------------------------------------------
# Execution feedback
# ----------------------------------------------------------------------

def test_feedback_folds_observed_cardinality_back(workspace):
    # the relation drifts after ANALYZE: double every S multiplicity
    drifted = dict(workspace.database())
    drifted["S"] = Bag.from_counts(
        {value: 2 * count for value, count in drifted["S"].items()})
    before = workspace.catalog.get("S").epoch
    engine_evaluate(var("S") + var("R"), drifted, cache=None,
                    catalog=workspace, feedback=True)
    entry = workspace.catalog.get("S")
    assert entry.cardinality == pytest.approx(800.0)
    assert entry.epoch == before + 1
    # R was observed within the deadband: untouched
    assert workspace.catalog.get("R").epoch == before


def test_feedback_is_opt_in(workspace):
    drifted = dict(workspace.database())
    drifted["S"] = Bag.from_counts(
        {value: 2 * count for value, count in drifted["S"].items()})
    before = workspace.catalog.get("S").epoch
    engine_evaluate(var("S"), drifted, cache=None, catalog=workspace)
    assert workspace.catalog.get("S").epoch == before


def test_explain_physical_prints_estimated_vs_observed(workspace):
    database = workspace.database()
    text = explain_physical(var("R") + var("S"), database,
                            catalog=workspace, feedback=True)
    assert "-- feedback --" in text
    assert "R: estimated 100, observed 100 (scans 1)" in text


# ----------------------------------------------------------------------
# Workspace-backed differential cases
# ----------------------------------------------------------------------

def test_substitute_renames_only_free_vars():
    expr = Select(Lam("t", Attribute(Var("t"), 1)),
                  Lam("t", Const(1)), Var("B"), op="eq")
    renamed = substitute(expr, {"B": Var("R"), "t": Var("nope")})
    assert renamed.operand == Var("R")
    assert renamed.left.param == "t"
    assert renamed.left.body == Attribute(Var("t"), 1)


def test_workspace_case_is_deterministic(tmp_path):
    ws = seeded_workspace(str(tmp_path / "fuzz"), seed=5)
    assert {spec.name for spec in FUZZ_SPECS} <= set(ws.relation_names())
    first = workspace_case(ws, seed=5, index=3)
    second = workspace_case(ws, seed=5, index=3)
    assert first.expr == second.expr
    assert first.database == second.database
    assert workspace_case(ws, 5, 4).expr != first.expr \
        or workspace_case(ws, 5, 5).expr != first.expr


def test_workspace_cases_run_clean_through_harness(tmp_path):
    ws = seeded_workspace(str(tmp_path / "fuzz"), seed=2)
    harness = Harness(backends=("oracle", "engine", "engine-warm",
                                "engine-opt2"),
                      catalog=ws)
    for index in range(12):
        report = harness.run_case(workspace_case(ws, seed=2,
                                                 index=index))
        assert report.ok, report.mismatches


def test_workspace_case_needs_flat_relations(tmp_path):
    ws = Workspace.create(str(tmp_path / "empty"))
    ws.save_relation("A", Bag.from_counts({"atom": 1}))
    with pytest.raises(ValueError):
        workspace_case(ws, seed=0)


def test_fuzz_cli_workspace_mode(tmp_path, capsys):
    from repro.testkit.cli import main as fuzz_main
    root = str(tmp_path / "fuzzws")
    corpus = str(tmp_path / "corpus")
    code = fuzz_main(["--cases", "6", "--seed", "1", "--workspace",
                      root, "--corpus", corpus, "--quiet",
                      "--backends", "oracle,engine"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "fuzz: OK" in out
    # the synthesized workspace persists for replay
    assert Workspace.open(root).relation_names()
