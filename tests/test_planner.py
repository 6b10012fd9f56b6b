"""Tests for the staged planner: pipeline parity across opt levels,
the shared estimator, pass-manager termination, cache-key isolation,
and the CLI's planner surface (PR 5's tentpole)."""

import pytest

from repro.core.bag import Bag, Tup
from repro.core.errors import BudgetExceeded, GovernedError
from repro.core.eval import Evaluator, evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Cartesian, Const, Dedup,
    Intersection, Lam, Map, MaxUnion, Powerset, Select, Subtraction,
    Tupling, Var, var,
)
from repro.core.nest import Nest, Unnest
from repro.engine import PlanCache
from repro.engine import evaluate as engine_evaluate
from repro.engine.physical import (
    HashJoin, HashUnion, MultiplicityScale, NestedLoopProduct,
    SharedScan, StreamingSelect,
)
from repro.guard import Limits, ResourceGovernor
from repro import planner
from repro.planner import (
    ALL_RULES, CompiledPlan, FixpointRewriter, PassConfig, PlanContext,
    Rule, compile as planner_compile,
)

# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

_R = Bag([Tup("a", 1), Tup("a", 1), Tup("b", 2), Tup("c", 3)])
_S = Bag([Tup("a", 10), Tup("b", 20), Tup("b", 20), Tup("d", 40)])
_FLAT = Bag.of("x", "x", "y", "z")

_JOIN = Select(
    Lam("t", Attribute(Var("t"), 1)),
    Lam("t", Attribute(Var("t"), 3)),
    Cartesian(var("R"), var("S")), op="eq")

_BATTERY = [
    (var("B") + var("B"), {"B": _FLAT}),
    (Dedup(Dedup(var("B"))), {"B": _FLAT}),
    ((var("B") + Const(Bag([]))) - var("B"), {"B": _FLAT}),
    (MaxUnion(var("B"), var("B")), {"B": _FLAT}),
    (Intersection(var("R"), var("R")), {"R": _R}),
    (_JOIN, {"R": _R, "S": _S}),
    (Map(Lam("t", Attribute(Var("t"), 1)), var("R") * var("S")),
     {"R": _R, "S": _S}),
    (BagDestroy(Powerset(var("B"))), {"B": Bag.of("p", "q")}),
    (Nest(var("R"), 2), {"R": _R}),
    (Unnest(Nest(var("R"), 2), 2), {"R": _R}),
]


def _oracle(expr, bindings):
    return Evaluator().run(expr, bindings)


# ----------------------------------------------------------------------
# Pipeline parity: every opt level and engine agrees with the oracle
# ----------------------------------------------------------------------

class TestPipelineParity:
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_physical_engine_matches_oracle_at_every_level(
            self, opt_level):
        for expr, bindings in _BATTERY:
            expected = _oracle(expr, bindings)
            actual = engine_evaluate(expr, bindings, cache=None,
                                     opt_level=opt_level)
            assert actual == expected, (opt_level, expr)

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_tree_engine_matches_oracle_at_every_level(self, opt_level):
        for expr, bindings in _BATTERY:
            expected = _oracle(expr, bindings)
            actual = evaluate(expr, bindings, engine="tree",
                              opt_level=opt_level)
            assert actual == expected, (opt_level, expr)

    def test_tree_engine_defaults_to_opt0(self):
        # the oracle evaluates the query exactly as written: B - B
        # stays a Subtraction node rather than folding away
        compiled = planner_compile(
            var("B") - var("B"),
            PlanContext(engine="tree", config=PassConfig.for_level(0)))
        assert compiled.logical == var("B") - var("B")
        assert compiled.physical is None

    def test_opt2_rewrites_self_subtraction(self):
        compiled = planner_compile(
            var("B") - var("B"),
            PlanContext(engine="tree", config=PassConfig.for_level(2)))
        assert compiled.logical == Const(Bag([]))
        firings = compiled.report.firing_counts()
        assert firings.get("self-subtraction") == 1

    def test_compiled_plan_provenance(self):
        compiled = planner_compile(
            Dedup(Dedup(var("B"))),
            PlanContext(engine="physical",
                        config=PassConfig.for_level(1)))
        assert isinstance(compiled, CompiledPlan)
        assert compiled.source == Dedup(Dedup(var("B")))
        assert compiled.logical == Dedup(var("B"))  # normalize fired
        assert compiled.physical is not None
        assert compiled.engine == "physical"
        stages = [record.stage for record in compiled.report.stages]
        assert stages == ["rewrite", "typecheck", "lower", "codegen"]
        # the codegen stage is what makes the plan executable
        assert compiled.physical.root_segment is not None


# ----------------------------------------------------------------------
# Satellite: the single shared estimator
# ----------------------------------------------------------------------

class TestSharedEstimator:
    def test_engine_imports_the_planner_estimator(self):
        import importlib
        lower_module = importlib.import_module("repro.engine.lower")
        assert lower_module.estimate is planner.estimate

    def test_stage_reports_price_with_the_planner_cost_model(self):
        """A stage record's cost is ``planner.estimated_cost`` of its
        output; the last fixpoint stage prices the compiled logical
        tree, and rewriting never prices it above the source."""
        for expr, _ in _BATTERY:
            compiled = planner_compile(
                expr, PlanContext(engine="tree",
                                  config=PassConfig.for_level(2)))
            priced = [record for record in compiled.report.stages
                      if record.output is not None]
            assert priced, expr
            for record in priced:
                assert record.cost == planner.estimated_cost(
                    record.output), (record.stage, expr)
            assert priced[-1].output == compiled.logical
            assert priced[-1].cost <= planner.estimated_cost(expr), expr

    def test_estimates_agree_operator_by_operator(self):
        """The engine's lowering and the logical EXPLAIN quote the
        planner's numbers for every operator on a fixed fixture set."""
        from repro.engine.lower import lower
        from repro.planner.report import explain
        statistics = {"R": planner.stats_of(_R),
                      "S": planner.stats_of(_S),
                      "B": planner.stats_of(_FLAT)}
        fixtures = [
            var("R") + var("S"),
            var("R") + var("R"),
            var("R") - var("S"),
            MaxUnion(var("R"), var("S")),
            Intersection(var("R"), var("S")),
            var("R") * var("S"),
            Map(Lam("t", Attribute(Var("t"), 1)), var("R")),
            Select(Lam("t", Attribute(Var("t"), 1)),
                   Lam("t", Const("a")), var("R"), op="eq"),
            Dedup(var("B")),
            Powerset(var("B")),
            BagDestroy(Powerset(var("B"))),
            Nest(var("R"), 2),
            Unnest(Nest(var("R"), 2), 2),
        ]
        for expr in fixtures:
            expected = planner.estimate(expr, statistics, selectivity=0.5)
            lowered = lower(expr, statistics, selectivity=0.5,
                            cost_based=False).root.estimated
            assert lowered == expected, expr
            assert lowered.cardinality == expected.cardinality
            assert lowered.distinct == expected.distinct
            first_line = explain(expr, statistics=statistics,
                                 selectivity=0.5).splitlines()[0]
            assert first_line.endswith(
                f"est card {expected.cardinality:g} / "
                f"distinct {expected.distinct:g}"), (expr, first_line)


# ----------------------------------------------------------------------
# Satellite: pass-manager termination
# ----------------------------------------------------------------------

def _commute_union(expr):
    if isinstance(expr, AdditiveUnion):
        return AdditiveUnion(expr.right, expr.left)
    return None


def _swap_to_max(expr):
    if isinstance(expr, AdditiveUnion):
        return MaxUnion(expr.left, expr.right)
    return None


def _swap_to_plus(expr):
    if isinstance(expr, MaxUnion):
        return AdditiveUnion(expr.left, expr.right)
    return None


_OSCILLATORS = (
    Rule("swap-to-max", _swap_to_max, "rewrite", "unsound test rule"),
    Rule("swap-to-plus", _swap_to_plus, "rewrite",
         "unsound test rule"),
)


class TestFixpointTermination:
    def test_oscillating_pair_is_cut_off_cleanly(self):
        expr = var("A") + var("B")
        rewriter = FixpointRewriter(_OSCILLATORS, max_passes=7)
        result = rewriter.rewrite(expr)
        # no exception: the bound fires, the last tree comes back
        assert rewriter.converged is False
        assert rewriter.passes_run == 7
        assert isinstance(result, (AdditiveUnion, MaxUnion))

    def test_single_commuting_rule_is_cut_off(self):
        rule = Rule("commute", _commute_union, "rewrite",
                    "unsound test rule")
        rewriter = FixpointRewriter((rule,), max_passes=4)
        rewriter.rewrite(var("A") + var("B"))
        assert rewriter.converged is False
        assert rewriter.firings["commute"] == 4

    def test_fixpoint_is_governor_ticked(self):
        governor = ResourceGovernor(Limits(max_steps=3))
        governor.ensure_started()
        rewriter = FixpointRewriter(_OSCILLATORS, max_passes=100,
                                    governor=governor)
        with pytest.raises(BudgetExceeded):
            rewriter.rewrite(var("A") + var("B"))

    def test_governed_compilation_through_the_pipeline(self):
        """A level-2 compile whose fixpoint needs more passes than a
        tiny step budget allows degrades into the structured governed
        error, not a hang: a selection over a right-deep union chain
        moves down one union per pass."""
        chain = var("R0")
        for index in range(1, 9):
            chain = AdditiveUnion(var(f"R{index}"), chain)
        query = Select(Lam("t", Attribute(Var("t"), 1)),
                       Lam("t", Const("a")), chain)
        unbudgeted = planner_compile(query, PlanContext(
            engine="tree", config=PassConfig.for_level(2)))
        assert unbudgeted.report.stage("rewrite").converged is True
        governor = ResourceGovernor(Limits(max_steps=3))
        context = PlanContext(engine="tree", governor=governor,
                              config=PassConfig.for_level(2))
        with pytest.raises(GovernedError):
            planner_compile(query, context)

    def test_converging_rules_report_convergence(self):
        compiled = planner_compile(
            Dedup(Dedup(Dedup(var("B")))),
            PlanContext(engine="tree", config=PassConfig.for_level(1)))
        record = compiled.report.stage("rewrite")
        assert record.converged is True
        assert record.firings["collapse-dedup"] == 2

    def test_rebuild_recurses_into_nest_and_unnest(self):
        expr = Unnest(Nest(Dedup(Dedup(var("R"))), 2), 2)
        compiled = planner_compile(
            expr, PlanContext(engine="tree",
                              config=PassConfig.for_level(1)))
        assert compiled.logical == Unnest(Nest(Dedup(var("R")), 2), 2)


# ----------------------------------------------------------------------
# Satellite: cache keys include the pass configuration
# ----------------------------------------------------------------------

class TestCacheKeysIncludePassConfig:
    def test_opt0_and_opt2_never_collide(self):
        cache = PlanCache(capacity=16)
        bindings = {"R": _R, "S": _S}
        plans = {}
        for level in (0, 1, 2):
            ctx = PlanContext.capture(
                bindings, engine="physical", cache=cache,
                config=PassConfig.for_level(level))
            plans[level] = planner_compile(_JOIN, ctx).physical
        assert plans[0] is not plans[1]
        assert plans[0] is not plans[2]
        # the opt-0 plan is naive; the cost-based ones fused the join
        assert isinstance(plans[0].root, StreamingSelect)
        assert isinstance(plans[1].root, HashJoin)
        # re-compilation per level hits the right entry
        for level in (0, 1, 2):
            ctx = PlanContext.capture(
                bindings, engine="physical", cache=cache,
                config=PassConfig.for_level(level))
            again = planner_compile(_JOIN, ctx)
            assert again.cache_hit is True
            assert again.physical is plans[level]

    def test_cache_tags_differ_per_level_and_toggle(self):
        tags = {PassConfig.for_level(level).cache_tag()
                for level in (0, 1, 2)}
        assert len(tags) == 3
        toggled = PassConfig.for_level(2, disabled=("fuse-maps",))
        assert toggled.cache_tag() != PassConfig.for_level(2).cache_tag()
        # toggle normalization is order- and duplicate-insensitive
        assert PassConfig.for_level(
            2, disabled=("a", "b", "b")).cache_tag() == \
            PassConfig.for_level(2, disabled=("b", "a")).cache_tag()

    def test_engine_stats_count_hits_and_misses(self):
        from repro.engine import EngineStats
        cache = PlanCache(capacity=8)
        stats = EngineStats()
        bindings = {"B": _FLAT}
        expr = Dedup(var("B"))
        for _ in range(2):
            ctx = PlanContext.capture(
                bindings, engine="physical", cache=cache,
                engine_stats=stats, config=PassConfig.for_level(1))
            planner_compile(expr, ctx)
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1
        assert stats.lowerings == 1


# ----------------------------------------------------------------------
# Opt-level semantics in the lowered plans
# ----------------------------------------------------------------------

class TestOptLevelPlanShapes:
    def _plan(self, expr, bindings, level):
        ctx = PlanContext.capture(
            bindings, engine="physical",
            config=PassConfig.for_level(level))
        return planner_compile(expr, ctx).physical

    def test_opt0_skips_multiplicity_scale(self):
        expr = var("B") + var("B")
        naive = self._plan(expr, {"B": _FLAT}, 0)
        tuned = self._plan(expr, {"B": _FLAT}, 1)
        assert isinstance(naive.root, HashUnion)
        assert isinstance(tuned.root, MultiplicityScale)

    def test_opt0_skips_join_fusion(self):
        naive = self._plan(_JOIN, {"R": _R, "S": _S}, 0)
        assert isinstance(naive.root, StreamingSelect)
        assert isinstance(naive.root.child, NestedLoopProduct)

    def test_opt0_skips_shared_scans(self):
        shared = Dedup(var("R") * var("S"))
        expr = Subtraction(shared, Dedup(shared))
        naive = self._plan(expr, {"R": _R, "S": _S}, 0)
        tuned = self._plan(expr, {"R": _R, "S": _S}, 1)

        def count(node, kind):
            total = isinstance(node, kind)
            for child in getattr(node, "children", lambda: [])():
                total += count(child, kind)
            return total

        assert count(naive.root, SharedScan) == 0
        assert count(tuned.root, SharedScan) >= 1

    def test_pass_toggle_disables_one_rule_only(self):
        expr = Dedup(Dedup(var("B") - var("B")))
        config = PassConfig.for_level(2, disabled=("self-subtraction",))
        compiled = planner_compile(
            expr, PlanContext(engine="tree", config=config))
        # collapse-dedup still fired; self-subtraction did not
        assert compiled.logical == Dedup(var("B") - var("B"))

    def test_stage_toggle_disables_whole_stage(self):
        expr = Dedup(Dedup(var("B")))
        config = PassConfig.for_level(2, disabled=("normalize",))
        compiled = planner_compile(
            expr, PlanContext(engine="tree", config=config))
        # collapse-dedup lives in the normalize rule group
        assert compiled.logical == expr


# ----------------------------------------------------------------------
# Reports and the CLI surface
# ----------------------------------------------------------------------

class TestReportsAndCli:
    def test_stages_view_lists_each_stage(self):
        compiled = planner_compile(
            Dedup(Dedup(var("B") - var("B"))),
            PlanContext(engine="physical",
                        config=PassConfig.for_level(2)),
            trees=True)
        rendered = compiled.report.render()
        # one fixpoint stage runs both rule groups
        assert "[normalize]" not in rendered
        assert "[rewrite]" in rendered
        assert "[lower]" in rendered
        assert "collapse-dedup x1" in rendered
        assert "cost=" in rendered

    def test_cli_explain_has_stages_section(self):
        import io
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out)
        session.handle("B = {{['a'], ['a'], ['b']}}")
        session.handle(":explain eps(eps(B))")
        text = out.getvalue()
        assert "-- logical --" in text
        assert "-- stages --" in text
        assert "-- physical --" in text
        assert "[rewrite]" in text

    def test_cli_passes_listing_and_toggle(self):
        import io
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out)
        session.handle(":passes")
        listing = out.getvalue()
        assert "opt-level 1" in listing
        assert "collapse-dedup" in listing
        assert "fuse-maps" in listing
        session.handle(":passes level 2")
        session.handle(":passes off fuse-maps")
        assert session.opt_level == 2
        assert session.pass_toggles == {"fuse-maps": False}
        out.truncate(0)
        out.seek(0)
        session.handle(":passes")
        toggled = out.getvalue()
        assert "opt-level 2" in toggled
        session.handle(":passes reset")
        assert session.opt_level is None
        assert session.pass_toggles == {}

    def test_cli_passes_rejects_unknown_pass(self):
        import io
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out)
        session.handle(":passes on warp-speed")
        assert "unknown pass" in out.getvalue()

    def test_cli_opt_level_changes_evaluation_plan(self):
        import io
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out, opt_level=0)
        session.handle("B = {{['a'], ['a'], ['b']}}")
        session.handle(":explain B (+) B")
        text = out.getvalue()
        assert "-- stages --" in text
        assert "opt-level 0" in text

    def test_every_rule_has_a_side_condition(self):
        for rule in ALL_RULES:
            assert rule.side_condition.strip(), rule.name
            assert rule.stage in ("normalize", "rewrite")

    def test_run_sql_accepts_opt_level(self):
        from repro.sql import Catalog, run_sql
        catalog = Catalog({"r": ("c1", "c2")})
        database = {"r": _R}
        rows_default = run_sql("SELECT * FROM r", catalog, database)
        for level in (0, 2):
            assert run_sql("SELECT * FROM r", catalog, database,
                           opt_level=level) == rows_default


# ----------------------------------------------------------------------
# Differential backends
# ----------------------------------------------------------------------

class TestOpt0Backend:
    def test_default_backends_include_engine_opt0(self):
        from repro.testkit.differential import DEFAULT_BACKENDS
        assert "engine-opt0" in DEFAULT_BACKENDS

    def test_opt_backends_agree_on_fuzz_cases(self):
        from repro.testkit.differential import Harness
        from repro.testkit.generate import generate_case
        harness = Harness(backends=("oracle", "engine-opt0",
                                    "engine-opt2"))
        for seed in range(25):
            report = harness.run_case(generate_case(seed))
            assert report.ok, report.mismatches
