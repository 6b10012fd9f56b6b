"""The staged compilation pipeline — the one front door.

``compile()`` runs ``rewrite -> typecheck -> lower -> parallelize ->
codegen`` over a logical expression, driven by the
:class:`~repro.planner.context.PassConfig` and recording a
:class:`~repro.planner.report.PlanReport` along the way.  Every
execution entry point in the repo (``core.eval.evaluate``,
``repro.engine.evaluate``, ``run_sql``, the REPL, the CLI, the testkit
backends) routes through here.

The ``rewrite`` stage is one bounded fixpoint over the config's
active rules, the ``normalize`` group first: level 1 runs only that
group, and a level-2 plan is a fixpoint of the whole rule set (the
rewrite rules leave ``alpha_i(tau(...))`` redexes that only
``cancel-attribute`` removes).

The plan cache is consulted *before* any stage runs: a hit skips
rewriting and lowering in one step.  Cache keys
combine the canonical expression key, the type of every bound bag,
and :meth:`PassConfig.cache_tag` — so an opt-0 plan can never be
served to an opt-2 caller (or vice versa), parallel plans never
shadow serial ones, and a plan proven for one binding type is never
served to another.

On a miss, the ``typecheck`` stage types the tree ``lower`` consumes
in the bindings' types (:func:`repro.core.typecheck.static_types`),
by node identity.  A proven plan runs no union-family type check and
seals a rigid root without re-validating its rows; a tree the checker
rejects is lowered with every run-time check (``docs/planner.md``).
A caller-supplied ``schema`` is checked against the source expression
first, as a stage of the same name.

The engine modules are imported lazily inside the lowering stage:
``repro.engine.lower`` itself consumes :mod:`repro.planner.stats`, and
keeping the dependency one-directional at import time avoids a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.core.expr import Expr
from repro.core.typecheck import TypeChecker, static_types
from repro.core.types import element_arity
from repro.planner.context import PassConfig, PlanContext
from repro.planner.manager import FixpointRewriter
from repro.planner.report import PlanReport, StageRecord, _StageTimer
from repro.planner.rewrites import product_pushdown_rule

__all__ = ["CompiledPlan", "compile"]


@dataclass
class CompiledPlan:
    """The pipeline's product: logical tree, physical plan, provenance.

    ``physical`` is ``None`` for ``engine="tree"`` — the oracle walks
    the (possibly rewritten) logical tree directly.  ``cache_hit``
    marks plans served whole from the plan cache (no stage ran).
    """

    source: Expr
    logical: Expr
    physical: Optional[Any]          # engine.lower.PhysicalPlan
    engine: str
    config: PassConfig
    report: PlanReport
    cache_hit: bool = False


def _combined_tag(config: PassConfig, policy,
                  stats_tag: Any = None) -> Any:
    """Cache tag: pass configuration, parallel policy, and the
    statistics fingerprint — stale-stats plans can't collide with
    fresh ones because an ANALYZE bumps the catalog epoch inside
    ``stats_tag``.  The engine name is not a component: every
    non-tree engine executes the same plan."""
    parallel = None
    if policy is not None:
        parallel = ("parallel", policy.threshold)
    return (config.cache_tag(), parallel, stats_tag)


def _left_arity_fn(schema: Mapping[str, Any]
                   ) -> Callable[[Expr], Optional[int]]:
    """Operand-arity oracle for the product-pushdown rule, via type
    inference against the schema."""

    def left_arity(operand: Expr) -> Optional[int]:
        try:
            return element_arity(TypeChecker().check(operand, schema))
        except Exception:
            return None

    return left_arity


def compile(expr: Expr, context: Optional[PlanContext] = None, *,
            trees: bool = False) -> CompiledPlan:
    """Run the staged pipeline over one expression.

    Parameters
    ----------
    context:
        The :class:`PlanContext`; a default (physical engine, opt
        level 1, no cache, no statistics) is built when omitted.
    trees:
        Collect the rendered tree after each stage into the report
        (the ``:explain stages`` view wants them; the hot path does
        not pay for rendering).
    """
    ctx = context if context is not None else PlanContext()
    config = ctx.config
    governor = ctx.governor
    if governor is not None:
        governor.ensure_started()
    report = PlanReport(config.describe())

    # -- plan cache: a hit skips every stage ---------------------------
    key = None
    if ctx.engine != "tree" and ctx.cache is not None:
        from repro.engine.cache import PlanCache
        key = PlanCache.key_for(expr, ctx.types,
                                _combined_tag(config, ctx.parallel,
                                              ctx.stats_tag()))
        plan = ctx.cache.get(key)
        if plan is not None:
            if ctx.engine_stats is not None:
                ctx.engine_stats.cache_hits += 1
            report.add(StageRecord(
                "lower", tree=plan.render() if trees else "",
                note="plan cache hit"))
            return CompiledPlan(source=expr, logical=plan.expr,
                                physical=plan, engine=ctx.engine,
                                config=config, report=report,
                                cache_hit=True)

    # -- typecheck against the caller's schema ------------------------
    if ctx.schema is not None:
        record = StageRecord("typecheck", tree="")
        with _StageTimer(record):
            inferred = TypeChecker().check(expr, ctx.schema)
            record.tree = str(inferred) if trees else ""
        report.add(record)

    # -- rewrite: one fixpoint over every active rule ------------------
    rules = config.active_rules
    if ctx.schema is not None:
        pushdown = product_pushdown_rule(_left_arity_fn(ctx.schema))
        if config.rule_active(pushdown):
            rules += (pushdown,)
    logical = _rewrite_stage(rules, expr, config, governor, report,
                             trees)

    if ctx.engine == "tree":  # the walker runs the logical tree
        report.add(StageRecord("lower", tree="",
                               note="skipped (engine=tree)"))
        return CompiledPlan(source=expr, logical=logical, physical=None,
                            engine="tree", config=config, report=report)

    # -- typecheck: the tree lower consumes, in the bindings' types ----
    record = StageRecord("typecheck", tree="")
    with _StageTimer(record):
        types = static_types(logical, ctx.types)
        root = types.get(id(logical))
        if root is None:
            record.note = "not proven: every run-time check kept"
        elif trees:
            record.tree = repr(root)
    report.add(record)

    # -- lower (+ parallelize) ----------------------------------------
    record = StageRecord("lower", tree="")
    with _StageTimer(record):
        from repro.core.semiring import resolve_semiring
        from repro.engine.lower import lower
        semiring = resolve_semiring(config.semiring)
        plan = lower(logical, ctx.statistics,
                     selectivity=config.selectivity,
                     types=types, parallel=ctx.parallel,
                     cost_based=config.cost_based_lowering,
                     selectivity_fn=ctx.selectivity_fn,
                     segment_tag=config.cache_tag(),
                     semiring=semiring)
        notes = []
        if semiring is not None:
            notes.append(f"semiring {semiring.name}")
        if not config.cost_based_lowering:
            notes.append("naive (cost-based lowering disabled)")
        sources = ctx.describe_stats_sources()
        if sources is not None:
            notes.append(sources)
        if notes:
            record.note = "; ".join(notes)
        if trees:
            from repro.engine.physical import render_plan
            record.tree = render_plan(plan.root)
    report.add(record)
    if ctx.parallel is not None:
        from repro.engine.parallel.exchange import Gather
        inserted = isinstance(plan.root, Gather)
        report.add(StageRecord(
            "parallelize", tree="",
            note=(f"threshold={ctx.parallel.threshold}; "
                  + ("exchanges inserted" if inserted
                     else "below threshold, serial plan kept"))))

    # -- codegen: the plan's step programs, its one executable form --
    record = StageRecord("codegen", tree="")
    with _StageTimer(record):
        from repro.engine.codegen import compile_codegen
        compile_codegen(plan, semiring=semiring)
        record.note = f"{len(plan.segments)} fused segment(s)"
        if trees:
            record.tree = plan.render()
    report.add(record)

    if key is not None:
        ctx.cache.put(key, plan)
        if ctx.engine_stats is not None:
            ctx.engine_stats.cache_misses += 1
    if ctx.engine_stats is not None:
        ctx.engine_stats.lowerings += 1
    return CompiledPlan(source=expr, logical=logical, physical=plan,
                        engine=ctx.engine, config=config, report=report)


def _rewrite_stage(rules, expr: Expr, config: PassConfig, governor,
                   report: PlanReport, trees: bool) -> Expr:
    """Run the rule fixpoint and record what it did."""
    record = StageRecord("rewrite", tree="")
    with _StageTimer(record):
        if not rules:
            record.note = ("skipped (no active rules at "
                           f"opt-level {config.opt_level})")
            result = expr
        else:
            rewriter = FixpointRewriter(
                rules, max_passes=config.max_rewrite_passes,
                governor=governor, firings=record.firings)
            result = rewriter.rewrite(expr)
            record.converged = rewriter.converged
            record.output = result
        if trees:
            record.tree = repr(result)
            record.output = result
    report.add(record)
    return result
