"""``repro.engine`` — the physical execution engine.

The tree walker in :mod:`repro.core.eval` is the semantics oracle:
small, obviously faithful to the paper, and instrumented.  This package
is the *production* path: expressions are compiled by the staged
planner (:func:`repro.planner.compile` — normalize, rewrite, cost-based
lowering, optional parallelize, codegen) into physical plans
(:mod:`repro.engine.physical`) executed as fused step programs over
bulk count kernels (:mod:`repro.engine.codegen`,
:mod:`repro.engine.columnar`, :mod:`repro.engine.kernels`), with a
bounded LRU plan cache plus per-run common-subexpression sharing
(:mod:`repro.engine.cache`).  Plan-cache keys include the planner's
pass configuration, so plans compiled at different opt levels (or with
different pass toggles) never collide.

The paper's tractability results license the design: BALG¹ sits inside
LOGSPACE (Thm 4.4) and BALG avoids the powerbag's ``2^n`` blow-up
(Prop 3.2 vs Thm 5.5), so the hash-kernel evaluation here is
polynomial on exactly the fragments the paper calls tractable, and the
powerset kernels keep the same pre-materialisation budget checks the
oracle has.  Bench E20 measures the speedup; the differential fuzz
suite asserts bag-equality against the oracle.

Usage::

    from repro.engine import evaluate
    result = evaluate(expr, database)            # physical engine
    result = evaluate(expr, database, engine="tree")   # the oracle
    result = evaluate(expr, database, opt_level=0)     # naive plans

or through the stable front door, ``repro.core.eval.evaluate(...,
engine="physical")``.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core.bag import Bag
from repro.core.errors import (
    GovernedError, RecursionDepthExceeded, ResourceLimitError,
    UnboundVariableError,
)
from repro.core.eval import Evaluator, bindings_of
from repro.core.expr import Expr
from repro.engine.cache import CacheStats, PlanCache, canonical_key
from repro.engine.codegen import compile_codegen
from repro.engine.kernels import collect
from repro.engine.lower import Lowering, PhysicalPlan, lower
from repro.engine.physical import (
    EngineStats, ExecContext, PhysicalNode, render_plan,
)
from repro.engine.resilience import (
    ResilienceConfig, is_transient_fault, resolve_resilience,
)
from repro.guard.governor import Limits, ResourceGovernor
from repro.planner import PassConfig, PlanContext, resolve_engine
from repro.planner import compile as planner_compile

__all__ = [
    "EngineStats", "ExecContext", "PhysicalNode", "PhysicalPlan",
    "PlanCache", "CacheStats", "Lowering", "lower", "compile_codegen",
    "canonical_key", "collect", "render_plan", "ResilienceConfig",
    "evaluate", "plan_for", "explain_physical", "default_cache",
]

#: Process-wide default plan cache (the CLI and SQL layers share it).
_DEFAULT_CACHE = PlanCache(capacity=256)


def default_cache() -> PlanCache:
    """The process-wide plan cache shared by the front ends."""
    return _DEFAULT_CACHE


def _config_for(opt_level: Optional[int],
                config: Optional[PassConfig],
                selectivity: float = 0.5,
                default_level: int = 1,
                semiring=None) -> PassConfig:
    """Resolve the pass configuration for a physical-path call: an
    explicit config wins, then an explicit level, then the engine's
    ``default_level`` (from :data:`repro.planner.ENGINES`).
    ``semiring`` (an instance, a name, or None for N) is stamped into
    the config so plan-cache keys and the lowering pass see the active
    multiplicity domain."""
    from dataclasses import replace as _replace

    from repro.core.semiring import resolve_semiring, semiring_name
    name = semiring_name(resolve_semiring(semiring))
    if config is not None:
        if semiring is not None and config.semiring != name:
            config = _replace(config, semiring=name)
        return config
    level = default_level if opt_level is None else opt_level
    return PassConfig.for_level(level, selectivity=selectivity,
                                semiring=name)


def _absorb_feedback(catalog, stats: EngineStats) -> None:
    """Fold a run's observed cardinalities into the catalog (workspace
    objects persist; bare catalogs update in memory)."""
    observed = stats.observed_mean_cardinalities()
    if not observed:
        return
    absorb = getattr(catalog, "absorb_feedback", None)
    if absorb is None:
        absorb = getattr(catalog, "absorb", None)
    if absorb is not None:
        absorb(observed)


def _prepare(expr: Expr, database, named_bags, *, engine: str,
             semiring, config: Optional[PassConfig],
             opt_level: Optional[int], workers: Optional[int],
             parallel_backend: str,
             parallel_threshold: Optional[float],
             min_morsel_rows: Optional[int], resilience):
    """What :func:`evaluate` and :func:`explain_physical` both do
    before they plan: validate the engine, resolve the semiring (the
    argument, else the config's), build the parallel policy and
    run-time config, adapt the bindings and settle the pass config
    (the engine's default level unless one is given).

    Returns ``(semiring, bindings, missing, policy, parallel_config,
    pass_config)``; ``missing`` is the free variables left unbound.
    """
    canonical, default_level = resolve_engine(engine)
    if canonical == "tree":
        raise ValueError("engine 'tree' is the oracle walker: it "
                         "has no physical plan")
    policy = parallel_config = None
    resilience_config = resolve_resilience(resilience)
    if canonical == "parallel":
        from repro.engine.parallel import ParallelConfig, ParallelPolicy
        policy = (ParallelPolicy() if parallel_threshold is None
                  else ParallelPolicy(threshold=parallel_threshold))
        extra = ({} if min_morsel_rows is None
                 else {"min_morsel_rows": min_morsel_rows})
        parallel_config = ParallelConfig(
            workers=workers if workers is not None else 2,
            backend=parallel_backend,
            resilience=resilience_config, **extra)
    from repro.core.semiring import resolve_semiring
    sr = resolve_semiring(semiring)
    if sr is None and config is not None:
        sr = resolve_semiring(config.semiring)
    bindings = bindings_of(database, named_bags)
    referenced = expr.free_vars()
    missing = referenced - set(bindings)
    if sr is not None:
        bindings = sr.adapt_bindings(bindings, referenced)
    pass_config = _config_for(opt_level, config,
                              default_level=default_level, semiring=sr)
    return sr, bindings, missing, policy, parallel_config, pass_config


def plan_for(expr: Expr, bindings: Mapping[str, Any],
             cache: Optional[PlanCache] = None,
             stats: Optional[EngineStats] = None,
             selectivity: float = 0.5,
             policy=None,
             opt_level: Optional[int] = None,
             config: Optional[PassConfig] = None,
             catalog=None,
             engine: Optional[str] = None,
             semiring=None) -> PhysicalPlan:
    """Fetch or build the physical plan for an expression.

    A thin shim over :func:`repro.planner.compile`: a cache hit skips
    the whole pipeline (asserted by bench E20's stats-counter check);
    a miss compiles with exact statistics drawn from the bindings and
    stores the plan.  ``policy`` (a
    :class:`~repro.engine.parallel.ParallelPolicy`) turns on the
    parallelism pass; parallel plans live under a tagged cache key so
    they never shadow serial plans, and the pass configuration is part
    of every key so opt levels never collide either.  The engine name
    only picks the default opt level (:data:`repro.planner.ENGINES`).
    """
    if engine is None:
        engine = "parallel" if policy is not None else "physical"
    resolved = _config_for(opt_level, config, selectivity,
                           default_level=resolve_engine(engine)[1],
                           semiring=semiring)
    ctx = PlanContext.capture(
        bindings, catalog=catalog, engine=engine,
        cache=cache, engine_stats=stats, parallel=policy,
        config=resolved)
    return planner_compile(expr, ctx).physical


def evaluate(expr: Expr,
             database: Optional[Mapping[str, Any]] = None,
             *,
             engine: str = "physical",
             governor: Optional[ResourceGovernor] = None,
             limits: Optional[Limits] = None,
             powerset_budget: Optional[int] = None,
             cache: Optional[PlanCache] = _DEFAULT_CACHE,
             stats: Optional[EngineStats] = None,
             workers: Optional[int] = None,
             parallel_backend: str = "thread",
             parallel_threshold: Optional[float] = None,
             min_morsel_rows: Optional[int] = None,
             opt_level: Optional[int] = None,
             config: Optional[PassConfig] = None,
             resilience=None,
             catalog=None,
             feedback: bool = False,
             semiring=None,
             **named_bags: Bag) -> Any:
    """Evaluate an expression with the physical engine.

    ``catalog`` (a :class:`~repro.storage.Workspace` or
    :class:`~repro.storage.Catalog`) makes compilation data-driven:
    statistics for cataloged relations come from persisted ANALYZE
    results instead of scanning the bound bags, and the catalog's
    histogram selectivities replace the flat default.  ``feedback=True``
    additionally folds the run's observed per-relation cardinalities
    back into the catalog (opt-in, bounded, epoch-bumping — see
    :meth:`repro.storage.Catalog.absorb`).

    ``engine="tree"`` falls through to the oracle evaluator, so callers
    can switch per query.  ``engine="parallel"`` runs the same kernels
    morsel-parallel on ``workers`` threads (or processes with
    ``parallel_backend="process"``); ``parallel_threshold`` overrides
    the minimum estimated cardinality below which the lowering pass
    refuses to insert exchanges (0 forces them everywhere), and
    ``min_morsel_rows`` overrides the adaptive morsel-granularity
    floor (1 forces the full ``workers x MORSEL_FACTOR`` split even
    on tiny inputs — what the differential harness does).
    Every one of these executes the lowered plan's fused step
    programs (:mod:`repro.engine.codegen`); engine names and their
    default opt levels come from :data:`repro.planner.ENGINES`.
    ``opt_level`` (0/1/2/3) or a full
    :class:`~repro.planner.PassConfig` picks the planner passes —
    level 0 disables every rewrite and lowers naively, level 2 adds
    the full algebraic rewrite fixpoint to the default, level 3 is
    another name for level 2.
    ``cache=None`` disables plan caching; the default is the
    process-wide cache.  Governed limits apply to the whole run:
    compilation ticks the shared governor per rewrite pass, every
    kernel ticks it per row batch, every materialisation honours the
    size budget, and powerset expansion pre-checks its budget.

    ``resilience`` (``True`` or a :class:`~repro.engine.resilience.
    ResilienceConfig`; parallel engine only) opts into fault-tolerant
    execution: per-morsel retry, process-pool respawn, and the
    process → thread → serial degradation ladder, with every demotion
    recorded in the run's :class:`EngineStats`.  With
    ``ResilienceConfig(replan=True)`` a run whose ladder is exhausted
    is recompiled once at opt level 1 and executed serially — the
    final rung.  The default (``None``) keeps the fail-fast contract.
    """
    if engine == "tree":
        from repro.core.eval import evaluate as tree_evaluate
        return tree_evaluate(expr, database,
                             powerset_budget=powerset_budget,
                             governor=governor, limits=limits,
                             opt_level=opt_level, config=config,
                             semiring=semiring,
                             **named_bags)
    (sr, bindings, missing, policy, parallel_config,
     resolved_config) = _prepare(
        expr, database, named_bags, engine=engine, semiring=semiring,
        config=config, opt_level=opt_level, workers=workers,
        parallel_backend=parallel_backend,
        parallel_threshold=parallel_threshold,
        min_morsel_rows=min_morsel_rows, resilience=resilience)
    if missing:
        raise UnboundVariableError(
            f"expression mentions unbound bag(s): {sorted(missing)}")
    evaluator = Evaluator(powerset_budget=powerset_budget,
                          governor=governor, limits=limits,
                          track_stats=False, semiring=sr)
    if evaluator.governor is not None:
        evaluator.governor.ensure_started()
    ctx = PlanContext.capture(
        bindings, catalog=catalog, engine=engine,
        governor=evaluator.governor,
        cache=cache, engine_stats=stats, parallel=policy,
        config=resolved_config)
    exec_ctx = ExecContext(bindings, evaluator, stats=stats,
                           parallel=parallel_config)
    try:
        plan = planner_compile(expr, ctx).physical
        try:
            result = plan.execute(exec_ctx)
            if feedback and catalog is not None:
                _absorb_feedback(catalog, exec_ctx.stats)
            return result
        except Exception as error:
            resilience_config = (None if parallel_config is None
                                 else parallel_config.resilience)
            if not (resilience_config is not None
                    and resilience_config.replan
                    and is_transient_fault(error)):
                raise
            # the final ladder rung: the parallel run died even after
            # retries/respawns/demotions — recompile serially at a
            # lower opt level (a fresh PassConfig means a fresh
            # cache key; no collision with the parallel plan) and
            # record the demotion so the degraded answer is visible
            exec_ctx.stats.demotions.append(
                "parallel->replan: serial opt-1 after "
                f"{type(error).__name__}")
            replan_config = PassConfig.for_level(
                min(1, resolved_config.opt_level),
                selectivity=resolved_config.selectivity,
                semiring=resolved_config.semiring)
            serial_ctx = PlanContext.capture(
                bindings, engine="physical",
                governor=evaluator.governor, cache=cache,
                engine_stats=stats, config=replan_config)
            serial_plan = planner_compile(expr, serial_ctx).physical
            return serial_plan.execute(
                ExecContext(bindings, evaluator,
                            stats=exec_ctx.stats))
    except RecursionError as exc:
        raise RecursionDepthExceeded(
            "expression or value nesting exceeded the Python "
            "recursion limit", stats=evaluator.stats) from exc
    except GovernedError as error:
        if error.stats is None:
            error.stats = evaluator.stats
        raise
    except ResourceLimitError as error:
        if getattr(error, "stats", None) is None:
            error.stats = evaluator.stats
        raise


def explain_physical(expr: Expr,
                     database: Optional[Mapping[str, Any]] = None,
                     *, execute: bool = True,
                     cache: Optional[PlanCache] = None,
                     governor: Optional[ResourceGovernor] = None,
                     limits: Optional[Limits] = None,
                     engine: str = "physical",
                     workers: Optional[int] = None,
                     parallel_backend: str = "thread",
                     parallel_threshold: Optional[float] = None,
                     opt_level: Optional[int] = None,
                     config: Optional[PassConfig] = None,
                     resilience=None,
                     catalog=None,
                     feedback: bool = False,
                     semiring=None,
                     **named_bags: Bag) -> str:
    """Render the physical plan, optionally with actual cardinalities.

    With ``execute=True`` (and all free variables bound) the plan runs
    once so every node whose step ran reports ``actual rows`` next to
    its estimate — the CLI's ``:explain`` uses exactly this.  The
    footer reports the run's fused-segment and barrier-step counts;
    under ``engine="parallel"`` the plan shows the
    Gather/Exchange/Partition structure and the footer adds the
    exchange counters (partitions, morsels, gather barriers,
    per-worker steps); the plan-cache totals close it when a cache
    served the plan.  ``engine`` must name an engine that has a
    physical plan: ``"tree"`` and unknown names raise ``ValueError``.
    """
    (sr, bindings, missing, policy, parallel_config,
     resolved_config) = _prepare(
        expr, database, named_bags, engine=engine, semiring=semiring,
        config=config, opt_level=opt_level, workers=workers,
        parallel_backend=parallel_backend,
        parallel_threshold=parallel_threshold, min_morsel_rows=None,
        resilience=resilience)
    stats = EngineStats()
    plan = plan_for(expr, bindings, cache=cache, stats=stats,
                    policy=policy, config=resolved_config,
                    catalog=catalog, engine=engine)
    actuals = None
    if execute and not missing:
        evaluator = Evaluator(governor=governor, limits=limits,
                              track_stats=False, semiring=sr)
        if evaluator.governor is not None:
            evaluator.governor.ensure_started()
        exec_ctx = ExecContext(bindings, evaluator, stats=stats,
                               parallel=parallel_config)
        plan.execute(exec_ctx)
        actuals = exec_ctx.actual_rows
    executed = actuals is not None
    # snapshot compile-time estimates before feedback rewrites them
    estimates = {}
    lookup = getattr(catalog, "planner_stats", None)
    if lookup is not None:
        for name in stats.observed_cardinalities:
            entry = lookup(name)
            if entry is not None:
                estimates[name] = entry.bag_stats.cardinality
    if feedback and executed and catalog is not None:
        _absorb_feedback(catalog, stats)
    rendered = plan.render(actuals)
    if feedback and executed:
        feedback_lines = ["-- feedback --"]
        observed = stats.observed_mean_cardinalities()
        for name in sorted(observed):
            estimated = (f"{estimates[name]:g}"
                         if name in estimates else "?")
            feedback_lines.append(
                f"{name}: estimated {estimated}, observed "
                f"{observed[name]:g} "
                f"(scans {stats.observed_scans.get(name, 0)})")
        if len(feedback_lines) == 1:
            feedback_lines.append("no base-relation scans observed")
        rendered = "\n".join([rendered] + feedback_lines)
    if semiring is not None or sr is not None:
        from repro.core.semiring import NAT
        active = NAT if sr is None else sr
        specialization = "fused-int" if sr is None else "generic"
        rendered = "\n".join([
            rendered, "-- semiring --",
            f"domain               {active.describe()}",
            f"specialization       {specialization}"])
    lines = [rendered, "-- codegen --",
             f"fused segments       {stats.fused_segments}",
             f"barrier fallbacks    {stats.barrier_fallbacks}"]
    if parallel_config is not None:
        lines += ["-- exchange --",
                  f"partitions created   {stats.partitions_created}",
                  f"morsels executed     {stats.morsels_executed}",
                  f"gather barriers      {stats.gather_barriers}",
                  f"per-worker steps     {stats.worker_steps}",
                  f"bytes shipped        {stats.bytes_shipped}",
                  f"segment cache        hits={stats.segment_cache_hits} "
                  f"misses={stats.segment_cache_misses}"]
        if parallel_config.resilience is not None:
            demotions = ("; ".join(stats.demotions) if stats.demotions
                         else "none")
            lines += ["-- resilience --",
                      f"morsel retries       {stats.morsel_retries}",
                      f"pool respawns        {stats.pool_respawns}",
                      f"demotions            {demotions}"]
    if cache is not None:
        lines.append(f"plan cache           hits={cache.stats.hits} "
                     f"misses={cache.stats.misses} "
                     f"evictions={cache.stats.evictions}")
    return "\n".join(lines)
