"""``repro.planner`` — the staged compilation pipeline.

One pass-managed pipeline behind every entry point::

    parse/typecheck -> rewrite (one rule fixpoint)
                    -> cost-based lowering -> (optional) parallelize

* :mod:`repro.planner.stats` — the single shared cardinality/cost
  estimator;
* :mod:`repro.planner.rewrites` — the named rewrite rules, each tagged
  with the bag-semantics side condition under which it preserves
  multiplicities;
* :mod:`repro.planner.manager` — the bounded, governor-ticked fixpoint
  pass manager;
* :mod:`repro.planner.context` — :class:`PassConfig` (opt levels,
  per-pass toggles, the plan-cache tag), :class:`PlanContext` (type
  environment, catalog statistics, governor handle) and
  :data:`ENGINES`, the one table of engine names;
* :mod:`repro.planner.report` — per-stage :class:`PlanReport` for the
  ``:explain stages`` view and the E23 benchmark, and :func:`explain`,
  the logical EXPLAIN tree;
* :mod:`repro.planner.pipeline` — :func:`compile` itself.

Opt levels: ``0`` disables every rewrite and lowers naively (the
differential testkit's ``engine-opt0`` backend), ``1`` is the
``normalize`` rules plus cost-based lowering (the default physical
path), ``2`` adds the ``rewrite`` rules to the same fixpoint, and
``3`` is another name for ``2``.  See ``docs/planner.md``.
"""

from repro.planner.context import (
    ENGINES, OPT_LEVELS, STAGE_NAMES, PassConfig, PlanContext,
    resolve_engine, toggleable_passes,
)
from repro.planner.manager import DEFAULT_MAX_PASSES, FixpointRewriter
from repro.planner.pipeline import CompiledPlan, compile
from repro.planner.report import PlanReport, StageRecord, explain
from repro.planner.rewrites import (
    ALL_RULES, NORMALIZE_RULES, REWRITE_RULES, Rule, rule_named,
)
from repro.planner.stats import (
    DEFAULT_SELECTIVITY, NODE_WEIGHTS, BagStats, estimate,
    estimated_cost, stats_of,
)

__all__ = [
    "compile", "CompiledPlan",
    "PassConfig", "PlanContext", "PlanReport", "StageRecord", "explain",
    "ENGINES", "resolve_engine",
    "FixpointRewriter", "DEFAULT_MAX_PASSES",
    "Rule", "ALL_RULES", "NORMALIZE_RULES", "REWRITE_RULES",
    "rule_named", "toggleable_passes", "STAGE_NAMES", "OPT_LEVELS",
    "BagStats", "stats_of", "estimate", "estimated_cost",
    "NODE_WEIGHTS", "DEFAULT_SELECTIVITY",
]
