"""Per-query compilation state: pass configuration and plan context.

:class:`PassConfig` is the *what*: which optimization level the
pipeline runs at and which named passes are individually toggled.  It
is frozen and hashable because it is part of the plan-cache key — an
opt-0 plan and an opt-2 plan for the same expression must never share
a cache slot (``tests/test_planner.py`` pins this).

:class:`PlanContext` is the *with what*: the type environment (the
bound bags' types), catalog statistics, governor handle, plan cache,
and target engine for one compilation.  Every entry point
(``core.eval``, ``run_sql``, the REPL, the CLI, the testkit backends)
builds one of these and hands it to :func:`repro.planner.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

from repro.core.bag import Bag
from repro.core.semiring import resolve_semiring, semiring_name
from repro.core.types import Type, type_of
from repro.planner.manager import DEFAULT_MAX_PASSES
from repro.planner.rewrites import ALL_RULES, Rule
from repro.planner.stats import (
    DEFAULT_SELECTIVITY, BagStats, SelectivityFn, stats_of,
)

__all__ = ["PassConfig", "PlanContext", "STAGE_NAMES", "OPT_LEVELS",
           "ENGINES", "resolve_engine", "toggleable_passes"]

#: The named stages of the pipeline, in order.
STAGE_NAMES = ("typecheck", "rewrite", "lower", "parallelize",
               "codegen")

#: opt level -> one-line meaning (the CLI prints this).
OPT_LEVELS = {
    0: "all rewrites disabled; naive lowering (no fusion, no "
       "reordering, no sharing)",
    1: "normalize + cost-based lowering (the default)",
    2: "level 1 plus the algebraic rewrite fixpoint",
    3: "another name for level 2",
}

#: engine name -> (the engine that runs it, its default opt level).
#: The one place an engine name is resolved: ``codegen`` is the
#: physical engine under an older name, with the rewrite fixpoint on.
ENGINES = {"tree": ("tree", 0), "physical": ("physical", 1),
           "parallel": ("parallel", 1), "codegen": ("physical", 2)}


def resolve_engine(name: str) -> Tuple[str, int]:
    """``(canonical engine, default opt level)`` for an engine name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r} (choices: "
                         f"{', '.join(ENGINES)})") from None


#: Stage-level toggle names plus every statically-registered rule name.
def toggleable_passes() -> Tuple[str, ...]:
    names = ["normalize", "rewrite", "cost-lowering"]
    names.extend(rule.name for rule in ALL_RULES)
    names.append("push-select-product")
    return tuple(names)


@dataclass(frozen=True)
class PassConfig:
    """Which passes run, at which level, with which toggles.

    ``disabled`` / ``enabled`` hold pass names (stage names or
    individual rule names); an explicit toggle wins over the level
    default, and ``disabled`` wins over ``enabled``.
    """

    opt_level: int = 1
    disabled: Tuple[str, ...] = ()
    enabled: Tuple[str, ...] = ()
    max_rewrite_passes: int = DEFAULT_MAX_PASSES
    selectivity: float = DEFAULT_SELECTIVITY
    #: Canonical name of the multiplicity semiring plans are built
    #: for.  Part of the cache tag: an N plan and a Bool plan for the
    #: same expression must never share a slot (constants are baked in
    #: adapted form, lowering collapses differ under idempotent add).
    semiring: str = "nat"

    def __post_init__(self):
        if self.opt_level not in OPT_LEVELS:
            raise ValueError(
                f"opt level must be one of {sorted(OPT_LEVELS)}, "
                f"got {self.opt_level!r}")
        # level 3 runs level 2's passes: one level, one cache tag
        object.__setattr__(self, "opt_level", min(self.opt_level, 2))
        # normalized, deduplicated, sorted tuples keep the config
        # hashable and make equal toggles produce equal cache tags
        object.__setattr__(self, "disabled",
                           tuple(sorted(set(self.disabled))))
        object.__setattr__(self, "enabled",
                           tuple(sorted(set(self.enabled))))
        # canonicalize semiring aliases ("set" -> "bool") so equal
        # domains produce equal cache tags; unknown names raise here
        object.__setattr__(
            self, "semiring",
            semiring_name(resolve_semiring(self.semiring)))

    # -- construction ----------------------------------------------------

    @classmethod
    @lru_cache(maxsize=64)
    def for_level(cls, opt_level: int, *,
                  disabled: Tuple[str, ...] = (),
                  enabled: Tuple[str, ...] = (),
                  max_rewrite_passes: int = DEFAULT_MAX_PASSES,
                  selectivity: float = DEFAULT_SELECTIVITY,
                  semiring: str = "nat") -> "PassConfig":
        """Memoised: a config is frozen, so the callers of one level,
        toggle set, selectivity and semiring share one — and the rule
        tuples it builds once."""
        return cls(opt_level=opt_level, disabled=disabled,
                   enabled=enabled,
                   max_rewrite_passes=max_rewrite_passes,
                   selectivity=selectivity, semiring=semiring)

    # -- queries ---------------------------------------------------------

    def _active(self, name: str, default_on: bool) -> bool:
        if name in self.disabled:
            return False
        if name in self.enabled:
            return True
        return default_on

    def stage_active(self, stage: str) -> bool:
        """Is a whole stage active at this level?"""
        if stage == "normalize":
            return self._active("normalize", self.opt_level >= 1)
        if stage == "rewrite":
            return self._active("rewrite", self.opt_level >= 2)
        if stage == "cost-lowering":
            return self._active("cost-lowering", self.opt_level >= 1)
        return True

    def rule_active(self, rule: Rule) -> bool:
        """Is one named rule active, given its stage and the toggles?"""
        if not self.stage_active(rule.stage):
            return False
        if rule.nat_only and self.semiring != "nat":
            return False
        return self._active(rule.name, True)

    # built once per config: every compile asks, the answer never moves
    @cached_property
    def active_rules(self) -> Tuple[Rule, ...]:
        """The rewrite stage's rules, the normalize group first."""
        return tuple(rule for rule in ALL_RULES if self.rule_active(rule))

    @property
    def cost_based_lowering(self) -> bool:
        return self.stage_active("cost-lowering")

    def cache_tag(self) -> Hashable:
        """The pass-configuration component of the plan-cache key.

        Everything that can change the *shape* of the produced plan is
        in here; two configs that lower identically share a tag only
        when they are equal, so opt-0 and opt-2 plans can never
        collide.
        """
        return ("passes", self.opt_level, self.disabled, self.enabled,
                self.selectivity, self.semiring)

    def describe(self) -> str:
        parts = [f"opt-level {self.opt_level}"]
        if self.disabled:
            parts.append("disabled: " + ", ".join(self.disabled))
        if self.enabled:
            parts.append("enabled: " + ", ".join(self.enabled))
        if self.semiring != "nat":
            parts.append(f"semiring: {self.semiring}")
        return "; ".join(parts)


class PlanContext:
    """Everything one compilation needs, bundled.

    Parameters
    ----------
    engine:
        A name in :data:`ENGINES`, stored as the engine that runs it:
        ``"tree"`` (the oracle walker — the pipeline stops after the
        logical stages), ``"physical"`` or ``"parallel"``.  The
        caller picks the opt level.
    schema:
        Optional caller-declared ``name -> Type`` mapping; the source
        expression is checked against it before normalization, and it
        enables the schema-driven product pushdown rule.
    statistics / types:
        Catalog statistics for cost-based lowering, and the type of
        each bound bag (``type_of``, an O(1) read of its sealed shape)
        — the environment the planner proves the lowered tree in, and
        a component of the plan-cache key; usually derived from
        concrete bindings via :meth:`capture`.
    governor:
        Optional :class:`~repro.guard.ResourceGovernor`; compilation
        ticks it, so rewriting shares the run's budgets.
    cache:
        Optional :class:`~repro.engine.cache.PlanCache`; keys include
        :meth:`PassConfig.cache_tag`.
    engine_stats:
        Optional :class:`~repro.engine.physical.EngineStats` to count
        cache hits / misses / lowerings into.
    parallel:
        Optional ``ParallelPolicy`` driving the parallelize pass
        (set when ``engine == "parallel"``).
    selectivity_fn:
        Optional per-predicate selectivity oracle (see
        :data:`repro.planner.stats.SelectivityFn`); usually supplied
        by a storage catalog's histograms via :meth:`capture`.

    ``stats_sources`` records where each relation's statistics came
    from (``"catalog"`` / ``"scanned"``); ``stats_epochs`` records the
    catalog epoch per catalog-sourced relation.  Both feed
    :meth:`stats_tag`, the statistics component of the plan-cache key,
    and the ``:explain`` stages view.
    """

    __slots__ = ("engine", "schema", "statistics", "types",
                 "governor", "cache", "engine_stats", "parallel",
                 "config", "selectivity_fn", "stats_sources",
                 "stats_epochs")

    def __init__(self, *, engine: str = "physical",
                 schema: Optional[Mapping[str, Any]] = None,
                 statistics: Optional[Mapping[str, BagStats]] = None,
                 types: Optional[Mapping[str, Type]] = None,
                 governor=None, cache=None, engine_stats=None,
                 parallel=None,
                 config: Optional[PassConfig] = None,
                 selectivity_fn: Optional[SelectivityFn] = None):
        self.engine = resolve_engine(engine)[0]
        self.schema = dict(schema) if schema is not None else None
        self.statistics = (dict(statistics) if statistics is not None
                           else None)
        self.types = dict(types) if types else {}
        self.governor = governor
        self.cache = cache
        self.engine_stats = engine_stats
        self.parallel = parallel
        self.config = config if config is not None else PassConfig()
        self.selectivity_fn = selectivity_fn
        self.stats_sources: Dict[str, str] = {}
        self.stats_epochs: Dict[str, int] = {}

    @classmethod
    def capture(cls, bindings: Mapping[str, Any], *,
                catalog=None,
                engine: str = "physical",
                schema: Optional[Mapping[str, Any]] = None,
                governor=None, cache=None, engine_stats=None,
                parallel=None,
                config: Optional[PassConfig] = None
                ) -> "PlanContext":
        """Derive statistics and types from concrete bindings.

        With a ``catalog`` (any object exposing
        ``planner_stats(name)`` — the storage catalog's protocol),
        relations the catalog knows are answered from persisted
        statistics without scanning the bound bag, and the catalog's
        histogram-driven selectivity oracle is installed.  Everything
        else falls back to :func:`stats_of`, which is memoized by bag
        identity — so repeated compiles against the same bound bag
        cost one dictionary hit, not a re-derivation (the per-compile
        full-scan this method historically did).  A bag's type is
        read off its sealed shape either way, visiting no member.
        """
        statistics: Dict[str, BagStats] = {}
        types: Dict[str, Type] = {}
        sources: Dict[str, str] = {}
        epochs: Dict[str, int] = {}
        for name, value in bindings.items():
            if not isinstance(value, Bag):
                continue
            types[name] = type_of(value)
            entry = (catalog.planner_stats(name)
                     if catalog is not None else None)
            if entry is not None:
                statistics[name] = entry.bag_stats
                sources[name] = "catalog"
                epochs[name] = entry.epoch
                continue
            statistics[name] = stats_of(value)
            sources[name] = "scanned"
        selectivity_fn = None
        if catalog is not None:
            selectivity_fn = catalog.selectivity_oracle()
        ctx = cls(engine=engine, schema=schema, statistics=statistics,
                  types=types, governor=governor, cache=cache,
                  engine_stats=engine_stats, parallel=parallel,
                  config=config, selectivity_fn=selectivity_fn)
        ctx.stats_sources = sources
        ctx.stats_epochs = epochs
        return ctx

    def stats_tag(self) -> Optional[Tuple]:
        """The statistics component of the plan-cache key.

        Catalog-sourced relations contribute ``(name, "catalog",
        epoch)`` — bumping the epoch on ANALYZE or feedback absorption
        retires every plan built from the stale statistics, and a
        catalog-driven compile can never collide with a scan-driven
        one.  Scanned statistics deliberately contribute *nothing*:
        plans hold no data, and one warm plan serving two databases of
        the same shape is pinned behaviour
        (``test_warm_cache_shared_across_databases``).
        """
        parts = tuple((name, "catalog", self.stats_epochs.get(name, 0))
                      for name in sorted(self.stats_sources)
                      if self.stats_sources[name] == "catalog")
        return ("stats", parts) if parts else None

    def describe_stats_sources(self) -> Optional[str]:
        """Human summary for the ``:explain`` stages view, e.g.
        ``"stats: R=catalog, S=scanned"``."""
        if not self.stats_sources:
            return None
        inner = ", ".join(f"{name}={self.stats_sources[name]}"
                          for name in sorted(self.stats_sources))
        return f"stats: {inner}"
