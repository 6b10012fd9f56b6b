"""The statistics catalog: persisted per-relation schema + statistics.

One :class:`RelationEntry` per relation records the pair of numbers
that diverge exactly when bags matter — total cardinality *with
duplicates* and distinct count (PAPER.md §3) — plus the bag-specific
extras the estimator consumes: a multiplicity-skew histogram,
``avg_element_size`` for bag-valued members, and bounded per-column
most-common-value lists.

The catalog speaks the planner's protocol:

* :meth:`Catalog.planner_stats` answers
  :meth:`repro.planner.context.PlanContext.capture` without touching
  the bound bag (the zero-scan compile path — the scan counter in
  :mod:`repro.planner.stats` stays put);
* :meth:`Catalog.selectivity_oracle` turns the MCV lists into a
  per-predicate :data:`~repro.planner.stats.SelectivityFn`, replacing
  the flat ``DEFAULT_SELECTIVITY`` for ``alpha_i(t) = const`` and
  ``alpha_i(t) = alpha_j(t)`` selections over cataloged relations;
* :meth:`Catalog.absorb` folds observed cardinalities from
  :class:`~repro.engine.physical.EngineStats` back in (opt-in,
  bounded, dead-banded), bumping the per-relation *epoch* so every
  plan cached against the stale statistics is retired — epochs are
  part of the plan-cache key via
  :meth:`~repro.planner.context.PlanContext.stats_tag`.

``ANALYZE`` (:meth:`analyze_bag`) is the one deliberate full scan; it
ticks the same scan counter the memoized ``stats_of`` path uses, so
tests can assert exactly *where* bags get touched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.bag import Bag, Tup, canonical_key
from repro.core.expr import Attribute, Const, Lam, Select, Var
from repro.planner.stats import BagStats, count_stats_scan
from repro.storage.loaders import (
    ColumnSpec, decode_value, encode_value,
)

__all__ = ["ColumnStats", "RelationEntry", "PlannerStats", "Catalog",
           "MCV_KEEP", "HISTOGRAM_KEEP", "FEEDBACK_DEADBAND"]

#: Most-common values kept per column.
MCV_KEEP = 8
#: Multiplicity classes kept in the skew histogram.
HISTOGRAM_KEEP = 32
#: Columns profiled per relation (wide tuples keep their first ones).
COLUMNS_PROFILED = 8
#: Relative cardinality drift below which feedback is ignored — keeps
#: epoch churn (and hence plan-cache invalidation) bounded.
FEEDBACK_DEADBAND = 0.05


@dataclass(frozen=True)
class ColumnStats:
    """Bounded statistics of one tuple attribute."""

    distinct: int
    #: ``(value, fraction-of-rows)`` for the most common values,
    #: most frequent first (canonical-key tie-break).
    mcv: Tuple[Tuple[Any, float], ...] = ()

    def eq_fraction(self, value: Any) -> float:
        """Estimated fraction of rows with this attribute value."""
        for candidate, fraction in self.mcv:
            if candidate == value:
                return fraction
        covered = sum(fraction for _, fraction in self.mcv)
        rest = max(0, self.distinct - len(self.mcv))
        if rest == 0:
            return 0.0
        return max(0.0, 1.0 - covered) / rest


@dataclass(frozen=True)
class RelationEntry:
    """Everything the catalog knows about one relation."""

    name: str
    cardinality: float
    distinct: float
    arity: Optional[int] = None
    avg_element_size: Optional[float] = None
    #: ``(multiplicity, number of distinct elements at it)``, sorted
    #: by multiplicity, bounded to the heaviest classes.
    mult_histogram: Tuple[Tuple[int, int], ...] = ()
    column_stats: Tuple[ColumnStats, ...] = ()
    columns: Optional[Tuple[ColumnSpec, ...]] = None
    #: Monotone statistics version; part of the plan-cache key.
    epoch: int = 1

    def bag_stats(self) -> BagStats:
        return BagStats(self.cardinality, self.distinct,
                        self.avg_element_size)


@dataclass(frozen=True)
class PlannerStats:
    """The planner protocol's answer shape (see
    :meth:`~repro.planner.context.PlanContext.capture`)."""

    bag_stats: BagStats
    epoch: int


class Catalog:
    """An in-memory catalog; :class:`~repro.storage.Workspace`
    persists one next to its relations."""

    def __init__(self, entries: Optional[Mapping[str, RelationEntry]]
                 = None):
        self._entries: Dict[str, RelationEntry] = dict(entries or {})

    # -- plain access ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def get(self, name: str) -> Optional[RelationEntry]:
        return self._entries.get(name)

    def put(self, entry: RelationEntry) -> None:
        self._entries[entry.name] = entry

    def drop(self, name: str) -> None:
        self._entries.pop(name, None)

    # -- ANALYZE --------------------------------------------------------

    def analyze_bag(self, name: str, bag: Bag,
                    columns: Optional[Sequence[ColumnSpec]] = None
                    ) -> RelationEntry:
        """Refresh one relation's statistics by scanning its bag (the
        deliberate full scan — ticks the shared scan counter)."""
        count_stats_scan()
        cardinality = float(bag.cardinality)
        distinct = float(bag.distinct_count)
        arity: Optional[int] = None
        avg_element_size: Optional[float] = None
        histogram: Dict[int, int] = {}
        per_column: List[Dict[Any, int]] = []
        uniform_tuples = True
        nested_total = 0.0
        nested_any = False
        for value, count in bag.items():
            histogram[count] = histogram.get(count, 0) + 1
            if isinstance(value, Bag):
                nested_any = True
                nested_total += value.cardinality * count
            if isinstance(value, Tup):
                if arity is None:
                    arity = value.arity
                    per_column = [dict() for _ in
                                  range(min(arity, COLUMNS_PROFILED))]
                elif value.arity != arity:
                    uniform_tuples = False
                if uniform_tuples:
                    for index, cell in enumerate(
                            value.items()[:len(per_column)]):
                        bucket = per_column[index]
                        bucket[cell] = bucket.get(cell, 0) + count
            else:
                uniform_tuples = False
        if not uniform_tuples:
            arity = None
            per_column = []
        if nested_any and cardinality:
            avg_element_size = nested_total / cardinality
        old = self._entries.get(name)
        entry = RelationEntry(
            name=name,
            cardinality=cardinality,
            distinct=distinct,
            arity=arity,
            avg_element_size=avg_element_size,
            mult_histogram=_bounded_histogram(histogram),
            column_stats=tuple(
                _column_stats(bucket, cardinality)
                for bucket in per_column),
            columns=tuple(columns) if columns else
            (old.columns if old else None),
            epoch=(old.epoch + 1) if old else 1)
        self._entries[name] = entry
        return entry

    # -- planner protocol -----------------------------------------------

    def planner_stats(self, name: str) -> Optional[PlannerStats]:
        entry = self._entries.get(name)
        if entry is None:
            return None
        return PlannerStats(bag_stats=entry.bag_stats(),
                            epoch=entry.epoch)

    def selectivity_oracle(self):
        """A :data:`~repro.planner.stats.SelectivityFn` over this
        catalog's column statistics; ``None``-returning (flat default)
        for anything it cannot attribute to a cataloged column."""

        def oracle(select: Select) -> Optional[float]:
            if not isinstance(select.operand, Var):
                return None
            entry = self._entries.get(select.operand.name)
            if entry is None or not entry.column_stats:
                return None
            matched = _match_predicate(select, entry)
            if matched is None:
                return None
            if select.op == "eq":
                fraction = matched
            elif select.op == "ne":
                fraction = 1.0 - matched
            else:
                return None
            floor = 1.0 / (2.0 * max(entry.cardinality, 1.0))
            return max(min(fraction, 1.0), floor)

        return oracle

    # -- execution feedback ---------------------------------------------

    def absorb(self, observed: Mapping[str, float], *,
               max_updates: int = 8,
               deadband: float = FEEDBACK_DEADBAND) -> List[str]:
        """Fold observed per-relation cardinalities back in.

        Bounded on purpose: at most ``max_updates`` relations per
        call, only relations already cataloged, and drifts inside the
        ``deadband`` are ignored — otherwise every run would bump
        epochs and flush the plan cache.  Returns the updated names.
        """
        updated: List[str] = []
        for name in sorted(observed):
            if len(updated) >= max_updates:
                break
            entry = self._entries.get(name)
            if entry is None:
                continue
            actual = float(observed[name])
            if actual < 0:
                continue
            baseline = max(entry.cardinality, 1.0)
            if abs(actual - entry.cardinality) / baseline <= deadband:
                continue
            self._entries[name] = replace(
                entry, cardinality=actual,
                distinct=min(entry.distinct, actual),
                epoch=entry.epoch + 1)
            updated.append(name)
        return updated

    # -- persistence ----------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        relations = {}
        for name in sorted(self._entries):
            entry = self._entries[name]
            relations[name] = {
                "cardinality": entry.cardinality,
                "distinct": entry.distinct,
                "arity": entry.arity,
                "avg_element_size": entry.avg_element_size,
                "mult_histogram": [list(pair)
                                   for pair in entry.mult_histogram],
                "column_stats": [
                    {"distinct": col.distinct,
                     "mcv": [[encode_value(value), fraction]
                             for value, fraction in col.mcv]}
                    for col in entry.column_stats],
                "columns": ([[spec.name, spec.type]
                             for spec in entry.columns]
                            if entry.columns else None),
                "epoch": entry.epoch,
            }
        return {"format": 1, "relations": relations}

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "Catalog":
        entries: Dict[str, RelationEntry] = {}
        for name, raw in document.get("relations", {}).items():
            columns = raw.get("columns")
            entries[name] = RelationEntry(
                name=name,
                cardinality=float(raw["cardinality"]),
                distinct=float(raw["distinct"]),
                arity=raw.get("arity"),
                avg_element_size=raw.get("avg_element_size"),
                mult_histogram=tuple(
                    (int(mult), int(count))
                    for mult, count in raw.get("mult_histogram", [])),
                column_stats=tuple(
                    ColumnStats(
                        distinct=int(col["distinct"]),
                        mcv=tuple((decode_value(value), float(fraction))
                                  for value, fraction in col["mcv"]))
                    for col in raw.get("column_stats", [])),
                columns=(tuple(ColumnSpec(cname, ctype)
                               for cname, ctype in columns)
                         if columns else None),
                epoch=int(raw.get("epoch", 1)))
        return cls(entries)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _bounded_histogram(histogram: Mapping[int, int]
                       ) -> Tuple[Tuple[int, int], ...]:
    """The heaviest multiplicity classes, reported in multiplicity
    order."""
    heaviest = sorted(histogram.items(),
                      key=lambda pair: (-pair[1], pair[0]))
    kept = heaviest[:HISTOGRAM_KEEP]
    return tuple(sorted(kept))


def _column_stats(bucket: Mapping[Any, int],
                  cardinality: float) -> ColumnStats:
    ranked = sorted(bucket.items(),
                    key=lambda pair: (-pair[1],
                                      canonical_key(pair[0])))
    total = max(cardinality, 1.0)
    mcv = tuple((value, rows / total)
                for value, rows in ranked[:MCV_KEEP])
    return ColumnStats(distinct=len(bucket), mcv=mcv)


def _lam_attribute_index(lam: Lam) -> Optional[int]:
    """``i`` when the lambda body is ``alpha_i(param)``."""
    body = lam.body
    if (isinstance(body, Attribute) and isinstance(body.operand, Var)
            and body.operand.name == lam.param):
        return body.index
    return None


def _match_predicate(select: Select,
                     entry: RelationEntry) -> Optional[float]:
    """The equality fraction of a recognized predicate shape, or
    ``None``: ``alpha_i(t) = const`` uses the column's MCV list,
    ``alpha_i(t) = alpha_j(t)`` uses ``1 / max(d_i, d_j)``."""
    left_attr = _lam_attribute_index(select.left)
    right_attr = _lam_attribute_index(select.right)
    left_const = (select.left.body.value
                  if isinstance(select.left.body, Const) else None)
    right_const = (select.right.body.value
                   if isinstance(select.right.body, Const) else None)
    if left_attr is not None and right_attr is not None:
        cols = entry.column_stats
        if left_attr > len(cols) or right_attr > len(cols):
            return None
        d_left = max(cols[left_attr - 1].distinct, 1)
        d_right = max(cols[right_attr - 1].distinct, 1)
        return 1.0 / max(d_left, d_right)
    attr, const = None, None
    if left_attr is not None and right_const is not None:
        attr, const = left_attr, right_const
    elif right_attr is not None and left_const is not None:
        attr, const = right_attr, left_const
    if attr is None or isinstance(const, (Bag, Tup)):
        return None
    if attr > len(entry.column_stats):
        return None
    return entry.column_stats[attr - 1].eq_fraction(const)
