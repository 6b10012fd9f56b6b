"""Plan reports: what each pipeline stage did, for ``:explain``.

A :class:`PlanReport` is a list of :class:`StageRecord` in pipeline
order.  Each record carries the tree *after* the stage ran, the rule
firings the stage performed, the estimated static cost of the result,
whether a fixpoint stage converged, and how long the stage took (the
E23 benchmark reads the timings).  ``render()`` produces the
``-- stages --`` view the CLI prints; :func:`explain` produces the
``-- logical --`` view above it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.core.errors import BagTypeError
from repro.core.expr import Const, Expr, Var
from repro.core.typecheck import TypeChecker
from repro.core.types import Type
from repro.planner.stats import (
    DEFAULT_SELECTIVITY, BagStats, estimate, estimated_cost,
)

__all__ = ["StageRecord", "PlanReport", "explain"]


def explain(expr: Expr,
            schema: Optional[Mapping[str, Type]] = None,
            statistics: Optional[Mapping[str, BagStats]] = None,
            selectivity: float = DEFAULT_SELECTIVITY) -> str:
    """The logical EXPLAIN: the dataflow tree, one node per line, each
    with its inferred type (given a schema) and its estimated
    cardinality (given statistics)::

        Select  [{{[U, U]}}]  est card 8 / distinct 4
          Cartesian  [{{[U, U]}}]  est card 16 / distinct 8
            Var A  [{{[U]}}]  est card 4 / distinct 2

    Lambda bodies are per-member computations, not plan steps, so the
    tree does not descend into them.  An untypeable expression still
    renders, without types.
    """
    types: Dict[int, Type] = {}
    if schema is not None:
        checker = TypeChecker()
        try:
            checker.check(expr, schema)
        except BagTypeError:
            pass
        else:
            for node, inferred in checker.annotations:
                types.setdefault(id(node), inferred)
    lines: List[str] = []
    estimates: Dict[Expr, Optional[BagStats]] = {}  # each node once

    def render(node: Expr, depth: int) -> None:
        if isinstance(node, Var):
            parts = [f"Var {node.name}"]
        else:
            parts = ["Const" if isinstance(node, Const)
                     else type(node).__name__]
        if id(node) in types:
            parts.append(f"[{types[id(node)]!r}]")
        if statistics is not None:
            try:
                stats = estimate(node, statistics,
                                 selectivity=selectivity, memo=estimates)
                parts.append(f"est card {stats.cardinality:g} / "
                             f"distinct {stats.distinct:g}")
            except BagTypeError:
                pass
        lines.append("  " * depth + "  ".join(parts))
        bodies = [lam.body for lam in node.lambdas()]
        for child in node.children():
            if all(child is not body for body in bodies):
                render(child, depth + 1)

    render(expr, 0)
    return "\n".join(lines)


@dataclass
class StageRecord:
    """One pipeline stage's outcome."""

    stage: str                        # name from STAGE_NAMES
    tree: str                         # rendering of the stage's output
    firings: Dict[str, int] = field(default_factory=dict)
    converged: Optional[bool] = None  # fixpoint stages only
    seconds: float = 0.0
    note: str = ""                    # e.g. "skipped (opt-level 0)"
    #: a fixpoint stage's output tree, priced by :attr:`cost`
    output: Any = field(default=None, repr=False)

    @property
    def total_firings(self) -> int:
        return sum(self.firings.values())

    @property
    def cost(self) -> Optional[int]:
        """``estimated_cost`` of the stage's output — priced when asked
        (only ``:explain stages`` asks), not on every compile."""
        if self.output is None:
            return None
        return estimated_cost(self.output)


class PlanReport:
    """Accumulates stage records during one compilation."""

    def __init__(self, config_description: str = ""):
        self.config_description = config_description
        self.stages: List[StageRecord] = []

    def add(self, record: StageRecord) -> StageRecord:
        self.stages.append(record)
        return record

    def stage(self, name: str) -> Optional[StageRecord]:
        for record in self.stages:
            if record.stage == name:
                return record
        return None

    @property
    def total_firings(self) -> int:
        return sum(record.total_firings for record in self.stages)

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.stages)

    def firing_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for record in self.stages:
            for name, count in record.firings.items():
                merged[name] = merged.get(name, 0) + count
        return merged

    def render(self) -> str:
        """The ``-- stages --`` explain view."""
        lines: List[str] = []
        if self.config_description:
            lines.append(f"config: {self.config_description}")
        for record in self.stages:
            header = f"[{record.stage}]"
            details = []
            if record.note:
                details.append(record.note)
            if record.cost is not None:
                details.append(f"cost={record.cost}")
            if record.converged is False:
                details.append("fixpoint cut off")
            if record.firings:
                fired = ", ".join(
                    f"{name} x{count}"
                    for name, count in sorted(record.firings.items()))
                details.append(f"fired: {fired}")
            if details:
                header += "  (" + "; ".join(details) + ")"
            lines.append(header)
            for tree_line in record.tree.splitlines():
                lines.append("  " + tree_line)
        return "\n".join(lines)


class _StageTimer:
    """Context manager stamping ``seconds`` onto a record."""

    def __init__(self, record: StageRecord):
        self.record = record

    def __enter__(self):
        self._start = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record.seconds = time.perf_counter() - self._start
        return False
