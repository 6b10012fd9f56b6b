"""The fixpoint pass manager: bounded, governed rule application.

One :class:`FixpointRewriter` drives the pipeline's one rule-fixpoint
stage, over the active rules of both groups (``normalize`` first,
then ``rewrite``).  The discipline:

* rules run bottom-up over the AST, first match per node wins — every
  node, extension nodes such as IFP included, is rebuilt through its
  ``with_children`` hook (:func:`repro.core.expr.map_children`), so
  the rules reach inside an IFP's seed and body too;
* a pass that changed anything schedules another pass, up to
  ``max_passes`` — the fixpoint is **bounded**, so a non-terminating
  rule set (two rules undoing each other, a rule that grows its own
  redex) is cut off cleanly: the rewriter returns the last tree with
  ``converged=False`` instead of spinning;
* every full pass ticks the compilation governor, so an adversarial
  expression or rule set also falls under the step budget, deadline,
  and cancellation discipline that execution already obeys
  (``tests/test_planner.py`` pins both cut-off modes with a
  deliberately oscillating rule pair);
* per-rule firing counts accumulate into the ``firings`` mapping the
  :class:`~repro.planner.report.PlanReport` exposes to ``:explain``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.expr import Expr, map_children
from repro.planner.rewrites import Rule

__all__ = ["FixpointRewriter", "DEFAULT_MAX_PASSES"]

#: Safety cap on full bottom-up passes per stage.
DEFAULT_MAX_PASSES = 50


class FixpointRewriter:
    """Applies a rule set bottom-up until no rule fires (or the bound
    or the governor cuts the iteration off).

    Parameters
    ----------
    rules:
        The active :class:`~repro.planner.rewrites.Rule` objects, in
        priority order (first match per node wins).
    max_passes:
        Bound on full bottom-up passes; reaching it without a fixpoint
        sets :attr:`converged` to ``False`` — never an exception, the
        partially-rewritten tree is still semantically equal.
    governor:
        Optional :class:`~repro.guard.ResourceGovernor`; ticked once
        per full pass so compilation shares the run's budgets.
    firings:
        Optional mapping to accumulate per-rule firing counts into
        (the pipeline passes one per stage record).
    """

    def __init__(self, rules: Sequence[Rule],
                 max_passes: int = DEFAULT_MAX_PASSES,
                 governor=None,
                 firings: Optional[Dict[str, int]] = None):
        self.rules = tuple(rules)
        self._fns = tuple((rule.fn, rule.name) for rule in self.rules)
        self.max_passes = max_passes
        self.governor = governor
        self.firings: Dict[str, int] = (firings if firings is not None
                                        else {})
        self.converged = True
        self.passes_run = 0

    def rewrite(self, expr: Expr) -> Expr:
        """Rewrite to a (bounded) fixpoint of the rule set."""
        if not self.rules:
            return expr
        current = expr
        for iteration in range(self.max_passes):
            if self.governor is not None:
                self.governor.tick()
            self.passes_run = iteration + 1
            rewritten = self._pass(current)
            # a pass where nothing fired hands back the very tree
            if rewritten is current or rewritten == current:
                self.converged = True
                return current
            current = rewritten
        self.converged = False
        return current

    # -- one bottom-up pass ----------------------------------------------

    def _pass(self, expr: Expr) -> Expr:
        """One bottom-up pass: children first, then this node."""
        rebuilt = map_children(expr, self._pass)
        for fn, name in self._fns:
            replacement = fn(rebuilt)
            if replacement is not None and replacement != rebuilt:
                self.firings[name] = self.firings.get(name, 0) + 1
                return replacement
        return rebuilt
