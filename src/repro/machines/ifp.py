"""The inflationary fixpoint operator and Theorem 6.6.

Theorem 6.6: for every ``k >= 2``, ``BALG^k + IFP`` is Turing complete.
The proof represents machine configurations as bags of 4-tuples
``[time, position, symbol, state]`` — the time and position indices are
*bags* of a fixed constant (so indices of unbounded size are available)
— and iterates a step formula with the inflationary fixpoint
``T(B) = phi(B) u B``.

This module provides all three ingredients, executably:

* :class:`Ifp` — an expression node computing the least fixpoint of
  ``B -> body(B) u B`` (maximal union keeps the iteration
  inflationary), pluggable into the ordinary evaluator;
* :func:`machine_step_expr` — the paper's step formula (a)-(c),
  generated from a concrete :class:`~repro.machines.tm.TuringMachine`:
  cells away from the head keep their symbol at the next time stamp,
  the head cell is rewritten, and the head moves with the new state;
* :func:`simulate_via_ifp` — end-to-end: encode the input, run the
  fixpoint, decode acceptance and the final tape, cross-checkable
  against the native simulator;
* :func:`transitive_closure_expr` — the bounded-fixpoint example the
  conclusion mentions (transitive closure in BALG^1 + fixpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.errors import BagTypeError, EvaluationError, IfpDivergenceError
from repro.core.expr import (
    AdditiveUnion, Attribute, Const, Dedup, Expr, Lam, Map, MaxUnion,
    Select, Subtraction, Tupling, Var, _as_expr,
)
from repro.core.ops import max_union
from repro.core.types import BagType, TupleType, Type, U, unify
from repro.machines.tm import TuringMachine
from repro.core.derived import project_expr, select_attr_eq_attr

__all__ = [
    "Ifp", "transitive_closure_expr", "TIME_ATOM", "NO_HEAD",
    "config_tuple", "initial_config_bag", "machine_step_expr",
    "simulate_via_ifp", "decode_final_configuration", "IfpRun",
]

#: The constant whose multiplicity encodes time and position indices
#: (the paper's ``a``).
TIME_ATOM = "a"

#: The marker meaning "the head is elsewhere" (the paper's special
#: constant, typeset as a lozenge).
NO_HEAD = "·"


class Ifp(Expr):
    """Inflationary fixpoint: least fixpoint of ``B -> body(B) u B``.

    ``param`` names the iteration variable inside ``body``; ``seed``
    provides the initial bag.  Iteration stops when a pass adds
    nothing; the iteration is *governed* — the evaluator's
    :class:`~repro.guard.ResourceGovernor` ``max_iterations`` (when
    set) and this node's own ``max_iterations`` both bound it, because
    the operator is Turing complete (Theorem 6.6) and genuinely
    diverging formulas are one expression away.  Non-convergence
    raises :class:`~repro.core.errors.IfpDivergenceError` carrying the
    iterations completed and the size of the last iterate.
    """

    __slots__ = ("param", "body", "seed", "max_iterations")

    def __init__(self, param: str, body: Expr, seed: Expr,
                 max_iterations: int = 10_000):
        if not isinstance(param, str) or not param:
            raise BagTypeError("IFP parameter must be a non-empty str")
        self.param = param
        self.body = _as_expr(body)
        self.seed = _as_expr(seed)
        self.max_iterations = max_iterations

    def children(self) -> Tuple[Expr, ...]:
        return (self.seed, self.body)

    def binders(self) -> Tuple[Optional[str], ...]:
        return (None, self.param)

    def free_vars(self) -> frozenset:
        return (self.seed.free_vars()
                | (self.body.free_vars() - {self.param}))

    def with_children(self, seed, body, binders=None):
        param = self.param if binders is None else binders[1]
        return Ifp(param, body, seed, self.max_iterations)

    def _evaluate(self, evaluator, env):
        current = evaluator.eval(self.seed, env)
        if not isinstance(current, Bag):
            raise BagTypeError("IFP seed must evaluate to a bag")
        governor = getattr(evaluator, "governor", None)
        stats = getattr(evaluator, "stats", None)
        limit = self.max_iterations
        if governor is not None and governor.max_iterations is not None:
            limit = min(limit, governor.max_iterations)
        for completed in range(limit):
            if governor is not None:
                governor.check_cancelled(stats)
            extended = evaluator.bind(env, self.param, current)
            step = evaluator.eval(self.body, extended)
            if not isinstance(step, Bag):
                raise BagTypeError("IFP body must evaluate to a bag")
            grown = max_union(current, step)
            if grown == current:
                return current
            current = grown
        raise IfpDivergenceError(
            f"IFP did not converge within {limit} iterations",
            stats=stats, budget="iterations", limit=limit,
            observed=limit, iterations=limit,
            last_cardinality=current.cardinality,
            last_distinct=current.distinct_count)

    def _infer(self, checker, tenv) -> Type:
        seed_type = checker.infer(self.seed, tenv)
        if not isinstance(seed_type, BagType):
            raise BagTypeError("IFP seed must have a bag type")
        body_type = checker.infer(
            self.body, checker.bind(tenv, self.param, seed_type))
        return unify(seed_type, body_type)

    def _key(self):
        return (self.param, self.body, self.seed)

    def __repr__(self) -> str:
        return f"IFP[{self.param}]({self.body!r}; seed={self.seed!r})"


def transitive_closure_expr(graph: Expr, param: str = "·X") -> Ifp:
    """Transitive closure of a binary relation via bounded fixpoint.

    The conclusion of Section 6 notes transitive closure is expressible
    in the extension of BALG^1 with bounded fixpoint; duplicate
    elimination after each join keeps every iterate a set, so the
    iteration is bounded by the squared domain.
    """
    hop = project_expr(
        select_attr_eq_attr(Var(param) * graph, 2, 3), 1, 4)
    body = Dedup(MaxUnion(Var(param), hop))
    return Ifp(param, body, Dedup(graph))


# ----------------------------------------------------------------------
# Theorem 6.6: machine configurations as bags
# ----------------------------------------------------------------------

def _index_bag(value: int) -> Bag:
    """An index (time or position) as a bag of TIME_ATOMs."""
    return Bag.single(TIME_ATOM, value) if value else EMPTY_BAG


def config_tuple(time: int, position: int, symbol: str,
                 state: str = NO_HEAD) -> Tup:
    """One cell of one configuration: ``[b_time, b_position, symbol,
    state-or-marker]``."""
    return Tup(_index_bag(time), _index_bag(position), symbol, state)


def initial_config_bag(machine: TuringMachine, word: Sequence[str],
                       tape_cells: int) -> Bag:
    """The time-0 layer: the input word on cells 1..len(word), blanks
    beyond, head on cell 1 in the initial state."""
    if tape_cells < max(len(word), 1):
        raise BagTypeError("tape_cells must cover the input word")
    tuples = []
    for position in range(1, tape_cells + 1):
        symbol = (word[position - 1] if position <= len(word)
                  else machine.blank)
        state = machine.initial_state if position == 1 else NO_HEAD
        tuples.append(config_tuple(0, position, symbol, state))
    return Bag(tuples)


def _latest_layer(config_var: str) -> Expr:
    """``sigma_{ no tuple one tick later }(X)``: the tuples of the most
    recent time stamp.  The inner selection binds the outer tuple ``u``
    lexically — exactly the nested-lambda pattern of Section 4."""
    one_tick_later = Select(
        Lam("·v", Attribute(Var("·v"), 1)),
        Lam("·v", AdditiveUnion(Attribute(Var("·u"), 1),
                                Const(Bag.of(TIME_ATOM)))),
        Var(config_var))
    return Select(Lam("·u", one_tick_later),
                  Lam("·u", Const(EMPTY_BAG)),
                  Var(config_var))


def _tick(expr: Expr) -> Expr:
    """``t (+) [[a]]``: advance a time/position index bag by one."""
    return AdditiveUnion(expr, Const(Bag.of(TIME_ATOM)))


def _untick(expr: Expr) -> Expr:
    """``t - [[a]]``: move a position index bag one step left."""
    return Subtraction(expr, Const(Bag.of(TIME_ATOM)))


def machine_step_expr(machine: TuringMachine,
                      config_var: str = "X") -> Expr:
    """The step formula of Theorem 6.6, as one algebra expression.

    For each instruction ``(q, s) -> (q2, s2, move)`` it emits, over
    the latest configuration layer:

    (b) the head cell rewritten: ``[t+1, j, s2, marker-or-q2]``;
    (c) the cell the head moves onto: ``[t+1, j', old symbol, q2]``
        (for L/R moves, found by joining the head tuple with the
        layer on ``position = j -+ 1``);
    (a) every other cell carried over unchanged: ``[t+1, i, x, y]``.

    The union over instructions is the ``M(B)`` of the proof; when no
    instruction applies (halting state) the expression is empty, so the
    surrounding IFP reaches its fixpoint.
    """
    layer = _latest_layer(config_var)
    per_rule: List[Expr] = []
    for (state, symbol), (new_state, new_symbol, move) in \
            sorted(machine.transitions.items()):
        head = Select(Lam("·h", Attribute(Var("·h"), 4)),
                      Lam("·h", Const(state)),
                      Select(Lam("·h", Attribute(Var("·h"), 3)),
                             Lam("·h", Const(symbol)),
                             layer))
        pairs = head * layer  # arity 8: head attrs 1-4, cell attrs 5-8

        if move == "S":
            rewritten = Map(
                Lam("·u", Tupling(_tick(Attribute(Var("·u"), 1)),
                                  Attribute(Var("·u"), 2),
                                  Const(new_symbol),
                                  Const(new_state))),
                head)
            unchanged_src = Select(
                Lam("·w", Attribute(Var("·w"), 6)),
                Lam("·w", Attribute(Var("·w"), 2)),
                pairs, op="ne")
            per_rule.extend([rewritten, _carry_over(unchanged_src)])
            continue

        target_pos = (_tick if move == "R" else _untick)(
            Attribute(Var("·w"), 2))
        # (b) the vacated head cell, rewritten and unmarked
        rewritten = Map(
            Lam("·u", Tupling(_tick(Attribute(Var("·u"), 1)),
                              Attribute(Var("·u"), 2),
                              Const(new_symbol),
                              Const(NO_HEAD))),
            head)
        # (c) the cell the head arrives at
        arrival_pairs = Select(Lam("·w", Attribute(Var("·w"), 6)),
                               Lam("·w", target_pos),
                               pairs)
        arrived = Map(
            Lam("·w", Tupling(_tick(Attribute(Var("·w"), 1)),
                              Attribute(Var("·w"), 6),
                              Attribute(Var("·w"), 7),
                              Const(new_state))),
            arrival_pairs)
        # (a) all other cells carried over
        unchanged_src = Select(
            Lam("·w", Attribute(Var("·w"), 6)),
            Lam("·w", target_pos),
            Select(Lam("·w", Attribute(Var("·w"), 6)),
                   Lam("·w", Attribute(Var("·w"), 2)),
                   pairs, op="ne"),
            op="ne")
        per_rule.extend([rewritten, arrived, _carry_over(unchanged_src)])

    if not per_rule:
        return Const(EMPTY_BAG)
    step = per_rule[0]
    for piece in per_rule[1:]:
        step = MaxUnion(step, piece)
    return step


def _carry_over(pairs: Expr) -> Expr:
    """Re-stamp a (head x cell) pair's cell at the next time."""
    return Map(
        Lam("·w", Tupling(_tick(Attribute(Var("·w"), 1)),
                          Attribute(Var("·w"), 6),
                          Attribute(Var("·w"), 7),
                          Attribute(Var("·w"), 8))),
        pairs)


#: The type of a configuration bag (bag nesting 2, as Theorem 6.6
#: requires for BALG^2 + IFP).
CONFIG_TYPE = BagType(TupleType((BagType(U), BagType(U), U, U)))


@dataclass
class IfpRun:
    """Outcome of an algebra-driven machine run."""

    accepted: bool
    steps: int
    final_state: str
    final_tape: Tuple[str, ...]
    configurations: Bag


def simulate_via_ifp(machine: TuringMachine, word: Sequence[str],
                     max_steps: int = 50,
                     tape_cells: Optional[int] = None,
                     governor=None) -> IfpRun:
    """Run a Turing machine entirely inside the algebra (Theorem 6.6).

    Builds the initial configuration bag, closes it under the step
    formula with :class:`Ifp`, and decodes the final layer.  An
    optional :class:`~repro.guard.ResourceGovernor` bounds the run —
    the simulated machine may, after all, not halt.
    """
    from repro.core.eval import Evaluator

    cells = tape_cells if tape_cells is not None else (
        len(word) + max_steps + 1)
    seed = initial_config_bag(machine, word, cells)
    fixpoint = Ifp("X", MaxUnion(Var("X"), machine_step_expr(machine, "X")),
                   Const(seed), max_iterations=max_steps + 2)
    configurations = Evaluator(governor=governor).run(fixpoint)
    steps, state, tape = decode_final_configuration(configurations, cells)
    return IfpRun(
        accepted=state == machine.accept_state,
        steps=steps,
        final_state=state,
        final_tape=tape,
        configurations=configurations,
    )


def decode_final_configuration(
        configurations: Bag,
        tape_cells: int) -> Tuple[int, str, Tuple[str, ...]]:
    """Extract (final time, state, tape) from a configuration bag."""
    latest = -1
    for entry in configurations.distinct():
        latest = max(latest, entry.attribute(1).cardinality)
    if latest < 0:
        raise EvaluationError("empty configuration bag")
    tape: List[Optional[str]] = [None] * tape_cells
    state = NO_HEAD
    for entry in configurations.distinct():
        if entry.attribute(1).cardinality != latest:
            continue
        position = entry.attribute(2).cardinality
        tape[position - 1] = entry.attribute(3)
        if entry.attribute(4) != NO_HEAD:
            state = entry.attribute(4)
    if any(symbol is None for symbol in tape):
        raise EvaluationError(
            "final configuration layer is missing tape cells")
    return latest, state, tuple(tape)  # type: ignore[return-value]
