"""Tests for the Turing machine substrate, the IFP operator, and the
computation encodings (Theorems 6.1 / 6.6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.errors import BagTypeError, EvaluationError
from repro.core.eval import evaluate
from repro.core.expr import Const, MaxUnion, Var, var
from repro.core.fragments import max_bag_nesting
from repro.machines import (
    CONFIG_TYPE, Ifp, NO_HEAD, TuringMachine, computation_bag,
    config_tuple, initial_config_bag, is_legal_accepting_computation,
    last_symbol_machine, layer, machine_step_expr, max_time,
    parity_machine, phi1_initial, phi2_moves, phi3_accepting,
    run_machine, simulate_via_ifp, transitive_closure_expr,
    unary_doubler,
)


class TestTuringMachine:
    def test_parity_machine(self):
        machine = parity_machine()
        for n in range(6):
            result = run_machine(machine, ["1"] * n)
            assert result.halted
            assert result.accepted == (n % 2 == 0)

    def test_doubler_rewrites_tape(self):
        result = run_machine(unary_doubler(), ["1", "1", "1"],
                             keep_trace=True)
        assert result.accepted
        assert result.final.tape[:3] == ("2", "2", "2")
        assert len(result.trace) == result.steps + 1

    def test_last_symbol(self):
        machine = last_symbol_machine()
        assert run_machine(machine, ["a", "b"]).accepted
        assert not run_machine(machine, ["b", "a"]).accepted
        assert not run_machine(machine, []).accepted

    def test_step_budget(self):
        result = run_machine(parity_machine(), ["1"] * 10, max_steps=3)
        assert not result.halted

    def test_invalid_input_symbol(self):
        with pytest.raises(EvaluationError):
            run_machine(parity_machine(), ["x"])

    def test_invalid_transition_rejected(self):
        with pytest.raises(EvaluationError):
            TuringMachine(
                states=("q", "accept", "reject"),
                alphabet=("1", "_"),
                transitions={("q", "1"): ("ghost", "1", "R")},
                initial_state="q", accept_state="accept",
                reject_state="reject")

    def test_invalid_move_rejected(self):
        with pytest.raises(EvaluationError):
            TuringMachine(
                states=("q", "accept", "reject"),
                alphabet=("1", "_"),
                transitions={("q", "1"): ("q", "1", "X")},
                initial_state="q", accept_state="accept",
                reject_state="reject")


class TestIfpOperator:
    def test_simple_closure(self):
        # IFP over "add element b once a is present" style body
        seed = Bag.of(Tup("a"))
        body = MaxUnion(Var("X"), Const(Bag.of(Tup("b"))))
        result = evaluate(Ifp("X", body, Const(seed)))
        assert result == Bag.of(Tup("a"), Tup("b"))

    def test_divergence_guard(self):
        # a body that keeps adding duplicates forever (additive union
        # grows multiplicities without bound)
        from repro.core.expr import AdditiveUnion
        body = AdditiveUnion(Var("X"), Var("X"))
        with pytest.raises(EvaluationError):
            evaluate(Ifp("X", body, Const(Bag.of(Tup("a"))),
                         max_iterations=5))

    def test_seed_must_be_bag(self):
        with pytest.raises(BagTypeError):
            evaluate(Ifp("X", Var("X"), Const("atom")))

    def test_type_inference(self):
        from repro.core.typecheck import infer_type
        from repro.core.types import flat_bag_type
        expr = transitive_closure_expr(var("G"))
        assert infer_type(expr, G=flat_bag_type(2)) == flat_bag_type(2)

    def test_transitive_closure_chain(self):
        graph = Bag.of(Tup(1, 2), Tup(2, 3), Tup(3, 4))
        closure = evaluate(transitive_closure_expr(var("G")), G=graph)
        expected = {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
        assert {(t.attribute(1), t.attribute(2))
                for t in closure.distinct()} == expected
        assert closure.is_set()

    def test_transitive_closure_cycle(self):
        graph = Bag.of(Tup(1, 2), Tup(2, 1))
        closure = evaluate(transitive_closure_expr(var("G")), G=graph)
        assert {(t.attribute(1), t.attribute(2))
                for t in closure.distinct()} == {
                    (1, 2), (2, 1), (1, 1), (2, 2)}

    @pytest.mark.parametrize("edges", [
        [(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 1)], []])
    def test_transitive_closure_at_opt2(self, edges):
        from repro.engine import evaluate as engine_evaluate
        graph = Bag([Tup(a, b) for a, b in edges])
        expr = transitive_closure_expr(var("G"))
        assert engine_evaluate(expr, {"G": graph}, engine="physical",
                               opt_level=2, cache=None) == evaluate(
            expr, G=graph)

    def test_transitive_closure_of_empty(self):
        assert evaluate(transitive_closure_expr(var("G")),
                        G=EMPTY_BAG) == EMPTY_BAG

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_transitive_closure_matches_networkx_style(self, edges):
        graph = Bag([Tup(a, b) for a, b in edges])
        closure = evaluate(transitive_closure_expr(var("G")), G=graph)
        # reference: iterative closure over python sets
        reachable = set(edges)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(reachable):
                for (c, d) in list(reachable):
                    if b == c and (a, d) not in reachable:
                        reachable.add((a, d))
                        changed = True
        assert {(t.attribute(1), t.attribute(2))
                for t in closure.distinct()} == reachable


class TestTheorem66Simulation:
    """The algebra-driven Turing machine (IFP) agrees with the native
    simulator on acceptance, step count, and final tape."""

    @pytest.mark.parametrize("word", ["", "1", "11", "111"])
    def test_parity(self, word):
        machine = parity_machine()
        cells = len(word) + 2
        native = run_machine(machine, list(word), tape_cells=cells)
        algebra = simulate_via_ifp(machine, list(word),
                                   max_steps=len(word) + 2,
                                   tape_cells=cells)
        assert algebra.accepted == native.accepted
        assert algebra.steps == native.steps
        assert algebra.final_tape == native.final.tape

    @pytest.mark.parametrize("machine, word", [
        (parity_machine(), ["1"]), (unary_doubler(), ["1"]),
        (last_symbol_machine(), ["b", "a"])],
        ids=["parity", "doubler", "last-symbol"])
    def test_engines_at_opt2_agree_with_the_walker(self, machine, word):
        """The rule fixpoint now rewrites inside an IFP's seed and
        body; the machine's fixpoint still answers as the walker."""
        from repro.core.eval import Evaluator
        from repro.engine import evaluate as engine_evaluate
        seed = initial_config_bag(machine, word, len(word) + 2)
        fixpoint = Ifp("X", MaxUnion(Var("X"),
                                     machine_step_expr(machine, "X")),
                       Const(seed), max_iterations=len(word) + 4)
        expected = Evaluator().run(fixpoint)
        assert engine_evaluate(fixpoint, {}, engine="physical",
                               opt_level=2, cache=None) == expected

    def test_doubler_tape(self):
        algebra = simulate_via_ifp(unary_doubler(), ["1", "1"],
                                   max_steps=4, tape_cells=4)
        assert algebra.accepted
        assert algebra.final_tape[:2] == ("2", "2")

    @pytest.mark.parametrize("word,expected", [
        (["a", "b"], True), (["b", "a"], False), (["b", "b"], True),
    ])
    def test_left_moves(self, word, expected):
        algebra = simulate_via_ifp(last_symbol_machine(), word,
                                   max_steps=6, tape_cells=5)
        assert algebra.accepted == expected

    def test_config_bag_stays_in_nesting_two(self):
        """Theorem 6.6 needs only BALG^2 + IFP: the configuration type
        has bag nesting 2 and the step formula stays within it."""
        machine = parity_machine()
        expr = machine_step_expr(machine, "X")
        assert max_bag_nesting(expr, X=CONFIG_TYPE) == 2

    def test_initial_config(self):
        machine = parity_machine()
        seed = initial_config_bag(machine, ["1"], 3)
        assert seed.cardinality == 3
        heads = [t for t in seed.distinct() if t.attribute(4) != NO_HEAD]
        assert len(heads) == 1
        assert heads[0].attribute(4) == "even"
        assert heads[0].attribute(2).cardinality == 1


class TestTheorem61Encoding:
    def test_genuine_computation_passes_all_selections(self):
        machine = parity_machine()
        word = ["1", "1"]
        computation = computation_bag(machine, word, max_steps=5,
                                      tape_cells=4)
        assert phi1_initial(machine, computation, word)
        assert phi2_moves(machine, computation)
        assert phi3_accepting(machine, computation)
        assert is_legal_accepting_computation(machine, computation, word)

    def test_rejecting_run_fails_phi3_only(self):
        machine = parity_machine()
        word = ["1"]
        computation = computation_bag(machine, word, max_steps=5,
                                      tape_cells=3)
        assert phi1_initial(machine, computation, word)
        assert phi2_moves(machine, computation)
        assert not phi3_accepting(machine, computation)

    def test_wrong_input_fails_phi1(self):
        machine = parity_machine()
        computation = computation_bag(machine, ["1", "1"], max_steps=5,
                                      tape_cells=4)
        assert not phi1_initial(machine, computation, ["1"])

    def test_mutated_cell_fails_phi2(self):
        machine = parity_machine()
        word = ["1", "1"]
        computation = computation_bag(machine, word, max_steps=5,
                                      tape_cells=4)
        # forge the symbol of one mid-computation cell
        victim = next(t for t in computation.distinct()
                      if t.attribute(1).cardinality == 1
                      and t.attribute(2).cardinality == 2)
        forged = Tup(victim.attribute(1), victim.attribute(2),
                     "_" if victim.attribute(3) == "1" else "1",
                     victim.attribute(4))
        mutated = Bag([t for t in computation.distinct()
                       if t != victim] + [forged])
        assert not phi2_moves(machine, mutated)
        assert not is_legal_accepting_computation(machine, mutated, word)

    def test_missing_layer_fails(self):
        machine = parity_machine()
        word = ["1", "1"]
        computation = computation_bag(machine, word, max_steps=5,
                                      tape_cells=4)
        pruned = Bag([t for t in computation.distinct()
                      if t.attribute(1).cardinality != 1])
        assert not is_legal_accepting_computation(machine, pruned, word)

    def test_forged_accept_state_fails_phi2(self):
        machine = parity_machine()
        word = ["1"]
        computation = computation_bag(machine, word, max_steps=5,
                                      tape_cells=3)
        horizon = max_time(computation)
        forged_cells = []
        for entry in computation.distinct():
            if (entry.attribute(1).cardinality == horizon
                    and entry.attribute(4) != NO_HEAD):
                forged_cells.append(Tup(entry.attribute(1),
                                        entry.attribute(2),
                                        entry.attribute(3),
                                        machine.accept_state))
            else:
                forged_cells.append(entry)
        forged = Bag(forged_cells)
        assert phi3_accepting(machine, forged)
        assert not phi2_moves(machine, forged)

    def test_layer_helpers(self):
        machine = parity_machine()
        computation = computation_bag(machine, ["1"], max_steps=3,
                                      tape_cells=3)
        assert max_time(computation) == run_machine(
            machine, ["1"], tape_cells=3).steps
        first = layer(computation, 0)
        assert [cell.attribute(2).cardinality for cell in first] == \
            [1, 2, 3]

    def test_empty_and_duplicated_bags_rejected(self):
        machine = parity_machine()
        assert not is_legal_accepting_computation(machine, Bag(), [])
        genuine = computation_bag(machine, [], max_steps=2,
                                  tape_cells=2)
        duplicated = Bag.from_counts(
            {entry: 2 for entry in genuine.distinct()})
        assert not is_legal_accepting_computation(machine, duplicated,
                                                  [])


class TestBinarySuccessor:
    """The binary-successor machine: carry-chain rewriting, validated
    natively and through the Theorem 6.6 simulation."""

    @pytest.mark.parametrize("value", [0, 1, 2, 3, 5, 7, 12])
    def test_increments(self, value):
        from repro.machines import binary_successor
        machine = binary_successor()
        bits = [str((value >> i) & 1) for i in range(max(1, value.bit_length()))]
        result = run_machine(machine, bits, tape_cells=len(bits) + 2)
        assert result.accepted
        successor = 0
        for position, symbol in enumerate(result.final.tape):
            if symbol == "1":
                successor |= 1 << position
        assert successor == value + 1

    @pytest.mark.parametrize("value", [0, 3, 5])
    def test_ifp_simulation_matches(self, value):
        from repro.machines import binary_successor
        machine = binary_successor()
        bits = [str((value >> i) & 1) for i in range(max(1, value.bit_length()))]
        cells = len(bits) + 2
        native = run_machine(machine, bits, tape_cells=cells)
        algebra = simulate_via_ifp(machine, bits,
                                   max_steps=len(bits) + 2,
                                   tape_cells=cells)
        assert algebra.final_tape == native.final.tape
        assert algebra.steps == native.steps

    def test_computation_bag_checkers(self):
        from repro.machines import binary_successor
        machine = binary_successor()
        word = ["1", "1"]
        computation = computation_bag(machine, word, max_steps=4,
                                      tape_cells=4)
        assert is_legal_accepting_computation(machine, computation, word)


class TestLiteralTheorem61:
    """The construction run literally: enumerate the powerset of a
    (tiny) candidate space and select with phi1^phi2^phi3."""

    def test_unique_survivor_on_accepting_input(self):
        from repro.machines.encode import (
            candidate_space, select_legal_computations,
        )
        machine = parity_machine()
        restricted = dict(symbols=["_"], states=["even", "accept", NO_HEAD])
        space = candidate_space(machine, [], 1, 1, **restricted)
        assert len(space) == 6  # 2 times x 1 cell x 1 symbol x 3 states
        survivors = select_legal_computations(machine, [], 1, 1,
                                              **restricted)
        genuine = computation_bag(machine, [], max_steps=1,
                                  tape_cells=1)
        assert survivors == [genuine]

    def test_no_survivor_without_accepting_tuples(self):
        from repro.machines.encode import select_legal_computations
        machine = parity_machine()
        # a candidate space with no accept-state tuples cannot contain
        # an accepting computation: the selection keeps nothing
        survivors = select_legal_computations(
            machine, [], 1, 1,
            symbols=["_"], states=["even", "reject", NO_HEAD])
        assert survivors == []

    def test_budget_guard(self):
        from repro.core.errors import EvaluationError
        from repro.machines.encode import select_legal_computations
        machine = parity_machine()
        with pytest.raises(EvaluationError):
            select_legal_computations(machine, [], 3, 3, budget=100)
