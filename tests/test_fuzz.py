"""Differential fuzzing: independent components of the library are run
against each other on randomly generated well-typed expressions.

These tests are the strongest correctness evidence in the suite: the
evaluator, the symbolic counting analysis, the optimizer, the
parser/printer, the set-semantics baseline, and the type checker were
written independently, so agreement on thousands of random programs is
meaningful.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.complexity.polynomials import analyze, single_constant_input
from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError, ReproError
from repro.core.eval import Evaluator, evaluate
from repro.core.expr import Dedup, Subtraction
from repro.core.typecheck import infer_type
from repro.core.types import element_arity, flat_bag_type
from repro.guard import Limits, ResourceGovernor
from repro import planner
from repro.planner import (
    ALL_RULES, FixpointRewriter, PassConfig, PlanContext,
)
from repro.planner.rewrites import product_pushdown_rule
from repro.relational import supports_agree
from repro.surface import parse, to_text
from repro.testkit import Harness
from tests.strategies import balg1_exprs, input_bags
from tests.strategies import testkit_cases as _cases

SCHEMA = {"B": flat_bag_type(2)}
FUZZ_SETTINGS = dict(max_examples=120, deadline=None)
_HARNESS = Harness()


class TestEvaluatorVsAnalysis:
    """Prop 4.1's claim, fuzzed: on the single-constant inputs B_n the
    symbolic polynomials predict the evaluator exactly."""

    @given(balg1_exprs(arity=1, input_arity=1, include_order=True))
    @settings(**FUZZ_SETTINGS)
    def test_polynomials_predict_multiplicities(self, expr):
        analysis = analyze(expr)
        for offset in (1, 2):
            n = analysis.threshold + offset
            result = evaluate(expr, B=single_constant_input(n))
            support = set(result.distinct()) | analysis.support()
            for candidate in support:
                assert result.multiplicity(candidate) == \
                    analysis.polynomial_for(candidate)(n)

    @given(balg1_exprs(arity=1, input_arity=1, include_dedup=False,
                       allow_input_atom=False))
    @settings(**FUZZ_SETTINGS)
    def test_claim_invariant_on_dedup_free_fragment(self, expr):
        assert analyze(expr).verify_claim_invariant()


def _left_arity(operand):
    """The product-pushdown rule's arity oracle over ``SCHEMA``."""
    try:
        return element_arity(infer_type(operand, SCHEMA))
    except BagTypeError:
        return None


def _rewritten(expr, schema=SCHEMA):
    """The planner's level-2 logical tree: a fixpoint of the whole rule
    set, the schema's product pushdown included."""
    return planner.compile(
        expr, PlanContext(engine="tree", schema=schema,
                          config=PassConfig.for_level(2))).logical


class TestOptimizerSoundness:
    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_rewrites_preserve_semantics(self, expr, bag):
        optimized = _rewritten(expr)
        assert evaluate(optimized, B=bag) == evaluate(expr, B=bag)

    @given(balg1_exprs())
    @settings(**FUZZ_SETTINGS)
    def test_optimizer_reaches_fixpoint(self, expr):
        once = _rewritten(expr)
        # A fold can leave an empty literal whose element type the
        # schema check cannot infer (alpha_1 over it is rejected), so
        # the second pass runs the rule set directly, the schema's
        # product pushdown brought in as a rule.
        again = FixpointRewriter(
            ALL_RULES + (product_pushdown_rule(_left_arity),)
        ).rewrite(once)
        assert again == once


class TestPrinterRoundTrip:
    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_parse_print_semantics(self, expr, bag):
        reparsed = parse(to_text(expr))
        assert evaluate(reparsed, B=bag) == evaluate(expr, B=bag)


class TestTypeSoundness:
    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_results_inhabit_inferred_types(self, expr, bag):
        inferred = infer_type(expr, SCHEMA)
        result = evaluate(expr, B=bag)
        assert inferred.accepts(result)

    @given(balg1_exprs())
    @settings(**FUZZ_SETTINGS)
    def test_generated_expressions_stay_in_balg1(self, expr):
        from repro.core.fragments import in_balg
        assert in_balg(expr, 1, SCHEMA)


class TestProposition42Fuzzed:
    @given(balg1_exprs(include_subtraction=False), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_supports_agree_without_subtraction(self, expr, bag):
        assert supports_agree(expr, {"B": bag})


class TestGenericityFuzzed:
    """Section 2: queries are generic — renaming atoms that do not
    occur in the expression commutes with evaluation."""

    @given(balg1_exprs(allow_input_atom=False), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_fresh_atom_renaming_commutes(self, expr, bag):
        from repro.core.database import apply_renaming
        # rename 'a' (never used inside these expressions) to a fresh
        # atom; constants 'b','c' may appear in expr so stay put
        mapping = {"a": "fresh-a"}
        direct = apply_renaming(evaluate(expr, B=bag), mapping)
        renamed = evaluate(expr, B=apply_renaming(bag, mapping))
        assert direct == renamed


class TestGovernedEvaluationFuzzed:
    """The governor's contract, fuzzed: under arbitrary (tight or
    generous) limits, governed evaluation either succeeds with the
    exact ungoverned result or fails *inside* the ``ReproError``
    hierarchy — never with a bare RecursionError/MemoryError — and the
    recorded intermediates never exceed the declared size budget."""

    @given(balg1_exprs(include_order=True), input_bags(),
           st.integers(1, 2_000), st.integers(1, 20_000))
    @settings(**FUZZ_SETTINGS)
    def test_failures_stay_structured(self, expr, bag, max_steps,
                                      max_size):
        evaluator = Evaluator(governor=ResourceGovernor(
            Limits(max_steps=max_steps, max_size=max_size,
                   powerset_budget=1 << 16, max_depth=200)))
        try:
            result = evaluator.run(expr, B=bag)
        except ReproError as error:
            assert getattr(error, "stats", None) is not None
        else:
            assert result == evaluate(expr, B=bag)
        # size-budget invariant: nothing larger than max_size was ever
        # recorded, success or failure
        assert evaluator.stats.peak_encoding_size <= max_size

    @given(balg1_exprs(include_order=True), input_bags())
    @settings(**FUZZ_SETTINGS)
    def test_generous_limits_are_transparent(self, expr, bag):
        governed = Evaluator(governor=ResourceGovernor(
            Limits(max_steps=1 << 30, max_size=1 << 30,
                   timeout=3600.0))).run(expr, B=bag)
        assert governed == evaluate(expr, B=bag)


class TestNestedDifferentialFuzzed:
    """The testkit's nested multi-relation cases, driven from
    Hypothesis: the full differential matrix (oracle, cold and warm
    engine, optimizer, printer round trip, SQL where expressible) plus
    the metamorphic law catalogue must agree on every generated case."""

    @given(_cases())
    @settings(max_examples=40, deadline=None)
    def test_differential_matrix_agrees(self, case):
        report = _HARNESS.run_case(case)
        details = "; ".join(m.describe() for m in report.mismatches)
        assert report.ok, details

    @given(_cases(fragment="balg3", size=10))
    @settings(max_examples=25, deadline=None)
    def test_nested_fragments_stay_in_bounds(self, case):
        from repro.core.fragments import max_bag_nesting
        assert max_bag_nesting(case.expr, case.schema) <= 3
        assert infer_type(case.expr, case.schema).accepts(
            Evaluator().run(case.expr, case.database))
