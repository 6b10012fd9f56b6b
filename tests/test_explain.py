"""Tests for the logical plan explainer (repro.planner.report.explain)."""

from __future__ import annotations

from repro.core.bag import Bag, Tup
from repro.core.derived import select_attr_eq_const
from repro.core.expr import Const, Lam, Map, Tupling, var
from repro.core.types import flat_bag_type
from repro.planner import explain, stats_of

SCHEMA = {"A": flat_bag_type(2), "B": flat_bag_type(1)}


def _statistics():
    a = Bag([Tup(str(i), "x") for i in range(4)])
    b = Bag([Tup(str(i)) for i in range(3)])
    return {"A": stats_of(a), "B": stats_of(b)}


def _lines(expr, schema=SCHEMA, statistics=None):
    return explain(expr, schema, statistics).splitlines()


class TestPlanTree:
    def test_tree_shape(self):
        lines = _lines(var("A") * var("B"), statistics=_statistics())
        assert len(lines) == 3
        assert lines[1].startswith("  Var A")
        assert lines[2].startswith("  Var B")

    def test_types_annotated(self):
        root = _lines(var("A") * var("B"))[0]
        assert "{{[U, U, U]}}" in root

    def test_estimates_annotated(self):
        root = _lines(var("A") * var("B"), statistics=_statistics())[0]
        assert "est card 12" in root

    def test_lambda_bodies_not_plan_children(self):
        query = Map(Lam("t", Tupling(Const("k"))), var("A"))
        lines = _lines(query, statistics=_statistics())
        assert len(lines) == 2  # only the operand
        assert lines[1].startswith("  Var A")

    def test_untypeable_expression_still_renders(self):
        # Cartesian of non-tuple bags fails typing; the plan falls back
        # to the bare operator tree
        from repro.core.types import BagType, U
        root = _lines(var("A") * var("B"),
                      {"A": BagType(U), "B": BagType(U)})[0]
        assert root == "Cartesian"

    def test_missing_statistics_ok(self):
        assert "est card" not in explain(var("A"), SCHEMA, None)


class TestExplainText:
    def test_rendered_indentation(self):
        text = explain(select_attr_eq_const(var("A") * var("B"),
                                            1, "0"),
                       SCHEMA, _statistics())
        lines = text.splitlines()
        assert lines[0].startswith("Select")
        assert lines[1].startswith("  Cartesian")
        assert lines[2].startswith("    Var A")

    def test_selectivity_parameter(self):
        query = select_attr_eq_const(var("A"), 1, "0")
        half = explain(query, SCHEMA, _statistics(), selectivity=0.5)
        tenth = explain(query, SCHEMA, _statistics(), selectivity=0.1)
        assert half != tenth


class TestCliExplain:
    def test_explain_command(self):
        import io
        from repro.cli import Session
        out = io.StringIO()
        session = Session(out=out)
        session.handle("B = {{['a','b'], ['a','b']}}")
        session.handle(":explain pi[1](B)")
        text = out.getvalue()
        assert "Map" in text
        assert "Var B" in text
        assert "est card" in text
