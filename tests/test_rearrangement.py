"""Projections as index plans (``engine/lower.py``'s recogniser, the
``itemgetter`` closure, the fused join-project step).

* the recogniser: what is a rearrangement, what stays on the closure
  path, and that an index below 1 — which ``itemgetter(i - 1)`` would
  silently wrap around — never reaches it;
* error parity: every typed error of a projection keeps its subtype
  and text on every engine, fused and unfused shapes alike, and an
  empty join under an out-of-range pick raises nowhere;
* ``explain`` shows which maps took the index path;
* the generated sweep of ``tests/rearrangement_sweep.py`` at its fixed
  seed.
"""

from __future__ import annotations

import pytest

from repro.core.bag import Bag, Tup
from repro.core.derived import project_expr
from repro.core.errors import BagTypeError
from repro.core.expr import (
    Attribute, Bagging, Cartesian, Const, Dedup, Lam, Map, Select,
    Tupling, Var, var,
)
from repro.engine import evaluate, explain_physical, plan_for
from repro.engine.lower import (
    _compile_body, compile_object_lambda, rearrangement_picks,
)
from tests import rearrangement_sweep

_T = Var("t")


def _lam(*parts):
    return Lam("t", Tupling(*parts))


def _unchecked_attribute(operand, index):
    """An ``Attribute`` node that skipped its constructor's index
    check — a decoded or hand-assembled tree could hold one."""
    node = Attribute.__new__(Attribute)
    node.operand, node.index = operand, index
    return node


# ----------------------------------------------------------------------
# The recogniser
# ----------------------------------------------------------------------

class TestRecogniser:
    @pytest.mark.parametrize("picks", [(1,), (2, 1), (4, 4, 1),
                                       (1, 2, 3, 4, 5)])
    def test_rearrangements(self, picks):
        assert rearrangement_picks(project_expr(var("R"), *picks).lam) \
            == picks

    @pytest.mark.parametrize("lam", [
        _lam(Attribute(_T, 1), Const("c")),               # a constant
        _lam(Attribute(Attribute(_T, 1), 2)),             # nested alpha
        _lam(Attribute(_T, 1), Attribute(Var("u"), 2)),   # foreign var
        _lam(Attribute(_T, 1), _T),                       # the row itself
        _lam(),                                           # the empty tuple
        Lam("t", Attribute(_T, 1)),                       # no tupling
        Lam("t", Bagging(_lam(Attribute(_T, 1)).body)),
    ], ids=["constant", "nested", "foreign-variable", "whole-row",
            "empty", "bare-attribute", "bagging"])
    def test_everything_else_stays_on_the_closure_path(self, lam):
        assert rearrangement_picks(lam) is None
        row = Tup(Tup("a", "b"), "c")
        compiled, generic = (compile_object_lambda(lam),
                             _compile_body(lam.body, lam.param))
        if generic is None:  # a free variable: the evaluator applies it
            assert compiled is None
        else:
            assert compiled(row) == generic(row)

    @pytest.mark.parametrize("index", [0, -1, 1.0, "1", None])
    def test_an_index_that_is_not_a_positive_int_is_refused(self, index):
        # the constructor says no ...
        with pytest.raises(BagTypeError,
                           match="attribute index must be a positive "
                                 "int, got"):
            Attribute(_T, index)
        # ... and a node that got past it is not a rearrangement
        lam = _lam(Attribute(_T, 2), _unchecked_attribute(_T, index))
        assert rearrangement_picks(lam) is None

    def test_index_zero_raises_instead_of_picking_the_last_attribute(self):
        # itemgetter(0 - 1) would answer Tup("b")
        fn = compile_object_lambda(_lam(_unchecked_attribute(_T, 0)))
        with pytest.raises(BagTypeError,
                           match="attribute index 0 out of range for "
                                 "arity 2"):
            fn(Tup("a", "b"))

    def test_the_index_plan_agrees_with_the_generic_closure(self):
        lam = _lam(Attribute(_T, 3), Attribute(_T, 3), Attribute(_T, 1))
        fast, generic = (compile_object_lambda(lam),
                         _compile_body(lam.body, lam.param))
        row = Tup("a", Bag(["x", "x"]), "c")
        assert fast(row) == generic(row) == Tup("c", "c", "a")
        assert type(fast(row)) is Tup

    def test_a_tup_subclass_falls_back_to_the_generic_closure(self):
        class Row(Tup):
            __slots__ = ()

        fast = compile_object_lambda(_lam(Attribute(_T, 2)))
        assert fast(Row("a", "b")) == Tup("b")


# ----------------------------------------------------------------------
# Error parity, engine by engine
# ----------------------------------------------------------------------

_ENGINES = {"tree": dict(engine="tree"), **rearrangement_sweep.ENGINES}

_L = Bag([Tup(i % 3, i % 5) for i in range(12)])
_R = Bag([Tup(i % 5, i % 4) for i in range(12)])
_DB = {
    "L": _L, "R": _R,
    "K": Bag([Tup(i % 4) for i in range(9)]),          # unary rows
    "N": Bag([1, 2, 2, 3]),                            # atoms
    "E": Bag([Tup(90 + i, i) for i in range(6)]),      # joins nothing
    "Z": Bag(),
}
_JOIN = Select(Lam("t", Attribute(_T, 2)), Lam("t", Attribute(_T, 3)),
               Cartesian(var("L"), var("R")))
_EMPTY_JOIN = Select(Lam("t", Attribute(_T, 2)),
                     Lam("t", Attribute(_T, 3)),
                     Cartesian(var("L"), var("E")))

#: name -> (expression, whether the default plan fuses it, the error)
_REJECTED = {
    "pi15-join": (
        project_expr(_JOIN, 1, 5), True,
        "attribute index 5 out of range for arity 4"),
    "pi15-product": (
        project_expr(Cartesian(var("L"), var("R")), 1, 5), True,
        "attribute index 5 out of range for arity 4"),
    "pi15-dedup-join": (
        project_expr(Dedup(_JOIN), 1, 5), False,
        "attribute index 5 out of range for arity 4"),
    "pi3-binary-rows": (
        project_expr(var("L"), 3), False,
        "attribute index 3 out of range for arity 2"),
    "pi3-binary-product": (
        project_expr(Cartesian(var("K"), var("K")), 3), True,
        "attribute index 3 out of range for arity 2"),
    "pi1-atoms": (
        project_expr(var("N"), 1), False,
        "attribute projection expects a tuple, got int"),
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_a_rejected_projection_keeps_its_error(name, engine):
    expr, fuses, message = _REJECTED[name]
    assert rearrangement_sweep.is_fused(expr, _DB) is fuses
    with pytest.raises(BagTypeError) as info:
        evaluate(expr, _DB, cache=None, **_ENGINES[engine])
    assert type(info.value) is BagTypeError
    assert str(info.value) == message


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("expr", [
    project_expr(_EMPTY_JOIN, 1, 5),
    project_expr(Cartesian(var("L"), var("Z")), 1, 5),
    project_expr(Dedup(_EMPTY_JOIN), 1, 5),
], ids=["join", "product", "dedup-join"])
def test_an_empty_join_under_a_bad_pick_raises_nowhere(expr, engine):
    assert evaluate(expr, _DB, cache=None, **_ENGINES[engine]) == Bag()


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------

def test_explain_shows_the_picks_and_the_fused_step():
    text = explain_physical(project_expr(_JOIN, 1, 4), _DB)
    assert "StreamingMap  kernel=map" in text and "π[1,4]" in text
    assert "kernels=[scan, scan, hash-join, map]" in text
    plan = plan_for(project_expr(_JOIN, 1, 4), _DB)
    listing = plan.root_segment.source
    assert "_col.c_hash_join(" in listing
    assert "picks=(1, 4)) # hash-join + map" in listing
    assert "c_map" not in listing and ".concat(" not in listing
    # a map that is not a rearrangement says nothing
    text = explain_physical(
        Map(_lam(Attribute(_T, 1), Const("c")), var("L")), _DB)
    assert "π[" not in text


# ----------------------------------------------------------------------
# The generated sweep
# ----------------------------------------------------------------------

def test_fixed_seed_sweep():
    problems = rearrangement_sweep.sweep(rearrangement_sweep.SEED,
                                         rearrangement_sweep.CASES)
    assert not problems, problems[:5]
