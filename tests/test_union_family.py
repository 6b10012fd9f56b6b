"""The union family over bags of different types: every engine raises
the tree walker's ``BagTypeError`` exactly where the walker does.

* the pinned texts, flat and nested, of the walker's error — and the
  same subtype and text from every engine, including the shapes whose
  result no longer holds the evidence (``(X (+) Z) - Z``);
* the step check is O(1): it reads one row per side unless that row
  holds an empty inner bag;
* an ill-typed union is never split across an exchange, so two inputs
  whose rows would hash to disjoint shards are checked whole (no shard
  sees both types);
* the generated sweep (:mod:`tests.union_family_sweep`).
"""

from __future__ import annotations

import pytest

import repro.engine.columnar as columnar
from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError
from repro.core.expr import (
    AdditiveUnion, Intersection, MaxUnion, Subtraction, var,
)
from repro.engine import evaluate, plan_for
from repro.engine.parallel.partition import ParallelPolicy, split_counts
from tests import union_family_sweep
from tests.union_family_sweep import ENGINES

X = Bag([Tup(1, 2), Tup(3, 4)])
Y = Bag([Tup(1)])
Z = Bag([Tup(1, 2, 3)])
#: a mismatch behind an empty inner bag in the first row
HIDDEN = Bag([Tup("a", Bag()), Tup("b", Bag([Tup("c", "d")]))])
FULL = Bag([Tup("e", Bag(["f"]))])
_DATABASE = {"X": X, "Y": Y, "Z": Z, "H": HIDDEN, "F": FULL}

_FLAT = "{{[U, U]}} vs {{[U]}}"
_PINNED = {
    "X - Y": (Subtraction(var("X"), var("Y")),
              f"subtraction requires bags of the same type: {_FLAT}"),
    "X n Y": (Intersection(var("X"), var("Y")),
              f"intersection requires bags of the same type: {_FLAT}"),
    "Y n X": (Intersection(var("Y"), var("X")),
              "intersection requires bags of the same type: "
              "{{[U]}} vs {{[U, U]}}"),
    "X u Y": (MaxUnion(var("X"), var("Y")),
              f"maximal union requires bags of the same type: {_FLAT}"),
    "X + Y": (AdditiveUnion(var("X"), var("Y")),
              f"additive union requires bags of the same type: {_FLAT}"),
    "(X + Z) - Z": (Subtraction(AdditiveUnion(var("X"), var("Z")),
                                var("Z")),
                    "additive union requires bags of the same type: "
                    "{{[U, U]}} vs {{[U, U, U]}}"),
    "(X u Z) - Z": (Subtraction(MaxUnion(var("X"), var("Z")), var("Z")),
                    "maximal union requires bags of the same type: "
                    "{{[U, U]}} vs {{[U, U, U]}}"),
    "(X + Z) n X": (Intersection(AdditiveUnion(var("X"), var("Z")),
                                 var("X")),
                    "additive union requires bags of the same type: "
                    "{{[U, U]}} vs {{[U, U, U]}}"),
    "H + F": (AdditiveUnion(var("H"), var("F")),
              "additive union requires bags of the same type: "
              "{{[U, {{[U, U]}}]}} vs {{[U, {{U}}]}}"),
    "F - H": (Subtraction(var("F"), var("H")),
              "subtraction requires bags of the same type: "
              "{{[U, {{U}}]}} vs {{[U, {{[U, U]}}]}}"),
}


@pytest.mark.parametrize("engine", ["tree"] + sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(_PINNED))
def test_the_walkers_error_on_every_engine(name, engine):
    expr, text = _PINNED[name]
    options = ENGINES.get(engine, dict(engine="tree"))
    with pytest.raises(BagTypeError) as info:
        evaluate(expr, _DATABASE, cache=None, **options)
    assert type(info.value) is BagTypeError
    assert str(info.value) == text


def test_an_empty_inner_bag_beside_a_full_one_is_one_type():
    # {{[a, {{}}]}} (+) {{[b, {{[c, d]}}]}} unifies, whichever side
    # carries the placeholder, first row or every row
    database = {"E": Bag([Tup("a", Bag())]),
                "G": Bag([Tup("b", Bag([Tup("c", "d")]))]), "H": HIDDEN}
    for expr in (AdditiveUnion(var("E"), var("G")),
                 Subtraction(var("G"), var("E")),
                 Intersection(var("H"), var("G")),
                 MaxUnion(var("E"), var("H"))):
        expected = evaluate(expr, database, engine="tree")
        for options in ENGINES.values():
            assert evaluate(expr, database, cache=None,
                            **options) == expected


def test_the_step_check_reads_one_row_per_side(monkeypatch):
    merged = []
    merge = columnar._check_homogeneous

    def counting(rows):
        merged.append(rows)
        return merge(rows)

    monkeypatch.setattr(columnar, "_check_homogeneous", counting)
    for rows in (10, 10_000):
        left = {Tup(i, i + 1): 1 for i in range(rows)}
        right = [Tup(i, i) for i in range(rows)]
        columnar.require_same_type(left, right, "additive union")
        columnar.require_same_type(left, {}, "subtraction")
    assert not merged
    # a first row with an empty inner bag: every row's shape, merged
    with pytest.raises(BagTypeError, match=r"\{\{\[U, \{\{\[U, U\]\}\}\]"
                                           r"\}\} vs"):
        columnar.require_same_type(HIDDEN._counts, FULL._counts,
                                   "additive union")
    assert len(merged) == 1


def test_disjoint_shards_are_checked_whole():
    """One 2-ary and one 3-ary row, in different shards of the two an
    exchange would split them into: each shard's ``-`` step would see
    one side empty.  The checker rejects the plan, so the ``-`` is
    never split across an exchange: it runs serially, and its check
    sees both whole inputs."""
    left = next(Tup(i, i) for i in range(100)
                if hash(Tup(i, i)) % 2 == 0)
    right = next(Tup(i, i, i) for i in range(100)
                 if hash(Tup(i, i, i)) % 2 == 1)
    database = {"X": Bag([left]), "Z": Bag([right])}
    shards = [split_counts(database[name]._counts, 2)
              for name in ("X", "Z")]
    assert not any(shards[0][i] and shards[1][i] for i in range(2))
    expr = Subtraction(var("X"), var("Z"))
    walker = "subtraction requires bags of the same type: " \
             "{{[U, U]}} vs {{[U, U, U]}}"
    for engine in ("parallel-thread", "parallel-process"):
        with pytest.raises(BagTypeError) as info:
            evaluate(expr, database, cache=None, **ENGINES[engine])
        assert str(info.value) == walker
    plan = plan_for(expr, database, policy=ParallelPolicy(threshold=0.0))
    assert not plan.proven
    assert "Exchange" not in plan.render()
    # the same shape, well typed, is split
    plan = plan_for(expr, {"X": database["X"], "Z": Bag([Tup(1, 2)])},
                    policy=ParallelPolicy(threshold=0.0))
    assert plan.proven and "Exchange" in plan.render()


def test_fixed_seed_sweep():
    problems = union_family_sweep.sweep(union_family_sweep.SEED,
                                        union_family_sweep.CASES)
    assert not problems, problems[:5]
