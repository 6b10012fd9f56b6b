"""Projections as index plans: the shapes the fuzz generator seldom
draws, swept against the tree walker.

A MAP whose lambda only rearranges attributes of its row
(``pi_{i1..in}``) runs as one ``itemgetter`` over the row's item
tuple, and directly on a product or a join it fuses into that kernel
(``picks=``), so the joined rows are never built.  ``repro fuzz``
rarely puts a pure rearrangement straight on a join, so this module
generates exactly that, per seeded database:

* ``MAP_rearr(sigma_{i=j}(A x B))``, ``MAP_rearr(A x B)`` and
  ``eps(MAP_rearr(...))`` — the fused step, read as a dict and as
  columns;
* ``eps(sigma_{i=j}(A x B))`` and ``eps(A x B)`` — the fused
  join-dedup step, which reads no count;
* ``MAP_rearr`` twice over one shared join, and ``eps`` over a join
  the plan also reads bare — the join is a multi-reference
  ``SharedScan``, which the builder must *not* fuse through;
* ``MAP_rearr`` over a selection and over a union — the plain
  index-plan closure;

with picks that repeat (``[a4, a4, a1]``), reorder across the two
sides (``[a4, a1]``), have arity 1, or pick a bag-valued attribute of
a BALG^2 row — times {nat, bool, tropical, provenance} times
{physical, opt level 0, parallel thread, parallel process with every
segment exchanged}.  Each answer must be the tree walker's bag (or its
typed rejection); the default-level plan of each shape must fuse the
plan nodes listed into its pair kernel, and no others.

Tier-1 runs ``sweep(SEED, CASES)`` (``tests/test_rearrangement.py``);
a longer stream::

    PYTHONPATH=src python -m tests.rearrangement_sweep --cases 200 \\
        --seed 7 --corpus fuzz-artifacts
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Any, Iterator, List, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.derived import project_expr
from repro.core.errors import ReproError
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Dedup, Expr, Lam, Select, Var,
    var,
)
from repro.core.types import BagType, TupleType, U
from repro.engine import evaluate, plan_for
from repro.testkit import Case, save_case, shrink_case
from repro.testkit.cli import _resolve_seed

SEED = 19
CASES = 6
SEMIRINGS = ("nat", "bool", "tropical", "provenance")
_FORCED = dict(engine="parallel", workers=2, parallel_threshold=0.0,
               min_morsel_rows=1)
ENGINES = {
    "physical": dict(engine="physical"),
    "opt0": dict(engine="physical", opt_level=0),
    "parallel-thread": dict(_FORCED, parallel_backend="thread"),
    "parallel-process": dict(_FORCED, parallel_backend="process"),
}
_ATOMS = ("a", "b", "c", 0, 1)


def _relation(rng: random.Random, arity: int, nested_at: Optional[int]
              ) -> Tuple[Bag, BagType]:
    """5-9 rows over a small atom pool (joins match, images collide,
    a third of the rows repeat); attribute ``nested_at`` is a bag."""
    def attribute(position):
        if position == nested_at:
            return Bag(rng.choices(_ATOMS[:3], k=rng.randint(0, 2)))
        return rng.choice(_ATOMS)

    rows = [Tup(*(attribute(position) for position in range(arity)))
            for _ in range(rng.randint(5, 9))]
    rows += [row for row in rows if rng.random() < 0.35]
    typ = TupleType(tuple(BagType(U) if position == nested_at else U
                          for position in range(arity)))
    return Bag(rows), BagType(typ)


def shapes(rng: random.Random
           ) -> Iterator[Tuple[str, Optional[Tuple[str, ...]], Case]]:
    """``(name, fuses, case)`` over one generated database: ``fuses``
    is :func:`fused_kernels` of the default-level plan (``None``: not
    checked)."""
    la, ra = rng.randint(1, 3), rng.randint(1, 3)
    # a bag-valued attribute on the right, away from the join column
    nested_at = rng.choice([None, ra - 1]) if ra > 1 else None
    left, left_type = _relation(rng, la, None)
    right, right_type = _relation(rng, ra, nested_at)
    other, _ = _relation(rng, la, None)
    database = {"A": left, "B": right, "C": other}
    schema = {"A": left_type, "B": right_type, "C": left_type}
    width = la + ra
    product = Cartesian(var("A"), var("B"))
    i = rng.randint(1, la)
    join = Select(Lam("t", Attribute(Var("t"), i)),
                  Lam("t", Attribute(Var("t"), la + 1)), product)
    pick_lists = {
        "repeat": (width, width, 1),
        "cross-side": (width, 1),
        "one": (rng.randint(1, width),),
        "random": tuple(rng.randint(1, width)
                        for _ in range(rng.randint(1, 4))),
    }
    for label, picks in pick_lists.items():
        own = tuple(pick for pick in picks if pick <= la) or (1,)
        for name, fuses, expr in (
                ("join", ("map",), project_expr(join, *picks)),
                ("product", ("map",), project_expr(product, *picks)),
                ("dedup-join", ("dedup", "map"),
                 Dedup(project_expr(join, *picks))),
                ("shared-join", (), AdditiveUnion(
                    project_expr(join, *picks),
                    project_expr(Dedup(join), *picks))),
                ("select", (), project_expr(Select(
                    Lam("t", Attribute(Var("t"), 1)),
                    Lam("t", Attribute(Var("t"), la)), var("A")), *own)),
                ("union", (), project_expr(AdditiveUnion(
                    var("A"), var("C")), *own))):
            yield (f"{name}/{label}{list(picks)}", fuses,
                   Case(schema=schema, database=database, expr=expr))
    # eps straight on the pairs: no picks, so no draw
    for name, fuses, expr in (
            ("eps/join", ("dedup",), Dedup(join)),
            ("eps/product", ("dedup",), Dedup(product)),
            ("eps/shared-join", (), AdditiveUnion(Dedup(join), join))):
        yield name, fuses, Case(schema=schema, database=database,
                                expr=expr)


def _outcome(case: Case, semiring: str, options: dict) -> Any:
    try:
        return evaluate(case.expr, case.database, semiring=semiring,
                        cache=None, **options)
    except ReproError as error:
        return type(error), str(error)


def fused_kernels(expr: Expr, database) -> Tuple[str, ...]:
    """The kernels of the plan nodes that the default-level plan's
    fused pair-kernel steps cover besides the product or join itself,
    sorted and distinct: ``map`` for a rearrangement, ``dedup`` for an
    ``eps``."""
    return tuple(sorted({
        name for segment in plan_for(expr, database).segments
        for step in segment.steps if type(step[1]) is tuple
        for name in step[1][1:]}))


def is_fused(expr: Expr, database) -> bool:
    """Whether the default-level plan holds a fused join-project
    step."""
    return "map" in fused_kernels(expr, database)


def check_case(case: Case,
               fuses: Optional[Tuple[str, ...]] = None) -> List[str]:
    """Every way an engine's answer differs from the tree walker's."""
    problems = []
    if fuses is not None:
        found = fused_kernels(case.expr, case.database)
        if found != fuses:
            problems.append(f"fused into the pair kernel: {found}, "
                            f"expected {fuses}")
    for semiring in SEMIRINGS:
        expected = _outcome(case, semiring, dict(engine="tree"))
        for name, options in ENGINES.items():
            got = _outcome(case, semiring, options)
            if got != expected:
                problems.append(f"{semiring}/{name}: {got!r} != tree "
                                f"walker's {expected!r}")
    return problems


def sweep(seed: int, cases: int,
          corpus: Optional[str] = None) -> List[str]:
    """Check every shape over ``cases`` generated databases; with
    ``corpus`` each failing case is shrunk and persisted there."""
    problems: List[str] = []
    for index in range(cases):
        rng = random.Random(seed * 1009 + index)
        for name, fuses, case in shapes(rng):
            found = check_case(case, fuses)
            if not found:
                continue
            problems.extend(f"{name} (database {index}): {problem}"
                            for problem in found)
            if corpus is not None:
                small = shrink_case(case, lambda c: bool(check_case(c)))
                path = save_case(small, corpus, meta={
                    "kind": "rearrangement", "backend": "engine",
                    "detail": found[0][:500],
                    "found_by": ("python -m tests.rearrangement_sweep "
                                 f"--seed {seed}")})
                print(f"  minimized repro saved to {path}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", default=str(SEED),
                        help="integer, or 'from-run-id' for "
                             "$GITHUB_RUN_ID")
    parser.add_argument("--cases", type=int, default=CASES)
    parser.add_argument("--corpus", default=os.path.join(
        os.path.dirname(__file__), "corpus"))
    arguments = parser.parse_args(argv)
    seed = _resolve_seed(arguments.seed)
    problems = sweep(seed, arguments.cases, arguments.corpus)
    for problem in problems:
        print(f"MISMATCH {problem}")
    verdict = "FAILED" if problems else "OK"
    print(f"rearrangement: seed {seed}, {arguments.cases} databases x "
          f"{len(SEMIRINGS)} semirings x {len(ENGINES)} engines: "
          f"{verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
