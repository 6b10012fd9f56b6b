"""The union family over bags of different types, swept against the
tree walker.

``(+)``, ``-``, ``u`` and ``n`` apply only to bags of one type; the
walker checks the two operands it is handed and raises
``BagTypeError("<operator> requires bags of the same type: ...")``.
Every engine step that consumes both operands of such a node runs the
same check (``repro.engine.columnar.require_same_type``), and an
exchange runs it on whole inputs, so each engine must raise exactly
where the walker does — with its subtype and text — and evaluate
exactly where it evaluates.  Per seeded database this generates two
bags ``X`` and ``Z`` of each kind:

* ``flat-arity``: tuples of two different arities;
* ``atom-vs-tuple``: bare atoms against tuples;
* ``nested-placeholder``: rows with a bag-valued attribute whose *first*
  row holds an empty inner bag — the mismatch only shows once the rows'
  shapes are merged;
* ``neighbour``: the well-typed twin of the last one (the same inner
  member shape on both sides, or a side whose inner bags are all
  empty), which must evaluate;

and runs ``X op Z``, ``(X op Z) - Z`` and ``(X op Z) n X`` — the last
two remove the evidence of a mismatch from the result, so only the
check of the inner node can see it — for every ``op`` of the family,
times {nat, bool, tropical, provenance} times {physical, opt level 0,
codegen, parallel thread, parallel process with every segment
exchanged}.

Tier-1 runs ``sweep(SEED, CASES)`` (``tests/test_union_family.py``); a
longer stream::

    PYTHONPATH=src python -m tests.union_family_sweep --cases 40 \\
        --seed 7 --corpus fuzz-artifacts

A failing *well-typed* case is shrunk and saved into ``--corpus``,
which replays well-typed cases only; an ill-typed one is reported.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Any, Iterator, List, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.errors import ReproError
from repro.core.expr import (
    AdditiveUnion, Intersection, MaxUnion, Subtraction, var,
)
from repro.engine import evaluate
from repro.testkit import Case, save_case, shrink_case
from repro.testkit.cli import _resolve_seed

SEED = 23
CASES = 3
SEMIRINGS = ("nat", "bool", "tropical", "provenance")
_FORCED = dict(engine="parallel", workers=2, parallel_threshold=0.0,
               min_morsel_rows=1)
ENGINES = {
    "physical": dict(engine="physical"),
    "opt0": dict(engine="physical", opt_level=0),
    "codegen": dict(engine="codegen"),
    "parallel-thread": dict(_FORCED, parallel_backend="thread"),
    "parallel-process": dict(_FORCED, parallel_backend="process"),
}
OPERATORS = {"+": AdditiveUnion, "-": Subtraction, "u": MaxUnion,
             "n": Intersection}
_ATOMS = ("a", "b", "c", 0, 1)
#: Inner member shapes: an atom, or a tuple of that arity.
_MEMBERS = ("atom", 1, 2)


def _row(rng: random.Random, arity: int) -> Tup:
    return Tup(*(rng.choice(_ATOMS) for _ in range(arity)))


def _member(rng: random.Random, shape) -> Any:
    return rng.choice(_ATOMS) if shape == "atom" else _row(rng, shape)


def _flat(rng: random.Random, arity: Optional[int]) -> Bag:
    """2-6 rows (a third repeated); bare atoms when ``arity`` is
    ``None``."""
    rows = [rng.choice(_ATOMS) if arity is None else _row(rng, arity)
            for _ in range(rng.randint(2, 6))]
    return Bag(rows + [row for row in rows if rng.random() < 0.35])


def _nested(rng: random.Random, member, first_empty: bool,
            all_empty: bool = False) -> Bag:
    """Rows ``[atom, inner bag]``: the inner bags hold 1-2 members of
    shape ``member``; the first row's is empty when ``first_empty``,
    every row's when ``all_empty``."""
    rows = []
    for index in range(rng.randint(2, 4)):
        empty = all_empty or (first_empty and index == 0)
        inner = Bag([] if empty else [_member(rng, member)
                                      for _ in range(rng.randint(1, 2))])
        rows.append(Tup(rng.choice(_ATOMS), inner))
    return Bag(rows)


def pairs(rng: random.Random) -> Iterator[Tuple[str, Bag, Bag]]:
    """``(kind, X, Z)``, one pair of each kind."""
    left, right = rng.sample((1, 2, 3), 2)
    yield "flat-arity", _flat(rng, left), _flat(rng, right)
    atoms, tuples = _flat(rng, None), _flat(rng, rng.randint(1, 2))
    yield ("atom-vs-tuple",) + ((atoms, tuples) if rng.random() < 0.5
                                else (tuples, atoms))
    here, there = rng.sample(_MEMBERS, 2)
    yield ("nested-placeholder", _nested(rng, here, True),
           _nested(rng, there, False))
    if rng.random() < 0.5:
        # the same inner member shape on both sides
        x, z = _nested(rng, here, True), _nested(rng, here, False)
    else:
        # a side whose every inner bag is empty: {{[U, {{?}}]}}
        x, z = _nested(rng, here, True, all_empty=True), _nested(
            rng, rng.choice(_MEMBERS[1:]), False)
    yield ("neighbour",) + ((x, z) if rng.random() < 0.5 else (z, x))


def shapes(rng: random.Random) -> Iterator[Tuple[str, Case]]:
    """``(name, case)`` over one generated database."""
    for kind, x, z in pairs(rng):
        database = {"X": x, "Z": z}
        for symbol, operator in OPERATORS.items():
            inner = operator(var("X"), var("Z"))
            for label, expr in (
                    (f"X {symbol} Z", inner),
                    (f"(X {symbol} Z) - Z", Subtraction(inner, var("Z"))),
                    (f"(X {symbol} Z) n X",
                     Intersection(inner, var("X")))):
                yield f"{kind}: {label}", Case(
                    schema={}, database=database, expr=expr)


def outcome(case: Case, semiring: str, options: dict) -> Any:
    """The bag, or the typed error's ``(type, text)``."""
    try:
        return evaluate(case.expr, case.database, semiring=semiring,
                        cache=None, **options)
    except ReproError as error:
        return type(error), str(error)


def check_case(case: Case, engines=None) -> List[str]:
    """Every way an engine's answer differs from the tree walker's."""
    problems = []
    for semiring in SEMIRINGS:
        expected = outcome(case, semiring, dict(engine="tree"))
        for name, options in (engines or ENGINES).items():
            got = outcome(case, semiring, options)
            if got != expected:
                problems.append(f"{semiring}/{name}: {got!r} != tree "
                                f"walker's {expected!r}")
    return problems


def well_typed(case: Case) -> bool:
    return isinstance(outcome(case, "nat", dict(engine="tree")), Bag)


def sweep(seed: int, cases: int,
          corpus: Optional[str] = None) -> List[str]:
    """Check every shape over ``cases`` generated databases; with
    ``corpus`` each failing well-typed case is shrunk and persisted
    there."""
    problems: List[str] = []
    for index in range(cases):
        rng = random.Random(seed * 1009 + index)
        for name, case in shapes(rng):
            found = check_case(case)
            if not found:
                continue
            problems.extend(f"{name} (database {index}): {problem}"
                            for problem in found)
            if corpus is not None and well_typed(case):
                small = shrink_case(case, lambda c: well_typed(c)
                                    and bool(check_case(c)))
                path = save_case(small, corpus, meta={
                    "kind": "union-family", "backend": "engine",
                    "detail": found[0][:500],
                    "found_by": ("python -m tests.union_family_sweep "
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
    print(f"union-family: seed {seed}, {arguments.cases} databases x "
          f"{len(SEMIRINGS)} semirings x {len(ENGINES)} engines: "
          f"{verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
