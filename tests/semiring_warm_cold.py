"""Warm-equals-cold: the first slice of the semiring x engine product.

``Semiring.adapt_bag`` memoises per ``(bag identity, semiring, label)``,
so the second query over the same database objects runs on memoised
K-annotated inputs (and, here, a warm plan cache).  That must be
unobservable: for every generated case, every non-N semiring and every
engine, the case is evaluated twice against one fresh copy of its
database — cold, then memo-warm — and

* both runs end the same way: equal bags, or the same error type;
* a bag equals the tree walker's cold bag for that semiring, and a
  typed rejection (a non-governed ``ReproError``) is the tree walker's
  rejection.  Governed verdicts (budgets, deadlines, depth) may fire in
  one engine and not another, exactly as in the differential harness.

Tier-1 runs ``sweep(SEED, CASES)`` (``tests/test_semiring.py``); CI's
semiring-parity job runs a fresh stream::

    PYTHONPATH=src python -m tests.semiring_warm_cold \\
        --cases 200 --seed from-run-id --corpus fuzz-artifacts

A failing case is shrunk and saved into ``--corpus`` (default
``tests/corpus``), where the tier-1 test replays it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional

from repro.core.errors import (
    GovernedError, ReproError, ResourceLimitError,
)
from repro.engine import PlanCache, evaluate
from repro.testkit import (
    Case, case_from_json, case_to_json, generate_case, save_case,
    shrink_case,
)
from repro.testkit.cli import _resolve_seed
from repro.testkit.differential import DEFAULT_LIMITS

SEED = 16
CASES = 60
SEMIRINGS = ("bool", "tropical", "provenance")
_FORCED = dict(engine="parallel", workers=2, parallel_threshold=0.0,
               min_morsel_rows=1)
ENGINES = {
    "tree": dict(engine="tree"),
    "physical": dict(engine="physical"),
    "codegen": dict(engine="codegen"),
    "parallel-thread": dict(_FORCED, parallel_backend="thread"),
    "parallel-process": dict(_FORCED, parallel_backend="process"),
}
_GOVERNED = (GovernedError, ResourceLimitError, RecursionError)


def _outcome(case: Case, spec: str, options: dict,
             cache: Optional[PlanCache]) -> Any:
    """The bag, or the type of the library error that ended the run
    (anything else propagates: a crash is a crash)."""
    try:
        return evaluate(case.expr, case.database, semiring=spec,
                        limits=DEFAULT_LIMITS, cache=cache, **options)
    except (ReproError, ResourceLimitError, RecursionError) as error:
        return type(error)


def _governed(outcome: Any) -> bool:
    return isinstance(outcome, type) and issubclass(outcome, _GOVERNED)


def check_case(case: Case) -> List[str]:
    """Every way ``case`` tells a warm run from a cold one."""
    document = case_to_json(case)
    problems = []
    for spec in SEMIRINGS:
        reference = None
        for name, options in ENGINES.items():
            # fresh objects: no bag of this copy has been adapted yet
            fresh = case_from_json(document)
            cache = PlanCache(capacity=8)
            cold = _outcome(fresh, spec, options, cache)
            warm = _outcome(fresh, spec, options, cache)
            if name == "tree":
                reference = cold
            where = f"{spec}/{name} on {case.label()}"
            if warm != cold:
                problems.append(
                    f"{where}: warm {warm!r} != cold {cold!r}")
            elif (cold != reference and not _governed(cold)
                    and not _governed(reference)):
                problems.append(
                    f"{where}: {cold!r} != tree walker's {reference!r}")
    return problems


def sweep(seed: int, cases: int,
          corpus: Optional[str] = None) -> List[str]:
    """Check ``generate_case(seed, 0..cases-1)``; with ``corpus`` each
    failing case is shrunk and persisted there."""
    problems: List[str] = []
    for index in range(cases):
        case = generate_case(seed, index, fragment="mixed")
        found = check_case(case)
        if not found:
            continue
        problems.extend(found)
        if corpus is not None:
            small = shrink_case(case, lambda c: bool(check_case(c)))
            path = save_case(small, corpus, meta={
                "kind": "warm-cold", "backend": "semiring-warm-cold",
                "detail": found[0][:500],
                "found_by": ("python -m tests.semiring_warm_cold "
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
    print(f"warm-cold: seed {seed}, {arguments.cases} cases x "
          f"{len(SEMIRINGS)} semirings x {len(ENGINES)} engines: "
          f"{verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
