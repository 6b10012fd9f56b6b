"""``repro.testkit`` — conformance tooling for the bag algebra.

The repo now has several independently written implementations of the
same semantics: the tree-walker oracle (:mod:`repro.core.eval`), the
physical kernel engine (:mod:`repro.engine`), the planner's rewrite
rules (:mod:`repro.planner.rewrites`), the surface syntax
(:mod:`repro.surface`) and the SQL front end (:mod:`repro.sql`).  This
package cross-checks them:

* :mod:`repro.testkit.generate` — a seeded, typed expression generator
  producing well-typed BALG^1/2/3 cases over multi-relation schemas
  with nested bag types, plus a greedy structural shrinker
  (independent of Hypothesis, so failures replay byte-for-byte);
* :mod:`repro.testkit.differential` — the N-way harness running each
  case through every backend and comparing bags;
* :mod:`repro.testkit.metamorphic` — Section 3 algebraic laws applied
  as metamorphic relations, so bugs are caught even if the oracle
  itself is wrong;
* :mod:`repro.testkit.corpus` — JSON persistence of minimized failing
  cases, replayed as tier-1 regression tests from ``tests/corpus/``;
* :mod:`repro.testkit.cli` — the ``repro fuzz`` entry point.
"""

from repro.testkit.corpus import (
    case_from_json, case_to_json, load_corpus, save_case,
)
from repro.testkit.differential import (
    BackendOutcome, CaseReport, Harness, Mismatch, RunSummary,
)
from repro.testkit.generate import (
    Case, CaseGenerator, balg1_expr, flat_input_bag, generate_case,
    shrink_case,
)
from repro.testkit.metamorphic import LAWS, LawResult, check_laws

__all__ = [
    "Case", "CaseGenerator", "generate_case", "shrink_case",
    "balg1_expr", "flat_input_bag",
    "Harness", "BackendOutcome", "CaseReport", "Mismatch", "RunSummary",
    "LAWS", "LawResult", "check_laws",
    "case_to_json", "case_from_json", "save_case", "load_corpus",
]
