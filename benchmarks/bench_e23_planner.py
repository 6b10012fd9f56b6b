"""E23 — staged planner: compile overhead and opt-level plan quality.

The planner (`repro.planner`) turned compilation into a visible,
staged pipeline; this battery measures what that costs and what it
buys, on the workload families E20/E22 established:

* **compile overhead** — per-stage wall-clock (`StageRecord.seconds`)
  for every workload at opt levels 0/1/2, averaged over repeated
  compilations.  The stages view is only honest if the pipeline
  itself is cheap: the battery asserts the *full* opt-2 compile of
  every workload stays under a fixed ceiling (milliseconds, not
  query-execution territory).
* **plan quality** — end-to-end engine execution of the same query at
  opt 0 (no rewrites, naive lowering) vs opt 2 (rewrite fixpoint +
  cost-based lowering), bag-equality asserted on every cell before
  any timing is kept.  The join workload shows cost-based lowering
  (hash join vs nested loop + filter); the rewrite-rich workload
  shows the algebraic fixpoint (a self-subtraction of a heavy join
  folds to the empty bag, map fusion halves a map chain).

Acceptance: opt 2 beats opt 0 by >= 2x on at least one workload
(full tier only — the ``E23_SMOKE`` sizes are too small to measure
honestly), and every compile stays under the overhead ceiling.

Results persist to ``results/e23_planner.txt`` (human table),
``results/e23_planner.json`` (machine-readable, consumed by
``benchmarks/collect.py``), and ``results/e23_planner.status.json``.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import (
    RESULTS_DIR, emit_table, governed_cell,
)
from repro.core.bag import Bag, Tup
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Dedup, Lam, Map, Select,
    Subtraction, Var, var,
)
from repro.engine import evaluate
from repro.guard import Limits
from repro.planner import PassConfig, PlanContext
from repro.planner import compile as planner_compile

EXPERIMENT = "e23_planner"

SMOKE = bool(os.environ.get("E23_SMOKE"))

OPT_LEVELS = (0, 1, 2)
COMPILE_REPS = 25
#: ceiling on one full opt-2 compile (seconds) — the pipeline must
#: stay in interactive territory for the REPL's per-query use
COMPILE_CEILING = 0.05
SPEEDUP_FLOOR = 2.0

JOIN_SIZE = 120 if SMOKE else 900
CHAIN_SIZE = (200, 4) if SMOKE else (3000, 6)

LIMITS = Limits(max_steps=500_000_000, timeout=300.0)


# ----------------------------------------------------------------------
# Workloads (the E20/E22 families, planner-relevant variants)
# ----------------------------------------------------------------------


def _join_db():
    n = JOIN_SIZE
    L = Bag.from_counts({Tup(i % n, (i * 3) % 97): (i % 2) + 1
                         for i in range(n * 2)})
    R = Bag.from_counts({Tup((i * 3) % 97, i % n): (i % 3) + 1
                         for i in range(n * 2)})
    return {"L": L, "R": R}


def join_query():
    """eps(sigma_{a2=a3}(L x R)) — opt 0 runs the nested loop + filter,
    cost-based lowering fuses the hash join."""
    return Dedup(Select(Lam("t", Attribute(Var("t"), 2)),
                        Lam("t", Attribute(Var("t"), 3)),
                        Cartesian(var("L"), var("R"))))


def _chain_db():
    atoms, copies = CHAIN_SIZE
    X = Bag.from_counts({Tup(i % atoms, (i * 7) % atoms): (i % copies) + 1
                         for i in range(atoms * 2)})
    Y = Bag.from_counts({Tup(i % atoms, (i * 5) % atoms): (i % 3) + 1
                         for i in range(atoms)})
    return {"X": X, "Y": Y}


def dedup_chain(depth: int = 3):
    """The E22 shard-local chain: eps((X - Y) (+) (Y - X)) iterated."""
    x, y = var("X"), var("Y")
    for _ in range(depth):
        x = Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))
    return x


def rewrite_rich():
    """A query the rewrite fixpoint collapses almost entirely:
    the heavy join appears only inside a self-subtraction (folds to
    the empty bag at opt 2), leaving a fused two-map projection."""
    heavy = join_query()
    projected = Map(Lam("u", Attribute(Var("u"), 1)),
                    Map(Lam("t", Var("t")), var("L")))
    return AdditiveUnion(projected, Subtraction(heavy, heavy))


WORKLOADS = [
    ("join", join_query(), _join_db),
    ("dedup-chain", dedup_chain(), _chain_db),
    ("rewrite-rich", rewrite_rich(), _join_db),
]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------


def test_e23_planner(benchmark):
    rows = []
    ledger = {"experiment": EXPERIMENT, "smoke": SMOKE,
              "compile": [], "quality": []}

    # -- part 1: per-stage compile overhead ---------------------------
    worst_compile = 0.0
    for label, expr, make_db in WORKLOADS:
        db = make_db()
        for level in OPT_LEVELS:
            stage_seconds = {}
            firings = 0
            total = 0.0
            for _ in range(COMPILE_REPS):
                context = PlanContext.capture(
                    db, engine="physical",
                    config=PassConfig.for_level(level))
                compiled = planner_compile(expr, context)
                for record in compiled.report.stages:
                    stage_seconds[record.stage] = (
                        stage_seconds.get(record.stage, 0.0)
                        + record.seconds)
                firings = compiled.report.total_firings
                total += compiled.report.total_seconds
            mean = total / COMPILE_REPS
            worst_compile = max(worst_compile, mean)
            stages = {stage: seconds / COMPILE_REPS
                      for stage, seconds in stage_seconds.items()}
            ledger["compile"].append(
                {"workload": label, "opt_level": level,
                 "stages": stages, "mean_seconds": mean,
                 "firings": firings})
            stage_text = " ".join(
                f"{stage}={seconds * 1e6:.0f}us"
                for stage, seconds in sorted(stages.items()))
            rows.append((f"compile:{label}", f"opt{level}",
                         f"{mean * 1e6:.0f}us",
                         f"fired={firings}", stage_text))

    # -- part 2: opt0-vs-opt2 end-to-end plan quality -----------------
    best_speedup = 0.0
    for label, expr, make_db in WORKLOADS:
        db = make_db()
        seconds = {}
        reference = None
        for level in (0, 2):

            def cell(governor, expr=expr, db=db, level=level):
                return _timed(lambda: evaluate(
                    expr, db, cache=None, governor=governor,
                    opt_level=level))

            outcome = governed_cell(EXPERIMENT,
                                    f"{label}-opt{level}", cell,
                                    limits=LIMITS)
            assert outcome.status == "ok", outcome.status
            result, elapsed = outcome.value
            # bag-equality across opt levels, before any timing is kept
            if reference is None:
                reference = result
            else:
                assert result == reference, label
            seconds[level] = elapsed
        speedup = seconds[0] / seconds[2]
        best_speedup = max(best_speedup, speedup)
        ledger["quality"].append(
            {"workload": label, "opt0_seconds": seconds[0],
             "opt2_seconds": seconds[2], "speedup": speedup})
        rows.append((f"quality:{label}", "opt0 vs opt2",
                     f"{seconds[0] * 1e3:.1f}ms",
                     f"{seconds[2] * 1e3:.1f}ms",
                     f"{speedup:.2f}x"))

    emit_table(
        EXPERIMENT,
        "E23  staged planner: compile overhead + opt0-vs-opt2 quality "
        f"({'smoke' if SMOKE else 'full'} tier)",
        ["cell", "config", "opt0 / mean", "opt2 / firings", "detail"],
        rows)

    ledger["worst_mean_compile_seconds"] = worst_compile
    ledger["best_speedup"] = best_speedup
    with open(os.path.join(RESULTS_DIR, f"{EXPERIMENT}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # compile overhead must stay interactive at every level
    assert worst_compile < COMPILE_CEILING, (
        f"mean compile {worst_compile * 1e3:.1f}ms exceeds the "
        f"{COMPILE_CEILING * 1e3:.0f}ms ceiling")
    # acceptance: the optimizing pipeline pays for itself
    if not SMOKE:
        assert best_speedup >= SPEEDUP_FLOOR, (
            f"best opt2-over-opt0 speedup was {best_speedup:.2f}x "
            f"< {SPEEDUP_FLOOR}x")

    # timing fixture: one full opt-2 compile of the join workload
    db = _join_db()
    expr = join_query()

    def compile_once():
        context = PlanContext.capture(
            db, engine="physical", config=PassConfig.for_level(2))
        return planner_compile(expr, context)

    benchmark(compile_once)
