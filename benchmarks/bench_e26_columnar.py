"""E26 — columnar codegen engine speedup over the stream engine
(systems, not a paper claim).

E20 measured the physical engine against the tree walker; this battery
measures the next rung: ``engine="codegen"`` (opt level 3, the fused
columnar segments of :mod:`repro.engine.codegen`) against
``engine="physical"`` (the per-row stream kernels) on the pipelines
the compiler actually fuses.  Three governed headline cells carry the
acceptance gate:

* **sym-diff chain** — ``eps((X - Y) (+) (Y - X))`` iterated, the
  Thm 4.4 tractable fragment and E20's headline shape, on a
  large-domain multigraph so the hash tables hold tens of thousands
  of distinct keys.  The compiler collapses each level's four
  operators into one ``c_sym_diff_dedup`` sweep.
* **scale cascade** — ``X (+) X`` doubled ``d`` times; lowering turns
  the doubling tower into multiplicity scales and the compiler folds
  them into a single count-column pass.
* **union-dedup cascade** — ``eps(... (+) A_j)`` iterated; each level
  is a C-level in-place dict merge instead of a stream
  concatenate-then-dedup.

The acceptance gate is the geometric mean of the three headline
speedups: ``>= GEOMEAN_FLOOR`` (6x full tier, 2x under ``E26_SMOKE``
— both set well under the ~9x geomean measured at authoring time, so
hardware variance does not flake CI).  Two satellite rows —
dedup-after-map and hash join — are *report-only*: their cost is
Tup construction and lambda application, identical in both engines,
so codegen's honest gain there is small and the rows document that.

Every cell asserts bag-equal results between the two engines, runs
governed, and the fused-segment/barrier counters are checked: the
headline pipelines must fuse with zero barrier fallbacks, and a
powerset probe must take exactly one barrier fallback.  A plan-cache
row pins cache-key isolation at runtime (a warmed codegen entry never
serves a physical run, and vice versa).

Statuses persist to ``results/e26_columnar.status.json``; the table
goes to ``results/e26_columnar.txt`` and the machine-readable ledger
to ``results/e26_columnar.json`` (consumed by
``benchmarks/collect.py``).
"""

from __future__ import annotations

import json
import math
import os
import time

from benchmarks.conftest import RESULTS_DIR, emit_table, governed_cell
from repro.core.expr import (
    AdditiveUnion, Dedup, Powerset, Subtraction, var,
)
from repro.engine import EngineStats, PlanCache, evaluate
from repro.guard import Limits
from repro.workloads import random_multigraph, random_relation

from benchmarks.bench_e20_engine_speedup import (
    dedup_map_chain, join_query,
)

EXPERIMENT = "e26_columnar"

SMOKE = bool(os.environ.get("E26_SMOKE"))

#: (domain, |bag|, chain depth) for the sym-diff and scale cells.
SYM_DIFF = (40, 2000, 4) if SMOKE else (250, 60000, 6)
SCALE = (40, 2000, 6) if SMOKE else (250, 60000, 8)
#: (relation domain, cascade levels, relation count).
UNION_DEDUP = (40, 8, 4) if SMOKE else (150, 16, 6)

#: Acceptance: geomean of the three headline speedups.
GEOMEAN_FLOOR = 2.0 if SMOKE else 6.0

#: Best-of-N timing per engine per cell.
REPS = 2 if SMOKE else 3

LIMITS = Limits(max_steps=200_000_000, timeout=300.0)


def sym_diff_chain(depth: int):
    """eps((X - Y) (+) (Y - X)) iterated — fuses to one
    ``c_sym_diff_dedup`` kernel per level."""
    x, y = var("X"), var("Y")
    for _ in range(depth):
        x = Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))
    return x


def scale_cascade(depth: int):
    """X (+) X doubled ``depth`` times — lowering rewrites the tower
    into multiplicity scales, codegen folds them into one factor."""
    x = var("X")
    for _ in range(depth):
        x = AdditiveUnion(x, x)
    return x


def union_dedup_cascade(levels: int, nrels: int):
    """eps(acc (+) A_j) iterated — each level merges in place."""
    x = var("A0")
    for i in range(levels):
        x = Dedup(AdditiveUnion(x, var(f"A{(i % (nrels - 1)) + 1}")))
    return x


def _best_of(fn, reps: int):
    value, best = None, None
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return value, best


def _engine_pair(experiment_cell: str, expr, database):
    """Run one workload on both engines, governed; returns
    ``(speedup, physical_seconds, codegen_seconds)`` after asserting
    bag equality."""

    def physical_cell(governor):
        return _best_of(lambda: evaluate(
            expr, database, engine="physical", governor=governor,
            cache=None), REPS)

    def codegen_cell(governor):
        return _best_of(lambda: evaluate(
            expr, database, engine="codegen", governor=governor,
            cache=None), REPS)

    physical_outcome = governed_cell(
        EXPERIMENT, f"physical-{experiment_cell}", physical_cell,
        limits=LIMITS)
    codegen_outcome = governed_cell(
        EXPERIMENT, f"codegen-{experiment_cell}", codegen_cell,
        limits=LIMITS)
    assert physical_outcome.status == "ok"
    assert codegen_outcome.status == "ok"
    reference, physical_seconds = physical_outcome.value
    result, codegen_seconds = codegen_outcome.value
    assert result == reference  # bag-equal on every cell
    return (physical_seconds / codegen_seconds, physical_seconds,
            codegen_seconds)


def test_e26_columnar_speedup(benchmark):
    rows = []
    ledger_headline = []
    ledger_satellite = []

    # -- headline: the three fused-pipeline cells ---------------------
    domain, size, depth = SYM_DIFF
    headline = [
        (f"sym-diff chain (n={size}, d={depth})",
         sym_diff_chain(depth),
         {"X": random_multigraph(domain, size, seed=1),
          "Y": random_multigraph(domain, size, seed=2)}),
    ]
    domain, size, depth = SCALE
    headline.append(
        (f"scale cascade (n={size}, d={depth})",
         scale_cascade(depth),
         {"X": random_multigraph(domain, size, seed=3)}))
    domain, levels, nrels = UNION_DEDUP
    headline.append(
        (f"union-dedup cascade (levels={levels})",
         union_dedup_cascade(levels, nrels),
         {f"A{i}": random_relation(domain, arity=2, seed=10 + i)
          for i in range(nrels)}))

    speedups = []
    for label, expr, database in headline:
        speedup, physical_seconds, codegen_seconds = _engine_pair(
            label.split(" (")[0], expr, database)
        speedups.append(speedup)
        rows.append((label, f"{physical_seconds * 1e3:.1f}",
                     f"{codegen_seconds * 1e3:.1f}",
                     f"{speedup:.1f}x"))
        ledger_headline.append({
            "cell": label,
            "physical_seconds": round(physical_seconds, 4),
            "codegen_seconds": round(codegen_seconds, 4),
            "speedup": round(speedup, 3)})

    geomean = math.exp(sum(map(math.log, speedups)) / len(speedups))
    rows.append((f"headline geomean "
                 f"({'smoke' if SMOKE else 'full'} tier)",
                 "-", "-", f"{geomean:.1f}x"))

    # acceptance: fused pipelines carry the gate
    assert geomean >= GEOMEAN_FLOOR, (geomean, speedups)

    # -- satellites: Tup-construction-bound cells (report-only) -------
    satellites = [
        ("dedup-map chain (d=5)", dedup_map_chain(5),
         {"X": random_relation(20, arity=2, seed=3)}),
        ("hash join", join_query(),
         {"L": random_relation(24, arity=2, seed=4),
          "R": random_relation(24, arity=2, seed=5)}),
    ]
    for label, expr, database in satellites:
        speedup, physical_seconds, codegen_seconds = _engine_pair(
            label.split(" (")[0].replace(" ", "-"), expr, database)
        rows.append((f"{label} [satellite]",
                     f"{physical_seconds * 1e3:.1f}",
                     f"{codegen_seconds * 1e3:.1f}",
                     f"{speedup:.1f}x"))
        ledger_satellite.append({
            "cell": label,
            "physical_seconds": round(physical_seconds, 4),
            "codegen_seconds": round(codegen_seconds, 4),
            "speedup": round(speedup, 3)})

    # -- fusion counters: headline fuses clean, powerset barriers -----
    stats = EngineStats()
    expr = sym_diff_chain(3)
    X = random_multigraph(10, 200, seed=6)
    Y = random_multigraph(10, 200, seed=7)
    evaluate(expr, engine="codegen", cache=None, stats=stats,
             X=X, Y=Y)
    assert stats.fused_segments > 0
    assert stats.barrier_fallbacks == 0
    fused_headline = stats.fused_segments

    barrier_stats = EngineStats()
    probe = Dedup(Powerset(var("S")))
    evaluate(probe, engine="codegen", cache=None, stats=barrier_stats,
             S=random_relation(3, arity=1, seed=8))
    assert barrier_stats.barrier_fallbacks == 1
    rows.append(("fusion counters (sym-diff d=3 / powerset)", "-", "-",
                 f"{fused_headline} fused, 0/1 barriers"))

    # -- plan cache: codegen entries are isolated and re-hit ----------
    cache = PlanCache(capacity=8)
    stats = EngineStats()
    expr = sym_diff_chain(3)
    first = evaluate(expr, engine="codegen", cache=cache, stats=stats,
                     X=X, Y=Y)
    repeat = evaluate(expr, engine="codegen", cache=cache, stats=stats,
                      X=X, Y=Y)
    assert repeat == first
    assert stats.cache_hits == 1    # warmed codegen entry re-hit
    crossed = evaluate(expr, engine="physical", cache=cache,
                       stats=stats, X=X, Y=Y)
    assert crossed == first
    assert stats.cache_hits == 1    # physical run missed: isolated key
    assert stats.cache_misses == 2
    rows.append(("plan-cache isolation (codegen vs physical)", "-",
                 "-", f"hit rate {cache.stats.hit_rate:.0%}"))

    emit_table(
        EXPERIMENT,
        "E26  codegen engine vs stream engine (ms per evaluation)",
        ["cell", "physical ms", "codegen ms", "speedup"], rows)

    ledger = {"experiment": EXPERIMENT, "smoke": SMOKE,
              "geomean_floor": GEOMEAN_FLOOR,
              "geomean": round(geomean, 3),
              "headline": ledger_headline,
              "satellite": ledger_satellite,
              "fused_segments": fused_headline}
    with open(os.path.join(RESULTS_DIR, f"{EXPERIMENT}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # timing fixture: the sym-diff headline cell on the codegen engine
    domain, size, depth = SYM_DIFF
    X = random_multigraph(domain, size, seed=1)
    Y = random_multigraph(domain, size, seed=2)
    expr = sym_diff_chain(depth)
    benchmark(lambda: evaluate(expr, engine="codegen", cache=None,
                               X=X, Y=Y))
