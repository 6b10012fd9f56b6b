"""E22 — morsel-driven parallel scaling (systems, not a paper claim).

Two workloads sweep the worker counts 1/2/4/8 on the ``process``
backend (the ``thread`` backend shares the GIL, so pure-Python kernels
cannot scale there — see docs/parallel.md):

* **dedup-heavy** — a symmetric-difference/dedup chain whose whole
  body compiles into one shard-local program, so each morsel runs the
  entire chain on its hash shard with zero cross-worker traffic;
* **join-heavy** — ``eps(sigma_{a2=a3}(L x R))``: both sides are
  hash-partitioned on the join key, each worker builds and probes its
  own shard-local table.

Every cell asserts **bag-equality against the serial physical
engine** before its timing is recorded — scaling numbers for wrong
answers are worthless.  A third battery drives the governed edges:
step budgets, near-zero deadlines, pre-cancelled tokens, and a
powerset budget blowing up inside a barrier leaf must surface the
*same* GovernedError types as the serial engine, with all workers
torn down.

A **serialization** micro-cell measures what one morsel costs on the
wire: the join-heavy workload's actual exchange shards (inputs
key-partitioned as the exchange would, plus the join output), encoded
by the columnar codec vs pickled — bytes and encode+decode wall-time
per morsel.  The codec must ship at least 2x fewer bytes.  (It was
5x until ``Tup`` and ``Bag`` pickled their structure only: the codec's
bytes did not move, pickle's halved.)

Acceptance gates, all recorded in
``results/e22_parallel.status.json`` so a *skipped* gate is
distinguishable from a *failed* one:

* ``speedup`` — >= 2x at 4 workers on at least one workload;
  asserted only with ``os.cpu_count() >= 4`` and ``E22_SMOKE`` unset
  (a 1-2 core container still runs every equality and governance
  check but cannot honestly fail a hardware-bound scaling target);
  skipped gates carry the reason (``smoke tier`` / ``N cpu < 4``).
* ``smoke-overhead`` — in smoke mode the 2-worker **thread** run
  must reach at least 0.9x of serial on one workload: on a box with
  fewer than 4 cores, process IPC is a structural loss (nothing to
  overlap with the shipping), so the thread rung is the honest
  measure of what the substrate itself costs — split, dispatch,
  governance, ordered merge.  With the columnar segment programs it
  in fact *beats* the serial stream engine at realistic sizes.
* ``serialization`` — codec bytes * 2 <= pickle bytes on the
  join-heavy morsels (always asserted; no hardware dependence).

Results persist to ``results/e22_parallel.txt`` (human table),
``results/e22_parallel.json`` (machine-readable, consumed by
``benchmarks/collect.py``), and ``results/e22_parallel.status.json``
(governed-cell statuses + cpu/mode/gate metadata).
"""

from __future__ import annotations

import json
import os
import pickle
import time

from benchmarks.conftest import (
    RESULTS_DIR, emit_table, governed_cell, record_cell_status,
    record_experiment_meta,
)
from repro.core.bag import Bag, Tup
from repro.core.errors import (
    BudgetExceeded, Cancelled, DeadlineExceeded,
)
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Dedup, Lam, Powerset, Select,
    Subtraction, Var, var,
)
from repro.engine import EngineStats, evaluate
from repro.engine.parallel import (
    decode_shard, encode_shard, split_counts,
)
from repro.guard import (
    CancellationToken, Limits, ResourceGovernor, RetryPolicy,
)

EXPERIMENT = "e22_parallel"

SMOKE = bool(os.environ.get("E22_SMOKE"))

WORKER_SWEEP = (1, 2, 4, 8)

SPEEDUP_FLOOR = 2.0        # at 4 workers, on at least one workload
SPEEDUP_WORKERS = 4

SMOKE_FLOOR = 0.9          # 2-worker overhead bound in smoke mode
SMOKE_WORKERS = 2

CODEC_FACTOR = 2           # codec ships >= 2x fewer bytes than pickle

#: (atoms, copies) per workload — the smoke tier keeps CI fast while
#: still exercising every shard/merge/governance path; sizes sit
#: above the pool-spawn noise floor so the overhead gate is a real
#: measurement, not a fixed-cost artifact.
DEDUP_SIZE = (3000, 6) if SMOKE else (6000, 8)
JOIN_SIZE = 600 if SMOKE else 1400

LIMITS = Limits(max_steps=500_000_000, timeout=300.0)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _dedup_db():
    atoms, copies = DEDUP_SIZE
    X = Bag.from_counts({Tup(i % atoms, (i * 7) % atoms): (i % copies) + 1
                         for i in range(atoms * 2)})
    Y = Bag.from_counts({Tup(i % atoms, (i * 5) % atoms): (i % 3) + 1
                         for i in range(atoms)})
    return {"X": X, "Y": Y}


def dedup_chain(depth: int = 3):
    """eps((X - Y) (+) (Y - X)) iterated: one shard-local program."""
    x, y = var("X"), var("Y")
    for _ in range(depth):
        x = Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))
    return x


def _join_db():
    n = JOIN_SIZE
    L = Bag.from_counts({Tup(i % n, (i * 3) % 97): (i % 2) + 1
                         for i in range(n * 2)})
    R = Bag.from_counts({Tup((i * 3) % 97, i % n): (i % 3) + 1
                         for i in range(n * 2)})
    return {"L": L, "R": R}


def join_query():
    """eps(sigma_{a2=a3}(L x R)): hash-partitioned on the join key."""
    return Dedup(Select(Lam("t", Attribute(Var("t"), 2)),
                        Lam("t", Attribute(Var("t"), 3)),
                        Cartesian(var("L"), var("R"))))


WORKLOADS = [
    ("dedup-heavy", dedup_chain(), _dedup_db),
    ("join-heavy", join_query(), _join_db),
]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _timed_best(fn, repeats: int = 3):
    """Best-of-N timing for the cells a gate hangs on: single-shot
    wall clock on a small shared box is too noisy to gate against."""
    value, best = _timed(fn)
    for _ in range(repeats - 1):
        _, seconds = _timed(fn)
        best = min(best, seconds)
    return value, best


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------


def test_e22_parallel_speedup(benchmark):
    rows = []
    cpu_count = os.cpu_count() or 1
    ledger = {"experiment": EXPERIMENT, "smoke": SMOKE,
              "cpu_count": cpu_count, "workloads": []}
    best_speedup_at_target = 0.0
    best_speedup_at_smoke = 0.0

    for label, expr, make_db in WORKLOADS:
        db = make_db()

        def serial_cell(governor, expr=expr, db=db):
            return _timed_best(lambda: evaluate(expr, db, cache=None,
                                                governor=governor))

        outcome = governed_cell(EXPERIMENT, f"{label}-serial",
                                serial_cell, limits=LIMITS)
        assert outcome.status == "ok", outcome.status
        reference, serial_seconds = outcome.value

        entry = {"workload": label, "serial_seconds": serial_seconds,
                 "cells": []}
        for workers in WORKER_SWEEP:
            stats = EngineStats()

            def parallel_cell(governor, expr=expr, db=db,
                              workers=workers, stats=stats):
                return _timed(lambda: evaluate(
                    expr, db, cache=None, governor=governor,
                    engine="parallel", workers=workers,
                    parallel_backend="process",
                    parallel_threshold=0.0, stats=stats))

            outcome = governed_cell(EXPERIMENT, f"{label}-w{workers}",
                                    parallel_cell, limits=LIMITS)
            assert outcome.status == "ok", outcome.status
            result, seconds = outcome.value
            # bag-equality on EVERY cell, before any timing is kept
            assert result == reference, (label, workers)
            speedup = serial_seconds / seconds
            if workers == SPEEDUP_WORKERS:
                best_speedup_at_target = max(best_speedup_at_target,
                                             speedup)
            if workers == SMOKE_WORKERS:
                best_speedup_at_smoke = max(best_speedup_at_smoke,
                                            speedup)
            entry["cells"].append({"workers": workers,
                                   "seconds": seconds,
                                   "speedup": speedup,
                                   "bytes_shipped":
                                       stats.bytes_shipped})
            rows.append((label, workers,
                         f"{serial_seconds * 1e3:.1f}",
                         f"{seconds * 1e3:.1f}",
                         f"{speedup:.2f}x"))

        # thread rung at 2 workers: the substrate-overhead measure
        # behind the smoke gate (no IPC, shared-memory shards).  One
        # untimed warm-up run first: the resident pool spawn and the
        # per-worker segment compile are process-wide one-time costs
        # by design, and the gate measures steady-state overhead.
        evaluate(expr, db, cache=None, engine="parallel",
                 workers=SMOKE_WORKERS, parallel_threshold=0.0)

        def thread_cell(governor, expr=expr, db=db):
            return _timed_best(lambda: evaluate(
                expr, db, cache=None, governor=governor,
                engine="parallel", workers=SMOKE_WORKERS,
                parallel_threshold=0.0))

        outcome = governed_cell(EXPERIMENT, f"{label}-thread-w2",
                                thread_cell, limits=LIMITS)
        assert outcome.status == "ok", outcome.status
        result, seconds = outcome.value
        assert result == reference, (label, "thread")
        thread_speedup = serial_seconds / seconds
        best_speedup_at_smoke = max(best_speedup_at_smoke,
                                    thread_speedup)
        entry["thread_2w_seconds"] = seconds
        entry["thread_2w_speedup"] = thread_speedup
        rows.append((f"{label} (thread)", SMOKE_WORKERS,
                     f"{serial_seconds * 1e3:.1f}",
                     f"{seconds * 1e3:.1f}",
                     f"{thread_speedup:.2f}x"))
        ledger["workloads"].append(entry)

    # -- serialization: codec vs pickle on real morsel shards ---------
    serialization = _serialization_cell()
    ledger["serialization"] = serialization
    rows.append(("serialization:codec", "-",
                 f"{serialization['pickle_bytes_per_morsel']:.0f} B",
                 f"{serialization['codec_bytes_per_morsel']:.0f} B",
                 f"{serialization['bytes_ratio']:.1f}x"))

    # -- governed edges: same error family as serial, all backends ----
    governed = _governed_edges()
    ledger["governed"] = governed
    for cell, status in sorted(governed.items()):
        rows.append((f"governed:{cell}", "-", "-", "-", status))

    emit_table(
        EXPERIMENT,
        "E22  morsel-driven scaling, process backend "
        f"({'smoke' if SMOKE else 'full'} tier, "
        f"{cpu_count} cpu)",
        ["workload", "workers", "serial ms", "parallel ms", "speedup"],
        rows)

    ledger["speedup_at_4_workers"] = best_speedup_at_target
    ledger["speedup_at_2_workers"] = best_speedup_at_smoke
    gates = _gates(cpu_count, best_speedup_at_target,
                   best_speedup_at_smoke, serialization)
    ledger["gates"] = gates
    with open(os.path.join(RESULTS_DIR, f"{EXPERIMENT}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    record_experiment_meta(EXPERIMENT, cpu_count=cpu_count,
                           mode="smoke" if SMOKE else "full",
                           gates=gates)

    for name, gate in sorted(gates.items()):
        assert gate["status"] != "failed", (name, gate)

    # timing fixture: the dedup workload at 2 workers
    db = _dedup_db()
    expr = dedup_chain()
    benchmark(lambda: evaluate(expr, db, cache=None, engine="parallel",
                               workers=2, parallel_backend="process",
                               parallel_threshold=0.0))


def _serialization_cell():
    """Bytes and wall-time per morsel: columnar codec vs pickle.

    The morsel set is what the join-heavy exchange would actually
    ship at 4 shards: both inputs key-partitioned on the join key,
    plus the per-shard join output coming back.  Both codecs are
    round-tripped (encode + decode) so the times are comparable costs
    of crossing the process boundary, not just of writing."""
    db = _join_db()
    reference = evaluate(join_query(), db, cache=None)
    num_shards = 4
    morsels = (split_counts(dict(db["L"].items()), num_shards, key=(2,))
               + split_counts(dict(db["R"].items()), num_shards,
                              key=(1,))
               + split_counts(dict(reference.items()), num_shards))
    morsels = [shard for shard in morsels if shard]
    codec_bytes = pickle_bytes = 0
    codec_seconds = pickle_seconds = 0.0
    for counts in morsels:
        start = time.perf_counter()
        blob = encode_shard(counts)
        decoded = decode_shard(blob)
        codec_seconds += time.perf_counter() - start
        assert decoded == counts
        start = time.perf_counter()
        dumped = pickle.dumps(counts,
                              protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(dumped) == counts
        pickle_seconds += time.perf_counter() - start
        codec_bytes += len(blob)
        pickle_bytes += len(dumped)
    n = len(morsels)
    return {
        "morsels": n,
        "codec_bytes": codec_bytes,
        "pickle_bytes": pickle_bytes,
        "codec_bytes_per_morsel": codec_bytes / n,
        "pickle_bytes_per_morsel": pickle_bytes / n,
        "codec_seconds_per_morsel": codec_seconds / n,
        "pickle_seconds_per_morsel": pickle_seconds / n,
        "bytes_ratio": pickle_bytes / codec_bytes,
    }


def _gates(cpu_count, best_at_target, best_at_smoke, serialization):
    """The acceptance gates, each with an explicit verdict.

    ``status`` is ``passed`` / ``failed`` / ``skipped``; skipped
    gates carry a ``reason`` so the status file distinguishes "the
    box cannot run this" from "the code missed the bar"."""
    speedup = {"floor": SPEEDUP_FLOOR, "workers": SPEEDUP_WORKERS,
               "best_speedup": best_at_target, "cpu_count": cpu_count}
    if SMOKE:
        speedup["status"] = "skipped"
        speedup["reason"] = "smoke tier"
    elif cpu_count < SPEEDUP_WORKERS:
        speedup["status"] = "skipped"
        speedup["reason"] = f"{cpu_count} cpu < {SPEEDUP_WORKERS}"
    else:
        speedup["status"] = ("passed"
                             if best_at_target >= SPEEDUP_FLOOR
                             else "failed")

    smoke = {"floor": SMOKE_FLOOR, "workers": SMOKE_WORKERS,
             "best_speedup": best_at_smoke, "cpu_count": cpu_count,
             "measure": "best of thread/process at 2 workers"}
    if not SMOKE:
        smoke["status"] = "skipped"
        smoke["reason"] = "full tier (scaling gate applies instead)"
    else:
        smoke["status"] = ("passed" if best_at_smoke >= SMOKE_FLOOR
                           else "failed")

    codec = {"factor": CODEC_FACTOR,
             "bytes_ratio": serialization["bytes_ratio"],
             "status": ("passed"
                        if serialization["codec_bytes"] * CODEC_FACTOR
                        <= serialization["pickle_bytes"]
                        else "failed")}
    return {"speedup": speedup, "smoke-overhead": smoke,
            "serialization": codec}


def _governed_edges():
    """Drive every governance path through the exchange on both
    backends and record exact error types; workers must all terminate
    (the pool context-managers join them) and the surfaced error must
    be the same GovernedError subclass the serial engine raises."""
    expr = dedup_chain(2)
    db = _dedup_db()
    statuses = {}
    once = RetryPolicy(attempts=1)

    for backend in ("thread", "process"):
        for cell, limits, expected in (
                ("steps", Limits(max_steps=5), BudgetExceeded),
                ("deadline", Limits(timeout=1e-9), DeadlineExceeded)):

            def edge(governor, limits=limits, backend=backend):
                return evaluate(expr, db, cache=None, limits=limits,
                                engine="parallel", workers=2,
                                parallel_backend=backend,
                                parallel_threshold=0.0)

            outcome = governed_cell(EXPERIMENT,
                                    f"edge-{cell}-{backend}", edge,
                                    policy=once)
            assert isinstance(outcome.error, expected), outcome.error
            statuses[f"{cell}-{backend}"] = outcome.status

    # pre-cancelled token: no worker may produce a result
    def cancelled_edge(governor):
        token = CancellationToken()
        token.cancel("benchmark abort")
        return evaluate(expr, db, cache=None, engine="parallel",
                        workers=2, parallel_threshold=0.0,
                        governor=ResourceGovernor(
                            Limits(max_steps=10**9), token=token))

    outcome = governed_cell(EXPERIMENT, "edge-cancelled",
                            cancelled_edge, policy=once)
    assert isinstance(outcome.error, Cancelled), outcome.error
    statuses["cancelled"] = outcome.status

    # powerset budget inside a barrier leaf: the blow-up happens in a
    # worker's oracle-evaluated leaf and must surface as the same
    # BudgetExceeded(budget="powerset") the serial engine raises
    atoms = Bag.from_counts({Tup(i): 1 for i in range(40)})
    powerset_expr = Dedup(AdditiveUnion(Powerset(var("T")),
                                        Powerset(var("T"))))

    def powerset_edge(governor):
        return evaluate(powerset_expr, {"T": atoms}, cache=None,
                        engine="parallel", workers=2,
                        parallel_threshold=0.0, powerset_budget=64)

    outcome = governed_cell(EXPERIMENT, "edge-powerset",
                            powerset_edge, policy=once)
    assert isinstance(outcome.error, BudgetExceeded), outcome.error
    assert outcome.error.details.get("budget") == "powerset"
    statuses["powerset"] = outcome.status
    return statuses
