"""Consolidate the scattered benchmark outputs into one perf ledger.

The experiment batteries each persist a human table
(``results/<e>.txt``), a governed-status file
(``results/<e>.status.json``) and — from E22 on — a machine-readable
JSON.  This script distils the headline numbers of the *performance*
experiments into ``results/BENCH_TRAJECTORY.json``: one deterministic,
sorted, timestamp-free document per repository state, so successive
PRs accumulate a machine-readable perf trajectory instead of diffing
ASCII tables.

Collected headlines:

* **e20_engine** — final sym-diff speedup of the physical engine over
  the tree walker (the ``>= 5x`` acceptance number);
* **e21_testkit** — full-matrix differential throughput in cases/sec;
* **e22_parallel** — per-workload scaling cells (with bytes shipped
  per cell), the acceptance gates with their passed / failed /
  skipped-with-reason verdicts and the CPU count they were judged on,
  the codec-vs-pickle serialization bytes, and the governed-edge
  statuses;
* **e23_planner** — staged-planner compile overhead (worst mean
  compile across workloads and opt levels) and the opt0-vs-opt2
  end-to-end plan-quality speedups;
* **e24_resilience** — fault-tolerant parallel execution under
  injected worker-crash chaos: completion/retry/demotion counts per
  fault probability and the zero-fault latency overhead.
* **e25_storage** — workspace load throughput, catalog-vs-scan
  compile overhead (zero-scan compiles against ANALYZEd relations),
  the opt0-vs-opt2-with-catalog quality speedup, and the selection
  q-error trend of histogram vs flat selectivity across scales.
* **e26_columnar** — closed (PR 18 deleted the row interpreter it
  compared against; the bench went with it): the last persisted run
  of fused step programs vs the stream engine — per-cell speedups on
  the three fused-pipeline headline cells, their gated geometric
  mean, and the report-only satellite rows — kept as the record.
* **e27_semiring** — the semiring-generalized multiplicity core: the
  gated N fast-path overhead pin (structural ``_sr``-free codegen
  source plus the measured tagged-vs-default ratio), and the
  report-only Bool-vs-N duplicate-heavy and provenance
  annotation-size cells.

Usage::

    PYTHONPATH=src python benchmarks/collect.py        # rewrite ledger
    PYTHONPATH=src python benchmarks/collect.py --check  # verify fresh

``--check`` exits non-zero when the persisted ledger disagrees with
what the current result files produce (CI guards against stale
ledgers this way).  Missing experiments are recorded as ``null`` —
the ledger never fails just because a battery has not been run.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
LEDGER = os.path.join(RESULTS_DIR, "BENCH_TRAJECTORY.json")


def _read(name: str) -> Optional[str]:
    path = os.path.join(RESULTS_DIR, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _statuses(experiment: str) -> Optional[Dict[str, str]]:
    text = _read(f"{experiment}.status.json")
    if text is None:
        return None
    document = json.loads(text)
    return {str(cell["cell"]): str(cell["status"])
            for cell in document.get("cells", [])}


def collect_e20() -> Optional[Dict[str, Any]]:
    """Headline: the last (largest) sym-diff row's speedup column."""
    text = _read("e20_engine.txt")
    if text is None:
        return None
    speedups = re.findall(
        r"^sym-diff\s+(\w+)\s+\(n=(\d+).*?([\d.]+)x\s*$",
        text, re.MULTILINE)
    if not speedups:
        return None
    label, size, speedup = speedups[-1]
    return {"headline": "sym-diff chain, engine vs tree walker",
            "cell": f"sym-diff {label} (n={size})",
            "speedup": float(speedup),
            "statuses": _statuses("e20_engine")}


def collect_e21() -> Optional[Dict[str, Any]]:
    """Headline: the full seven-way matrix's cases/sec."""
    text = _read("e21_testkit.txt")
    if text is None:
        return None
    match = re.search(
        r"^full-matrix\+laws\s+(\d+)\s+[\d.]+\s+([\d.]+)",
        text, re.MULTILINE)
    if match is None:
        return None
    return {"headline": "differential matrix throughput",
            "cases": int(match.group(1)),
            "cases_per_sec": float(match.group(2)),
            "statuses": _statuses("e21_testkit")}


def collect_e22() -> Optional[Dict[str, Any]]:
    """Headline: scaling cells, acceptance gates (passed / failed /
    skipped-with-reason), codec-vs-pickle bytes, governed edges."""
    text = _read("e22_parallel.json")
    if text is None:
        return None
    document = json.loads(text)
    workloads = {}
    for entry in document.get("workloads", []):
        folded = {
            "serial_seconds": round(entry["serial_seconds"], 4),
            "cells": [{"workers": cell["workers"],
                       "seconds": round(cell["seconds"], 4),
                       "speedup": round(cell["speedup"], 3),
                       "bytes_shipped": cell.get("bytes_shipped")}
                      for cell in entry["cells"]],
        }
        if "thread_2w_speedup" in entry:
            folded["thread_2w_speedup"] = round(
                entry["thread_2w_speedup"], 3)
        workloads[entry["workload"]] = folded
    serialization = document.get("serialization")
    if serialization is not None:
        serialization = {
            "morsels": serialization.get("morsels"),
            "codec_bytes": serialization.get("codec_bytes"),
            "pickle_bytes": serialization.get("pickle_bytes"),
            "bytes_ratio": round(
                serialization.get("bytes_ratio", 0.0), 3),
        }
    gates = document.get("gates")
    if gates is not None:
        gates = {name: {key: (round(value, 3)
                              if isinstance(value, float) else value)
                        for key, value in gate.items()}
                 for name, gate in gates.items()}
    return {"headline": "morsel-driven scaling, process backend",
            "smoke": document.get("smoke"),
            "cpu_count": document.get("cpu_count"),
            "speedup_at_4_workers": round(
                document.get("speedup_at_4_workers", 0.0), 3),
            "speedup_at_2_workers": round(
                document.get("speedup_at_2_workers", 0.0), 3),
            "gates": gates,
            "serialization": serialization,
            "workloads": workloads,
            "governed": document.get("governed"),
            "statuses": _statuses("e22_parallel")}


def collect_e23() -> Optional[Dict[str, Any]]:
    """Headline: compile overhead + opt0-vs-opt2 quality speedups."""
    text = _read("e23_planner.json")
    if text is None:
        return None
    document = json.loads(text)
    quality = {
        entry["workload"]: {
            "opt0_seconds": round(entry["opt0_seconds"], 4),
            "opt2_seconds": round(entry["opt2_seconds"], 4),
            "speedup": round(entry["speedup"], 3),
        }
        for entry in document.get("quality", [])
    }
    return {"headline": "staged planner compile overhead + "
                        "opt0-vs-opt2 quality",
            "smoke": document.get("smoke"),
            "worst_mean_compile_seconds": round(
                document.get("worst_mean_compile_seconds", 0.0), 6),
            "best_speedup": round(
                document.get("best_speedup", 0.0), 3),
            "quality": quality,
            "statuses": _statuses("e23_planner")}


def collect_e24() -> Optional[Dict[str, Any]]:
    """Headline: chaos-survival cells + zero-fault overhead."""
    text = _read("e24_resilience.json")
    if text is None:
        return None
    document = json.loads(text)
    workloads = {
        entry["workload"]: {
            "baseline_seconds": round(entry["baseline_seconds"], 4),
            "zero_fault_overhead": round(
                entry.get("zero_fault_overhead", 0.0), 4),
            "cells": [{"probability": cell["probability"],
                       "completed": cell["completed"],
                       "runs": cell["runs"],
                       "retries": cell["retries"],
                       "demotions": cell["demotions"],
                       "seconds": round(cell["seconds"], 4),
                       "status": cell["status"]}
                      for cell in entry["cells"]],
        }
        for entry in document.get("workloads", [])
    }
    return {"headline": "fault-tolerant parallel execution under "
                        "worker-crash chaos, thread backend",
            "smoke": document.get("smoke"),
            "cpu_count": document.get("cpu_count"),
            "workers": document.get("workers"),
            "repeats": document.get("repeats"),
            "workloads": workloads,
            "statuses": _statuses("e24_resilience")}


def collect_e25() -> Optional[Dict[str, Any]]:
    """Headline: storage round-trip throughput + what statistics buy."""
    text = _read("e25_storage.json")
    if text is None:
        return None
    document = json.loads(text)
    load = [{"rows": entry["rows"],
             "save_rows_per_sec": round(entry["save_rows_per_sec"], 1),
             "load_rows_per_sec": round(entry["load_rows_per_sec"], 1),
             "analyze_seconds": round(entry["analyze_seconds"], 4)}
            for entry in document.get("load", [])]
    compile_cell = document.get("compile") or {}
    qerror = [{"scale": entry["scale"],
               "catalog_q_error": round(entry["catalog_q_error"], 4),
               "flat_q_error": round(entry["flat_q_error"], 4)}
              for entry in document.get("qerror", [])]
    return {"headline": "persistent workspaces + statistics catalog: "
                        "load throughput, zero-scan compiles, "
                        "data-driven plan quality",
            "smoke": document.get("smoke"),
            "load": load,
            "compile": {
                "catalog_mean_seconds": round(
                    compile_cell.get("catalog_mean_seconds", 0.0), 6),
                "cold_scan_mean_seconds": round(
                    compile_cell.get("cold_scan_mean_seconds", 0.0),
                    6),
                "catalog_scans": compile_cell.get("catalog_scans"),
                "cold_scans": compile_cell.get("cold_scans"),
            },
            "quality_speedup": round(
                document.get("quality_speedup", 0.0), 3),
            "worst_catalog_q_error": round(
                document.get("worst_catalog_q_error", 0.0), 4),
            "qerror": qerror,
            "statuses": _statuses("e25_storage")}


def collect_e26() -> Optional[Dict[str, Any]]:
    """Headline: gated geomean of the fused-pipeline speedups (the
    experiment's last persisted run; nothing regenerates it)."""
    text = _read("e26_columnar.json")
    if text is None:
        return None
    document = json.loads(text)
    cells = {entry["cell"]: {
        "physical_seconds": round(entry["physical_seconds"], 4),
        "codegen_seconds": round(entry["codegen_seconds"], 4),
        "speedup": round(entry["speedup"], 3)}
        for entry in document.get("headline", [])}
    satellite = {entry["cell"]: round(entry["speedup"], 3)
                 for entry in document.get("satellite", [])}
    return {"headline": "codegen engine vs stream engine, "
                        "fused-pipeline geomean",
            "smoke": document.get("smoke"),
            "geomean": round(document.get("geomean", 0.0), 3),
            "geomean_floor": document.get("geomean_floor"),
            "cells": cells,
            "satellite": satellite,
            "fused_segments": document.get("fused_segments"),
            "statuses": _statuses("e26_columnar")}


def collect_e27() -> Optional[Dict[str, Any]]:
    """Headline: the N fast-path overhead pin and the generic-domain
    cost/size cells."""
    text = _read("e27_semiring.json")
    if text is None:
        return None
    document = json.loads(text)
    fast_path = document.get("fast_path", {})
    return {"headline": "semiring core: N fast-path overhead pin",
            "smoke": document.get("smoke"),
            "overhead": fast_path.get("overhead"),
            "overhead_ceiling": document.get("overhead_ceiling"),
            "structural_pin": document.get("structural_pin"),
            "bool_vs_nat": document.get("bool_vs_nat"),
            "provenance": document.get("provenance"),
            "statuses": _statuses("e27_semiring")}


def build_ledger() -> Dict[str, Any]:
    return {
        "comment": ("per-PR perf trajectory; regenerate with "
                    "PYTHONPATH=src python benchmarks/collect.py"),
        "experiments": {
            "e20_engine": collect_e20(),
            "e21_testkit": collect_e21(),
            "e22_parallel": collect_e22(),
            "e23_planner": collect_e23(),
            "e24_resilience": collect_e24(),
            "e25_storage": collect_e25(),
            "e26_columnar": collect_e26(),
            "e27_semiring": collect_e27(),
        },
    }


def main(argv) -> int:
    ledger = build_ledger()
    rendered = json.dumps(ledger, indent=2, sort_keys=True) + "\n"
    if "--check" in argv:
        current = _read("BENCH_TRAJECTORY.json")
        if current != rendered:
            sys.stderr.write(
                "BENCH_TRAJECTORY.json is stale; regenerate with "
                "PYTHONPATH=src python benchmarks/collect.py\n")
            return 1
        print("BENCH_TRAJECTORY.json is fresh")
        return 0
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(LEDGER, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print(f"wrote {LEDGER}")
    for name, entry in sorted(ledger["experiments"].items()):
        status = "missing" if entry is None else entry["headline"]
        print(f"  {name}: {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
