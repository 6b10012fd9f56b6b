#!/usr/bin/env python3
"""The ladder: five workloads x five engines, absolute seconds.

    python3 benchmarks/ladder/run.py                       # all five workloads
    python3 benchmarks/ladder/run.py --workload join_map --seed 7 \\
            --seconds 20 --trace 0                         # one run (driver form)
    python3 benchmarks/ladder/run.py --workload join_map --trace 1
    python3 benchmarks/ladder/run.py --agree --seed 1993   # two sets, gaps vs bounds
    python3 benchmarks/ladder/run.py --freeze              # rewrite expected/

Each workload runs in a subprocess of its own with ``PYTHONHASHSEED=0``
(shard layouts and string-keyed dict orders repeat).  The last line a
``--workload`` run prints is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCES = os.path.join(ROOT, "src")

FROZEN_SEEDS = (1993, 2024)


def _arguments(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "(default: all five, one after the other)")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock budget of one run "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--agree", action="store_true",
                        help="run two full sets of the same seed and "
                        "compare every metric with its bound")
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite expected/seed-*.json from the "
                        "tree walker at run scale (slow)")
    return parser.parse_args(argv)


def _contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# In the workload subprocess
# ----------------------------------------------------------------------

def _beside(spread: Optional[Dict[str, Any]]) -> str:
    """Sample count, median and tail: the diagnostics printed beside a
    timing (whose value is the minimum)."""
    if not spread:
        return ""
    line = f"   n={spread['samples']}  median {spread['median']:.6g}"
    if "tail" in spread:
        line += (f"  p{spread['tail_percentile']:g} "
                 f"{spread['tail']:.6g}")
    return line


def _print_run(result: Dict[str, Any], box: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed={result['seed']} "
          f"scale={result['scale']}  env={json.dumps(box)}")
    diagnostics = result.get("diagnostics", {})
    spreads = diagnostics.get("spread", {})
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}"
              + _beside(spreads.get(name)))
    for name in ("query_p50_s", "query_tail_s", "rounds",
                 "queries_per_pass"):
        if name in diagnostics:
            print(f"  ({name} {diagnostics[name]:.6g})")
    for engine, shares in result.get("layer_table", {}).items():
        cells = "  ".join(f"{layer} {share:.1%}"
                          for layer, share in shares.items())
        print(f"  [{engine}] {cells}")
    if "trace_file" in result:
        print(f"  trace written to "
              f"{os.path.relpath(result['trace_file'], ROOT)}")
    print(f"  attempted {result['attempted']}  failed "
          f"{result['failed']}  verified: {result['verified']}  "
          f"wall {result['wall_s']:.1f} s")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")


def _child(args: argparse.Namespace) -> int:
    """One workload, in this (hash-seed-pinned) process."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SOURCES)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else _contract()["run_seconds"])
    if args.freeze:
        from freeze import frozen_digests
        print(json.dumps(frozen_digests(args.workload, args.seed)))
        return 0
    from harness import environment, measure
    box = environment()         # the load average is the one at start
    if args.trace:
        from tracing import trace
        result = trace(args.workload, args.seed, seconds, args.scale)
    else:
        result = measure(args.workload, args.seed, seconds, args.scale)
    _print_run(result, box)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# ----------------------------------------------------------------------
# In the parent: one subprocess per workload
# ----------------------------------------------------------------------

def _spawn(workload: str, args: argparse.Namespace,
           extra: Optional[List[str]] = None,
           echo: bool = True) -> Dict[str, Any]:
    """Run one workload in its own subprocess; relay what it prints;
    return its last line, parsed."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--scale", args.scale]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    command += extra or []
    done = subprocess.run(
        command, env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _all_workloads() -> List[str]:
    return [entry["name"] for entry in _contract()["workloads"]]


def _run_all(args: argparse.Namespace) -> int:
    failed = 0
    for workload in _all_workloads():
        failed += _spawn(workload, args)["failed"]
    return 1 if failed else 0


def _compare(workload: str, first: Dict[str, Any],
             second: Dict[str, Any], bounds: Dict[str, float]) -> int:
    """Print each metric's gap beside its bound; count the breaches."""
    breaches = 0
    if first["failed"] or second["failed"]:
        breaches += 1
        print(f"  {workload}: FAILED operations")
    for name, bound in bounds.items():
        before = first["metrics"][name]["value"]
        after = second["metrics"][name]["value"]
        gap = after / before - 1.0
        verdict = "ok" if abs(gap) <= bound else "BREACH"
        breaches += verdict != "ok"
        print(f"  {workload:<14} {name:<20} {before:>11.5g} "
              f"{after:>11.5g}  gap {gap:+7.2%}  bound "
              f"{bound:.0%}  {verdict}")
    return breaches


def _lower(one: Dict[str, Any], other: Dict[str, Any]) -> Dict[str, Any]:
    """Two runs of one workload read as one: what the box adds to a
    measurement is noise, so each metric keeps its lower value."""
    return {"failed": one["failed"] + other["failed"],
            "metrics": {name: min(metric, other["metrics"][name],
                                  key=lambda each: each["value"])
                        for name, metric in one["metrics"].items()}}


def _agree(args: argparse.Namespace) -> int:
    """Two back-to-back sets of the same code and seed must agree
    within the benchmark's own bounds, metric by metric.  A workload
    that breaches is measured once more in both sets before the breach
    counts: the box has slow stretches of a minute in which even the
    minimum of twelve passes reads a quarter high (README.md, "Noise"),
    and a real regression survives a second look."""
    bounds = {entry["name"]: entry["bound"]
              for entry in _contract()["end_to_end"]}
    breaches = 0
    sets = []
    for number in (1, 2):
        print(f"# set {number}")
        sets.append({workload: _spawn(workload, args)
                     for workload in _all_workloads()})
    print(f"# agreement, seed {args.seed} "
          "(gap = set 2 over set 1, minus one)")
    for workload in _all_workloads():
        first, second = sets[0][workload], sets[1][workload]
        if _compare(workload, first, second, bounds):
            print(f"# {workload}: measuring both sets once more")
            first = _lower(first, _spawn(workload, args, echo=False))
            second = _lower(second, _spawn(workload, args, echo=False))
            breaches += _compare(workload, first, second, bounds)
    print(f"# {breaches} breach(es)")
    return 1 if breaches else 0


def _freeze(args: argparse.Namespace) -> int:
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for seed in FROZEN_SEEDS:
        args.seed = seed
        document = {workload: _spawn(workload, args, ["--freeze"],
                                     echo=False)
                    for workload in _all_workloads()}
        path = os.path.join(HERE, "expected", f"seed-{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _arguments(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"the program under test is missing: no {SOURCES}/repro",
              file=sys.stderr)
        return 2
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") == "0":
            return _child(args)
        _spawn(args.workload, args,
               ["--freeze"] if args.freeze else None)
        return 0
    if args.freeze:
        return _freeze(args)
    if args.agree:
        return _agree(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
