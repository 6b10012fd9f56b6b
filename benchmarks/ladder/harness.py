"""The ladder's measuring loop: set-up, verification, timed passes.

Closed loop, one client: the next query is issued when the previous
one has been sealed.  One *pass* runs a workload's fixed query list
through one engine, each query from its source form (``Expr``, surface
text or SQL text) to a sealed ``Bag`` whose cardinality and distinct
count have been read, with a fresh plan cache per pass (a session
starting cold; repeats inside the pass hit it).  The thread pool and
the workers' compiled-segment caches stay warm across passes.

The value reported for a timing is the minimum of its samples, in raw
wall-clock seconds: the work is deterministic and CPU-bound, so what a
shared box adds to a sample is only ever noise.

Verification is outside the clock: every result is compared, by
``Bag`` equality, with a reference result whose sha256 digest has been
checked against the frozen tree-walker digests (``expected/``), and at
check scale against a live tree-walker run.  A run that degraded
(retry, respawn, demotion, a parallel query that ran no morsel) is a
failure, never a timing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.bag import Bag
from repro.core.expr import Dedup, Expr, var
from repro.engine import EngineStats, PlanCache, evaluate
from repro.sql import catalog_for_workspace, compile_sql
from repro.storage import ColumnSpec, Workspace
from repro.surface import parse

from workloads import SIZES, Inputs, Query, build_inputs

__all__ = ["ENGINES", "RUN_ENGINES", "END_TO_END", "WORKERS", "Env",
           "Tally", "PassResult", "setup", "to_expr", "run_query",
           "run_pass", "check_pass", "check_digests", "digest",
           "measure", "environment", "load_expected", "fresh_dir",
           "HERE", "OUT_DIR"]

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_DIR = os.path.join(HERE, "expected")

#: One client, two workers (one on a single-core box).
WORKERS = min(2, os.cpu_count() or 1)

#: engine label -> keyword arguments of ``repro.engine.evaluate``.
ENGINES: Dict[str, Dict[str, Any]] = {
    "tree": {"engine": "tree"},
    "physical": {"engine": "physical"},
    "codegen": {"engine": "codegen"},
    "parallel_thread": {"engine": "parallel", "workers": WORKERS,
                        "parallel_backend": "thread"},
    "parallel_process": {"engine": "parallel", "workers": WORKERS,
                         "parallel_backend": "process"},
}

#: The engines timed at run scale (the tree walker runs at check scale).
RUN_ENGINES = ("physical", "codegen", "parallel_thread",
               "parallel_process")

#: End-to-end metric names, in print order.
END_TO_END = ("setup_s", "tree_check_s", "physical_s", "codegen_s",
              "parallel_thread_s", "parallel_process_s", "peak_rss_mb")

#: Big enough that no plan is evicted inside one pass, so the hit
#: count of ``adhoc_text`` is exactly its number of repeated texts.
CACHE_CAPACITY = 1024

#: scale -> hard minimum of repetitions (set-ups, tree passes, timed
#: rounds).  A run lasts until both the window and the floors are
#: done: 20-27 s for BENCHMARK.json's run_seconds on the sizing box.
MINIMA = {"full": {"setups": 8, "tree": 5, "rounds": 12},
          "smoke": {"setups": 2, "tree": 2, "rounds": 3}}

#: Shares of a run's wall clock given to the tree-walker passes and to
#: the repeated set-ups; the run-scale engine passes get the rest.
TREE_SHARE = 0.10
SETUP_SHARE = 0.20


# ----------------------------------------------------------------------
# Set-up: seed -> ready to query
# ----------------------------------------------------------------------

@dataclass
class Env:
    """A workload's inputs, loaded and ready to query."""

    inputs: Inputs
    workspace: Workspace
    databases: Dict[str, Dict[str, Bag]]
    sql_catalog: Any
    #: seconds per set-up step (generate/save/load/analyze/first) and
    #: the workspace's size on disk
    steps: Dict[str, float] = field(default_factory=dict)
    bytes_on_disk: int = 0

    @property
    def queries(self) -> List[Query]:
        return self.inputs.queries


def _tree_size(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(root) for name in names)


def to_expr(query: Query, env: Env) -> Expr:
    """A query's source form -> ``Expr`` (the front ends' share)."""
    if query.form == "text":
        return parse(query.source)
    if query.form == "sql":
        return compile_sql(query.source, env.sql_catalog).expr
    return query.source


def run_query(engine: str, query: Query, env: Env,
              cache: Optional[PlanCache],
              stats: Optional[EngineStats] = None, **extra) -> Bag:
    """One query, source form to sealed bag, through one engine."""
    return evaluate(
        to_expr(query, env), env.databases[query.database],
        cache=cache, stats=stats,
        catalog=env.workspace if query.use_catalog else None,
        semiring=query.semiring, **ENGINES[engine], **extra)


def setup(workload: str, seed: int, scale: str, tier: str,
          root: str) -> Env:
    """Seed -> ready to query: generate, persist, reload, ANALYZE,
    and push one trivial query through every engine (which spawns the
    thread pool on first use and a process pool every time)."""
    clock = time.perf_counter
    steps: Dict[str, float] = {}
    start = clock()
    inputs = build_inputs(workload, seed, scale, tier)
    steps["generate"] = clock() - start

    start = clock()
    created = Workspace.create(root)
    for name, bag in inputs.relations.items():
        columns = inputs.columns.get(name)
        created.save_relation(
            name, bag,
            columns=[ColumnSpec(column) for column in columns]
            if columns else None)
    steps["save"] = clock() - start

    start = clock()
    workspace = Workspace.open(root)
    main = workspace.database()
    steps["load"] = clock() - start

    start = clock()
    workspace.analyze()
    steps["analyze"] = clock() - start

    databases = {"main": main}
    databases.update(inputs.side_databases)
    env = Env(inputs, workspace, databases,
              catalog_for_workspace(workspace), steps,
              _tree_size(root))
    start = clock()
    trivial = Query("trivial", "expr", Dedup(var(inputs.probe[0])))
    for engine in ENGINES:
        run_query(engine, trivial, env, cache=None)
    steps["first_queries"] = clock() - start
    return env


# ----------------------------------------------------------------------
# Passes, digests, the failure tally
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """attempted / failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def digest(bag: Bag) -> Dict[str, Any]:
    """Cardinality, distinct count, sha256 of the canonical rendering
    (``repr`` sorts by ``canonical_key`` at every nesting level)."""
    return {"cardinality": bag.cardinality,
            "distinct": bag.distinct_count,
            "sha256": hashlib.sha256(
                repr(bag).encode("utf-8")).hexdigest()}


def degradation(engine: str, query: Query, stats: EngineStats,
                at_run_scale: bool) -> Optional[str]:
    """Why this run must not be timed as what its label says."""
    if stats.demotions or stats.morsel_retries or stats.pool_respawns:
        return (f"degraded (retries={stats.morsel_retries}, "
                f"respawns={stats.pool_respawns}, "
                f"demotions={stats.demotions})")
    if not engine.startswith("parallel") or not at_run_scale:
        return None
    if query.exchange is True and stats.morsels_executed == 0:
        return "parallel query executed zero morsels (serial path)"
    if query.exchange is False and stats.partitions_created > 0:
        return "exchange inserted where the workload bypasses it"
    return None


@dataclass
class PassResult:
    seconds: float                   # wall clock
    results: List[Any]               # Bag, or the exception raised
    stats: List[EngineStats]
    query_seconds: List[float]
    cache: PlanCache


def run_pass(engine: str, env: Env,
             runner: Callable[..., Bag] = run_query) -> PassResult:
    """One timed pass.  The collector is off inside the clock (as
    ``timeit`` does): a generation-2 sweep over the resident relations
    lands on whichever pass happens to trigger it."""
    cache = PlanCache(capacity=CACHE_CAPACITY)
    results: List[Any] = []
    all_stats: List[EngineStats] = []
    query_seconds: List[float] = []
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        begin = clock()
        for query in env.queries:
            stats = EngineStats()
            start = clock()
            try:
                result = runner(engine, query, env, cache, stats)
                # consume the seal: the two numbers every digest holds
                _ = (result.cardinality, result.distinct_count)
            except Exception as error:  # counted as a failed operation
                result = error
            query_seconds.append(clock() - start)
            results.append(result)
            all_stats.append(stats)
        seconds = clock() - begin
    finally:
        gc.enable()
    return PassResult(seconds, results, all_stats, query_seconds, cache)


def check_pass(engine: str, env: Env, outcome: PassResult,
               reference: List[Bag], tally: Tally,
               at_run_scale: bool) -> None:
    """Count every evaluation of a pass: an exception, a result that
    differs from the reference, or a degraded run is a failure."""
    for query, result, stats, expected in zip(
            env.queries, outcome.results, outcome.stats, reference):
        label = f"{engine}:{query.name}"
        if isinstance(result, Exception):
            tally.record(False, f"{label}: {type(result).__name__}: "
                                f"{result}")
            continue
        why = degradation(engine, query, stats, at_run_scale)
        if why is not None:
            tally.record(False, f"{label}: {why}")
        elif result != expected:
            tally.record(False, f"{label}: result differs from the "
                                "reference")
        else:
            tally.record(True)


def load_expected(seed: int) -> Optional[Dict[str, Any]]:
    path = os.path.join(EXPECTED_DIR, f"seed-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_digests(env: Env, results: List[Bag],
                  frozen: Optional[Dict[str, Any]], who: str,
                  tally: Tally) -> None:
    """Compare each distinct query's digest with the frozen one."""
    if frozen is None:
        return
    seen = set()
    for query, result in zip(env.queries, results):
        if query.name in seen or not isinstance(result, Bag):
            continue
        seen.add(query.name)
        ok = digest(result) == frozen.get(query.name)
        tally.record(ok, f"{who}:{query.name}: digest differs from "
                         "expected/")


# ----------------------------------------------------------------------
# The measurement run (--trace 0)
# ----------------------------------------------------------------------

def _spread(samples: List[float]) -> Dict[str, Any]:
    """The minimum (the reported value) and, beside it, the median, the
    sample count and the highest percentile that still has ten samples
    beyond it."""
    ordered = sorted(samples)
    out = {"min": ordered[0], "median": statistics.median(ordered),
           "samples": len(ordered)}
    if len(ordered) >= 20:
        index = len(ordered) - 11
        out["tail"] = ordered[index]
        out["tail_percentile"] = round(100.0 * index / len(ordered), 1)
    return out


def fresh_dir(base: str, label: str) -> str:
    path = os.path.join(base, label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(workload: str, seed: int, seconds: float,
            scale: str = "full") -> Dict[str, Any]:
    """One workload, all seven end-to-end metrics, everything
    verified.  ``seconds`` is the wall-clock budget.

    Every metric is sampled across the *whole* window: a round is one
    pass per run-scale engine, then (while their shares of the elapsed
    time allow) one tree-walker pass at check scale and one complete
    set-up in a fresh directory, whose copy of the inputs the next
    rounds query.  The value of a timing is the minimum of its samples.
    """
    clock = time.perf_counter
    origin = clock()
    minima = MINIMA[scale]
    tally = Tally()
    sizes = SIZES[scale][workload]
    same_inputs = sizes["check"] == sizes["run"]
    frozen = load_expected(seed) if scale == "full" else None
    frozen = (frozen or {}).get(workload)
    base = fresh_dir(OUT_DIR, f"run-{workload}-{os.getpid()}")
    samples: Dict[str, List[float]] = {
        name: [] for name in END_TO_END if name.endswith("_s")}
    query_samples: List[float] = []

    def timed_setup() -> Env:
        root = os.path.join(base, f"setup{len(samples['setup_s'])}")
        gc.collect()
        start = clock()
        fresh = setup(workload, seed, scale, "run", root)
        samples["setup_s"].append(clock() - start)
        return fresh

    def timed_pass(engine: str, where: Env, reference: List[Bag],
                   at_run_scale: bool) -> PassResult:
        outcome = run_pass(engine, where)
        check_pass(engine, where, outcome, reference, tally,
                   at_run_scale)
        name = "tree_check_s" if engine == "tree" else f"{engine}_s"
        samples[name].append(outcome.seconds)
        return outcome

    try:
        env = timed_setup()
        check_env = env if same_inputs else setup(
            workload, seed, scale, "check", os.path.join(base, "check"))

        # -- check scale: every engine against the live oracle ---------
        # (the oracle has no reference but itself and the frozen file)
        oracle = run_pass("tree", check_env).results
        check_digests(check_env, oracle, frozen and frozen["check"],
                      "tree", tally)
        timed_pass("tree", check_env, oracle, False)
        for engine in RUN_ENGINES:
            check_pass(engine, check_env, run_pass(engine, check_env),
                       oracle, tally, False)

        # -- run scale: one untimed warm-up pass per engine ------------
        # (the first engine's results become the reference once their
        # digests match expected/; with no frozen digests for this
        # seed the engines can only be checked against each other)
        reference: Optional[List[Bag]] = None
        for engine in RUN_ENGINES:
            outcome = run_pass(engine, env)
            if reference is None:
                reference = outcome.results
                check_digests(env, reference, frozen and frozen["run"],
                              engine, tally)
            check_pass(engine, env, outcome, reference, tally, True)

        # -- timed rounds ----------------------------------------------
        rounds = 0
        while True:
            for engine in RUN_ENGINES:
                outcome = timed_pass(engine, env, reference, True)
                if engine == "physical":
                    query_samples.extend(outcome.query_seconds)
            rounds += 1
            elapsed = clock() - origin
            if elapsed >= seconds and rounds >= minima["rounds"]:
                break
            if sum(samples["tree_check_s"]) < TREE_SHARE * elapsed:
                timed_pass("tree", check_env, oracle, False)
            if sum(samples["setup_s"]) < SETUP_SHARE * elapsed:
                env = None      # one copy of the inputs at a time
                env = timed_setup()
        while len(samples["tree_check_s"]) < minima["tree"]:
            timed_pass("tree", check_env, oracle, False)
        while len(samples["setup_s"]) < minima["setups"]:
            env = None
            env = timed_setup()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    usage = max(resource.getrusage(who).ru_maxrss for who in
                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    spreads = {name: _spread(taken) for name, taken in samples.items()}
    metrics = {name: {"value": spread["min"], "unit": "s"}
               for name, spread in spreads.items()}
    metrics["peak_rss_mb"] = {"value": usage / 1024.0, "unit": "MiB"}
    diagnostics: Dict[str, Any] = {
        "spread": spreads, "rounds": rounds,
        "queries_per_pass": len(env.queries),
        "setup_steps_s": env.steps,
        "query_p50_s": statistics.median(query_samples),
    }
    ordered = sorted(query_samples)
    if len(ordered) >= 20:
        diagnostics["query_tail_s"] = ordered[len(ordered) - 11]
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons,
        "verified": ("frozen+check-scale" if frozen is not None
                     else "check-scale"),
        "metrics": metrics, "diagnostics": diagnostics,
        "wall_s": clock() - origin,
    }


# ----------------------------------------------------------------------
# The environment block
# ----------------------------------------------------------------------

def environment() -> Dict[str, Any]:
    root = os.path.dirname(os.path.dirname(HERE))
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # the driver's checkout is not a repo
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"commit": commit, "python": platform.python_version(),
            "nproc": cores, "workers": WORKERS,
            "loadavg_1m": round(load, 2), "noisy": load > cores}
