"""The traced run: per-layer attribution, measured from outside.

Nothing under ``src/`` is instrumented.  A traced pass does not call
``evaluate()``; it replays it step by step — parse, capture,
``planner.compile``, ``plan.execute`` (which seals) — through the same
public functions, recording one in-memory span per call.  A layer is a repo
module; a layer's self time is its spans' duration minus the part
their child spans cover.  On top of the passes the run

* replays every exchange's legs on the query's real leaves
  (split, cold segment compile, per-shard execute, codec, merge), and
* probes single public kernels on the workload's real count dicts.

End-to-end metrics are never taken from here: the untraced pass is
timed beside the traced one only to report what tracing costs.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.eval import Evaluator
from repro.core.nest import nest_bag, unnest_bag
from repro.core.ops import powerset
from repro.core.semiring import resolve_semiring, semiring_name
from repro.engine import EngineStats, PlanCache
from repro.engine import kernels
from repro.engine.columnar import (
    c_dedup, c_hash_join, c_sym_diff_dedup, to_columnar,
)
from repro.engine.parallel import (
    ParallelConfig, ParallelPolicy, adaptive_shards,
    clear_segment_cache, decode_shard, encode_shard,
)
from repro.engine.parallel.exchange import Exchange
from repro.engine.parallel.partition import (
    compiled_segment_for, execute_program, merge_counts, split_counts,
)
from repro.engine.physical import ExecContext
from repro.guard import Limits
from repro.planner import PassConfig, PlanContext
from repro.planner import compile as planner_compile
from repro.sql import compile_sql
from repro.surface import parse

from harness import (
    ENGINES, OUT_DIR, RUN_ENGINES, WORKERS, Env, PassResult, Tally,
    check_digests, check_pass, fresh_dir, load_expected, run_pass,
    run_query, setup, to_expr,
)
from workloads import SIZES, Query, symdiff_chain

__all__ = ["Tracer", "replay_query", "trace"]

#: Raw spans kept in the trace file (the table is always complete).
MAX_RAW_SPANS = 300

#: Rows per side of the hash-join kernel probe (a full cross of two
#: 8000-row multigraphs on a narrow key would dwarf the run itself).
PROBE_JOIN_ROWS = 2000

#: Planner stage -> (layer, span name) of its synthetic child span.
_STAGE_LAYER = {"typecheck": ("planner", "typecheck"),
                "normalize": ("planner", "normalize"),
                "rewrite": ("planner", "rewrite"),
                "lower": ("engine.lower", "lower"),
                "codegen": ("engine.codegen", "compile")}

_EXECUTE_LAYER = {"physical": "engine.physical",
                  "codegen": "engine.codegen",
                  "parallel_thread": "engine.parallel.exchange",
                  "parallel_process": "engine.parallel.exchange"}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Span:
    """One timed call.  Used as its own context manager."""

    __slots__ = ("tracer", "id", "parent", "layer", "name", "query",
                 "start", "end", "rows_in", "rows_out")

    def __enter__(self) -> "Span":
        tracer = self.tracer
        tracer.stack.append(self)
        tracer.spans.append(self)
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = self.tracer.clock()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder for one engine's traced pass."""

    def __init__(self, engine: str):
        self.engine = engine
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.clock = time.perf_counter
        self.nodes_evaluated = 0

    def span(self, layer: str, name: str, query: str = "",
             rows_in: Optional[int] = None) -> Span:
        span = Span()
        span.tracer = self
        span.id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        span.parent = None if parent is None else parent.id
        span.layer = layer
        span.name = name
        span.query = query or (parent.query if parent else "")
        span.rows_in = rows_in
        span.rows_out = None
        span.end = None
        return span

    def child(self, parent: Span, layer: str, name: str,
              start: float, seconds: float) -> None:
        """A synthetic child span: the planner times its own stages
        (``StageRecord.seconds``); lay them end to end in the parent."""
        span = self.span(layer, name)
        span.parent = parent.id
        span.query = parent.query
        span.start = start
        span.end = start + seconds
        self.spans.append(span)

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> List[float]:
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def by_layer(self) -> Dict[Tuple[str, str], float]:
        """``(layer, span name) -> summed self time``."""
        table: Dict[Tuple[str, str], float] = {}
        for span, own in zip(self.spans, self.self_times()):
            key = (span.layer, span.name)
            table[key] = table.get(key, 0.0) + own
        return table

    def total(self) -> float:
        return sum(span.end - span.start for span in self.spans
                   if span.parent is None)

    def raw(self, limit: int) -> List[Dict[str, Any]]:
        origin = self.spans[0].start if self.spans else 0.0
        return [{"id": span.id, "parent": span.parent,
                 "engine": self.engine, "query": span.query,
                 "layer": span.layer, "name": span.name,
                 "start_s": span.start - origin,
                 "end_s": span.end - origin,
                 "rows_in": span.rows_in, "rows_out": span.rows_out}
                for span in self.spans[:limit]]


# ----------------------------------------------------------------------
# evaluate(), replayed step by step
# ----------------------------------------------------------------------

def _stage_children(tracer: Tracer, parent: Span, report) -> None:
    cursor = parent.start
    for record in report.stages:
        target = _STAGE_LAYER.get(record.stage)
        if target is None or record.seconds <= 0.0:
            continue
        tracer.child(parent, target[0], target[1], cursor,
                     record.seconds)
        cursor += record.seconds


def _adapted(bindings: Dict[str, Any], expr, sr) -> Dict[str, Any]:
    referenced = expr.free_vars()
    return {name: (sr.adapt_bag(value, name)
                   if isinstance(value, Bag) and name in referenced
                   else value)
            for name, value in bindings.items()}


def _prepared(query: Query, env: Env):
    """A query's ``Expr``, semiring and (adapted) bindings: what
    ``evaluate()`` has in hand before it plans."""
    expr = to_expr(query, env)
    sr = resolve_semiring(query.semiring)
    bindings = dict(env.databases[query.database])
    if sr is not None:
        bindings = _adapted(bindings, expr, sr)
    return expr, sr, bindings


def _distinct_queries(env: Env) -> List[Query]:
    seen: Dict[str, Query] = {}
    for query in env.queries:
        seen.setdefault(query.name, query)
    return list(seen.values())


def _plan_context(engine: str, query: Query, env: Env, bindings,
                  sr, cache, stats) -> Tuple[PlanContext, Any]:
    """The ``PlanContext`` and ``ParallelConfig`` that
    ``repro.engine.evaluate`` builds for this engine label."""
    options = ENGINES[engine]
    name = options["engine"]
    config = PassConfig.for_level(3 if name == "codegen" else 1,
                                  semiring=semiring_name(sr))
    policy = parallel = None
    if name == "parallel":
        policy = ParallelPolicy()
        parallel = ParallelConfig(workers=options["workers"],
                                  backend=options["parallel_backend"])
    context = PlanContext.capture(
        bindings, catalog=env.workspace if query.use_catalog else None,
        engine=name, cache=cache, engine_stats=stats, parallel=policy,
        config=config)
    return context, parallel


def _compiled(engine: str, query: Query, env: Env):
    """One cold compile of ``query`` as ``engine`` would do it."""
    expr, sr, bindings = _prepared(query, env)
    context, _ = _plan_context(engine, query, env, bindings, sr,
                               None, None)
    return planner_compile(expr, context)


def replay_query(tracer: Tracer, engine: str, query: Query, env: Env,
                 cache, stats: EngineStats) -> Bag:
    """One query through one engine, every layer boundary a span."""
    with tracer.span("harness", "query", query=query.name):
        if query.form == "text":
            with tracer.span("surface", "parse",
                             rows_in=len(query.source)):
                expr = parse(query.source)
        elif query.form == "sql":
            with tracer.span("sql", "compile",
                             rows_in=len(query.source)):
                expr = compile_sql(query.source, env.sql_catalog).expr
        else:
            expr = query.source
        database = env.databases[query.database]

        if engine == "tree":
            evaluator = Evaluator(semiring=query.semiring)
            config = PassConfig.for_level(
                0, semiring=semiring_name(evaluator.semiring))
            with tracer.span("planner", "compile") as span:
                compiled = planner_compile(
                    expr, PlanContext(engine="tree", config=config))
            _stage_children(tracer, span, compiled.report)
            with tracer.span("core.eval", "run") as span:
                result = evaluator.run(compiled.logical, database)
                span.rows_out = result.distinct_count
            tracer.nodes_evaluated += evaluator.stats.nodes_evaluated
            return result

        sr = resolve_semiring(query.semiring)
        bindings = dict(database)
        if sr is not None:
            with tracer.span("core.semiring", "adapt"):
                bindings = _adapted(bindings, expr, sr)
        evaluator = Evaluator(track_stats=False, semiring=sr)
        with tracer.span("planner", "capture"):
            context, parallel = _plan_context(
                engine, query, env, bindings, sr, cache, stats)
        with tracer.span("planner", "compile") as span:
            compiled = planner_compile(expr, context)
        if compiled.cache_hit:
            span.layer, span.name = "engine.cache", "hit"
        else:
            _stage_children(tracer, span, compiled.report)
        ctx = ExecContext(bindings, evaluator, stats=stats,
                          parallel=parallel)
        with tracer.span(_EXECUTE_LAYER[engine], "execute") as span:
            result = compiled.physical.execute(ctx)
            span.rows_out = getattr(result, "distinct_count", None)
        return result


# ----------------------------------------------------------------------
# The exchange's legs, replayed on the query's real leaves
# ----------------------------------------------------------------------

def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _exchanges(node) -> List[Exchange]:
    found = [node] if isinstance(node, Exchange) else []
    for child in node.children():
        found.extend(_exchanges(child))
    return found


def replay_exchange_legs(env: Env) -> Dict[str, float]:
    """Sum, over the workload's distinct queries, of each leg of every
    exchange in the query's parallel plan.  Leaves are materialised
    serially; shards are split, encoded, decoded, executed and merged
    one after the other in this process."""
    legs = {key: 0.0 for key in (
        "leaf_s", "split_s", "compile_segment_s", "execute_program_s",
        "merge_s", "encode_in_s", "decode_in_s", "encode_out_s",
        "decode_out_s", "bytes", "rows", "segment_cache_hits",
        "segment_cache_misses", "exchanges", "shards")}
    config = ParallelConfig(workers=WORKERS)
    for query in _distinct_queries(env):
        expr, sr, bindings = _prepared(query, env)
        context, _ = _plan_context("parallel_thread", query, env,
                                   bindings, sr, None, None)
        plan = planner_compile(expr, context).physical
        stats = EngineStats()
        ctx = ExecContext(bindings,
                          Evaluator(track_stats=False, semiring=sr),
                          stats=stats)
        for exchange in _exchanges(plan.root):
            legs["exchanges"] += 1
            inputs, seconds = _timed(lambda: [
                ctx.collect(part) for part in exchange.partitions])
            legs["leaf_s"] += seconds
            shards = adaptive_shards(config, inputs)
            sharded, seconds = _timed(lambda: [
                split_counts(counts, shards, part.key)
                for counts, part in zip(inputs, exchange.partitions)])
            legs["split_s"] += seconds
            tasks = [[column[index] for column in sharded]
                     for index in range(shards)
                     if any(column[index] for column in sharded)]
            legs["shards"] += len(tasks)
            clear_segment_cache()
            _, seconds = _timed(lambda: compiled_segment_for(
                exchange.program, tag=exchange.tag, stats=stats,
                sr=sr))
            legs["compile_segment_s"] += seconds
            blobs, seconds = _timed(lambda: [
                [encode_shard(counts) for counts in task]
                for task in tasks])
            legs["encode_in_s"] += seconds
            _, seconds = _timed(lambda: [
                [decode_shard(blob) for blob in task]
                for task in blobs])
            legs["decode_in_s"] += seconds
            outputs, seconds = _timed(lambda: [
                execute_program(exchange.program, task, stats=stats,
                                tag=exchange.tag, sr=sr)
                for task in tasks])
            legs["execute_program_s"] += seconds
            results, seconds = _timed(lambda: [
                encode_shard(counts) for counts in outputs])
            legs["encode_out_s"] += seconds
            _, seconds = _timed(lambda: [
                decode_shard(blob) for blob in results])
            legs["decode_out_s"] += seconds
            _, seconds = _timed(lambda: merge_counts(outputs, sr))
            legs["merge_s"] += seconds
            legs["bytes"] += (sum(len(blob) for task in blobs
                                  for blob in task)
                              + sum(len(blob) for blob in results))
            legs["rows"] += (sum(len(counts) for task in tasks
                                 for counts in task)
                             + sum(len(counts) for counts in outputs))
        legs["segment_cache_hits"] += stats.segment_cache_hits
        legs["segment_cache_misses"] += stats.segment_cache_misses
    return legs


# ----------------------------------------------------------------------
# Single-kernel probes on the workload's real relations
# ----------------------------------------------------------------------

def _best(fn: Callable[[], Any], repeats: int = 3) -> float:
    return min(_timed(fn)[1] for _ in range(repeats))


def probe_kernels(env: Env, results: List[Bag]) -> Dict[str, float]:
    left_name, right_name = env.inputs.probe
    left_bag = env.databases["main"][left_name]
    left = left_bag.counts()
    right = env.databases["main"][right_name].counts()
    out = {
        "engine.kernels.collect_s": _best(
            lambda: kernels.collect(iter(left.items()))),
        "engine.columnar.sym_diff_dedup_s": _best(
            lambda: c_sym_diff_dedup(left, right)),
        "engine.columnar.dedup_s": _best(lambda: c_dedup(left)),
        "engine.columnar.to_columnar_s": _best(
            lambda: to_columnar(left_bag)),
    }
    # the join kernel on the first PROBE_JOIN_ROWS rows of each side
    # (the workload's own join inputs where it has them)
    probe_side = dict(list(left.items())[:PROBE_JOIN_ROWS])
    build_side = dict(list(right.items())[:PROBE_JOIN_ROWS])
    out["engine.columnar.hash_join_s"] = _best(lambda: c_hash_join(
        list(probe_side), list(probe_side.values()), build_side,
        lambda value: value.attribute(2),
        lambda value: value.attribute(1), probe_is_left=True))
    # core.nest / core.ops: on the nested workload's own inputs where
    # it has them, on the probe relation elsewhere
    nested = nest_bag(left_bag, (2,))
    out["core.nest.nest_s"] = _best(lambda: nest_bag(left_bag, (2,)))
    out["core.nest.unnest_s"] = _best(lambda: unnest_bag(nested, 2))
    small = Bag(list(left)[:10])
    out["core.ops.powerset_s"] = _best(lambda: powerset(small))
    # core.bag: sealing each result's counts; building and hashing
    # fresh Tups for its distinct flat rows
    distinct = {query.name: result for query, result
                in zip(env.queries, results)}
    counts = [result.counts() for result in distinct.values()]
    out["core.bag.seal_s"] = _best(
        lambda: [Bag.from_counts(each) for each in counts])
    rows = [value.items() for each in counts for value in each
            if isinstance(value, Tup)]
    out["core.bag.tup_build_s"] = _best(
        lambda: [hash(Tup(*items)) for items in rows])
    return out


# ----------------------------------------------------------------------
# The traced run (--trace 1)
# ----------------------------------------------------------------------

def _generic_over_nat(env: Env) -> float:
    """Codegen ``evaluate()`` of one sym-diff step over the workload's
    two probe relations under Bool, over the same under N (base: the N
    run), plans warm, no catalog on either side."""
    expr = symdiff_chain(1, *env.inputs.probe)
    timings = {}
    for semiring in (None, "bool"):
        query = Query("generic_over_nat", "expr", expr,
                      use_catalog=False, semiring=semiring)
        cache = PlanCache(capacity=8)
        run_query("codegen", query, env, cache)
        timings[semiring] = _best(
            lambda: run_query("codegen", query, env, cache))
    return timings["bool"] / timings[None]


def _min_pass(engine: str, env: Env, repeats: int,
              runner=run_query) -> PassResult:
    return min((run_pass(engine, env, runner) for _ in range(repeats)),
               key=lambda outcome: outcome.seconds)


def _governed_ratio(env: Env, ungoverned: float, repeats: int) -> float:
    """A physical pass under limits nothing can reach, over the same
    pass ungoverned (base): the price of the governor's ticks."""
    limits = Limits(max_steps=10 ** 15, timeout=86400.0)

    def governed(engine, query, env_, cache, stats):
        return run_query(engine, query, env_, cache, stats,
                         limits=limits)

    return _min_pass("physical", env, repeats,
                     governed).seconds / ungoverned


@dataclass
class EngineRun:
    """One engine's fastest untraced and fastest traced pass."""

    env: Env
    plain: PassResult
    traced: PassResult
    tracer: Tracer

    def self_seconds(self, layer: str, name: str) -> float:
        return self.tracer.by_layer().get((layer, name), 0.0)

    def stat(self, counter: str) -> float:
        return float(sum(getattr(stats, counter)
                         for stats in self.traced.stats))

    def by_query(self) -> Dict[str, float]:
        """Query (``surfaceNNN`` / ``sqlNNN`` collapse into their
        family) -> seconds inside the untraced pass."""
        table: Dict[str, float] = {}
        for query, seconds in zip(self.env.queries,
                                  self.plain.query_seconds):
            family = query.name.rstrip("0123456789")
            table[family] = table.get(family, 0.0) + seconds
        return table

    def shares(self) -> Dict[str, float]:
        """layer -> share of the traced pass (``harness`` is what no
        repo layer accounts for)."""
        row: Dict[str, float] = {}
        for (layer, _), own in self.tracer.by_layer().items():
            row[layer] = row.get(layer, 0.0) + own
        return {layer: own / self.traced.seconds
                for layer, own in sorted(row.items())}


def _run_engine(engine: str, env: Env, expected: Optional[List[Bag]],
                repeats: int, tally: Tally,
                frozen: Optional[Dict[str, Any]]) -> EngineRun:
    at_run_scale = engine != "tree"
    plain = _min_pass(engine, env, repeats + 1)     # the first warms
    if expected is None:        # the first run-scale engine: reference
        expected = plain.results
        check_digests(env, expected, frozen, engine, tally)
    check_pass(engine, env, plain, expected, tally, at_run_scale)
    best = None
    for _ in range(repeats):
        tracer = Tracer(engine)

        def runner(engine_, query, env_, cache, stats, tracer=tracer):
            return replay_query(tracer, engine_, query, env_, cache,
                                stats)

        outcome = run_pass(engine, env, runner)
        check_pass(engine, env, outcome, expected, tally, at_run_scale)
        if best is None or outcome.seconds < best.traced.seconds:
            best = EngineRun(env, plain, outcome, tracer)
    return best


def _layer_metrics(env: Env, runs: Dict[str, EngineRun],
                   legs: Dict[str, float], reference: List[Bag],
                   repeats: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, in BENCHMARK.json's order.  Layers every
    engine crosses are read off the physical pass, the planner's
    stages off the codegen pass (only opt level 3 runs them all)."""
    physical, codegen = runs["physical"], runs["codegen"]
    process = runs["parallel_process"]
    metrics: Dict[str, Tuple[float, str]] = {}

    chars = sum(len(query.source) for query in env.queries
                if query.form == "text")
    parse_s = physical.self_seconds("surface", "parse")
    metrics["surface.parse_s"] = (parse_s, "s")
    metrics["surface.parse_chars_per_s"] = (
        chars / parse_s if parse_s else 0.0, "1/s")
    metrics["sql.compile_s"] = (
        physical.self_seconds("sql", "compile"), "s")
    for step in ("capture", "typecheck", "normalize", "rewrite"):
        metrics[f"planner.{step}_s"] = (
            codegen.self_seconds("planner", step), "s")
    metrics["planner.compile_s"] = (sum(
        span.end - span.start for span in codegen.tracer.spans
        if (span.layer, span.name) == ("planner", "compile")), "s")
    metrics["planner.rule_firings"] = (float(sum(
        _compiled("codegen", query, env).report.total_firings
        for query in _distinct_queries(env))), "count")
    cache = physical.traced.cache.stats
    metrics["engine.cache.hits"] = (float(cache.hits), "count")
    metrics["engine.cache.misses"] = (float(cache.misses), "count")
    metrics["engine.cache.hit_s"] = (
        physical.self_seconds("engine.cache", "hit"), "s")
    metrics["engine.lower.lower_s"] = (
        physical.self_seconds("engine.lower", "lower"), "s")
    metrics["engine.lower.exchanges_inserted"] = (
        legs["exchanges"], "count")

    metrics["engine.codegen.compile_s"] = (
        codegen.self_seconds("engine.codegen", "compile"), "s")
    metrics["engine.codegen.execute_s"] = (
        codegen.self_seconds("engine.codegen", "execute"), "s")
    metrics["engine.codegen.fused_segments"] = (
        codegen.stat("fused_segments"), "count")
    metrics["engine.codegen.barrier_fallbacks"] = (
        codegen.stat("barrier_fallbacks"), "count")
    metrics["engine.physical.execute_s"] = (
        physical.self_seconds("engine.physical", "execute"), "s")
    metrics["engine.physical.rows_emitted"] = (
        physical.stat("rows_emitted"), "count")
    metrics["engine.physical.kernel_calls"] = (float(sum(
        sum(stats.kernel_counts.values())
        for stats in physical.traced.stats)), "count")
    metrics["core.eval.tree_execute_s"] = (
        runs["tree"].self_seconds("core.eval", "run"), "s")
    metrics["core.eval.nodes_evaluated"] = (
        float(runs["tree"].tracer.nodes_evaluated), "count")
    metrics["core.semiring.adapt_s"] = (
        physical.self_seconds("core.semiring", "adapt"), "s")

    for name, value in probe_kernels(env, reference).items():
        metrics[name] = (value, "s")
    metrics["core.semiring.generic_over_nat"] = (
        _generic_over_nat(env), "ratio")
    metrics["guard.governed_over_ungoverned"] = (_governed_ratio(
        env, physical.plain.seconds, repeats), "ratio")

    prefix = "engine.parallel.partition."
    for leg in ("split_s", "compile_segment_s", "execute_program_s",
                "merge_s"):
        metrics[prefix + leg] = (legs[leg], "s")
    for counter in ("segment_cache_hits", "segment_cache_misses"):
        metrics[prefix + counter] = (legs[counter], "count")
    prefix = "engine.parallel.codec."
    metrics[prefix + "encode_s"] = (
        legs["encode_in_s"] + legs["encode_out_s"], "s")
    metrics[prefix + "decode_s"] = (
        legs["decode_in_s"] + legs["decode_out_s"], "s")
    metrics[prefix + "bytes"] = (legs["bytes"], "B")
    metrics[prefix + "bytes_per_row"] = (
        legs["bytes"] / legs["rows"] if legs["rows"] else 0.0, "B/row")

    prefix = "engine.parallel.exchange."
    process_s = process.self_seconds("engine.parallel.exchange",
                                     "execute")
    metrics[prefix + "thread_execute_s"] = (
        runs["parallel_thread"].self_seconds(
            "engine.parallel.exchange", "execute"), "s")
    metrics[prefix + "process_execute_s"] = (process_s, "s")
    # what the replayed legs do not explain: forking the pool, pickling
    # the task envelopes, IPC, waiting on the slower worker
    parent_side = (legs["leaf_s"] + legs["split_s"]
                   + legs["encode_in_s"] + legs["decode_out_s"]
                   + legs["merge_s"])
    worker_side = (legs["decode_in_s"] + legs["compile_segment_s"]
                   + legs["execute_program_s"]
                   + legs["encode_out_s"]) / WORKERS
    metrics[prefix + "ship_residual_s"] = (
        process_s - parent_side - worker_side
        if legs["exchanges"] else 0.0, "s")
    for counter, unit in (("morsels_executed", "count"),
                          ("partitions_created", "count"),
                          ("bytes_shipped", "B"),
                          ("morsel_retries", "count")):
        metrics[prefix + counter] = (process.stat(counter), unit)
    metrics[prefix + "demotions"] = (float(sum(
        len(stats.demotions) for stats in process.traced.stats)),
        "count")

    for step in ("save", "load", "analyze"):
        metrics[f"storage.{step}_s"] = (env.steps[step], "s")
    metrics["storage.bytes_on_disk"] = (float(env.bytes_on_disk), "B")

    for engine, run in runs.items():
        metrics[f"trace.overhead_ratio.{engine}"] = (
            run.traced.seconds / run.plain.seconds, "ratio")
    for engine, run in runs.items():
        metrics[f"trace.unattributed_share.{engine}"] = (
            run.shares().get("harness", 0.0), "ratio")
    return metrics


def _write_trace_file(path: str, header: Dict[str, Any],
                      runs: Dict[str, EngineRun],
                      legs: Dict[str, float]) -> None:
    """The per-(engine, layer) self-time table plus a few hundred raw
    spans (every ``adhoc_text`` span would be 13 MB)."""
    document = dict(header)
    document["share_of_traced_pass"] = {
        engine: run.shares() for engine, run in runs.items()}
    document["self_seconds"] = {
        engine: {f"{layer}:{name}": own for (layer, name), own
                 in sorted(run.tracer.by_layer().items())}
        for engine, run in runs.items()}
    document["pass_seconds"] = {
        engine: {"traced": run.traced.seconds,
                 "untraced": run.plain.seconds,
                 "untraced_by_query": run.by_query()}
        for engine, run in runs.items()}
    document["exchange_legs"] = legs
    document["spans"] = [
        span for run in runs.values()
        for span in run.tracer.raw(MAX_RAW_SPANS // len(runs))]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def trace(workload: str, seed: int, seconds: float,
          scale: str = "full") -> Dict[str, Any]:
    """One traced run: every per-layer metric of BENCHMARK.json."""
    origin = time.perf_counter()
    repeats = max(1, min(3, int(seconds // 6)))
    tally = Tally()
    frozen = load_expected(seed) if scale == "full" else None
    frozen = (frozen or {}).get(workload)
    sizes = SIZES[scale][workload]
    base = fresh_dir(OUT_DIR, f"trace-{workload}-{os.getpid()}")
    try:
        env = setup(workload, seed, scale, "run",
                    os.path.join(base, "run"))
        check_env = (env if sizes["check"] == sizes["run"] else
                     setup(workload, seed, scale, "check",
                           os.path.join(base, "check")))
        oracle = run_pass("tree", check_env).results
        runs = {"tree": _run_engine("tree", check_env, oracle, repeats,
                                    tally, None)}
        reference = None
        for engine in RUN_ENGINES:
            runs[engine] = _run_engine(engine, env, reference, repeats,
                                       tally, frozen and frozen["run"])
            if reference is None:
                reference = runs[engine].plain.results
        legs = replay_exchange_legs(env)
        metrics = _layer_metrics(env, runs, legs, reference, repeats)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    path = os.path.join(OUT_DIR,
                        f"trace-{workload}-{scale}-seed{seed}.json")
    header = {"workload": workload, "seed": seed, "scale": scale}
    _write_trace_file(path, header, runs, legs)
    return {
        **header,
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons,
        "verified": "frozen" if frozen is not None else "cross-engine",
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "layer_table": {engine: run.shares()
                        for engine, run in runs.items()},
        "trace_file": path,
        "wall_s": time.perf_counter() - origin,
    }
