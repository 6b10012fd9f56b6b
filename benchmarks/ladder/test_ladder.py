"""Self-tests of the ladder harness (smoke scale, < 20 s).

Not collected by tier-1 (``pyproject.toml`` points pytest at
``tests/``); run them by path::

    PYTHONPATH=src python -m pytest benchmarks/ladder/test_ladder.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _last_line(*arguments: str):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale",
         "smoke", "--seconds", "1", *arguments],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fresh_env(tmp_path, workload: str, seed: int, label: str):
    return harness.setup(workload, seed, "smoke", "check",
                         str(tmp_path / label))


def test_printed_names_are_those_of_benchmark_json():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in contract["end_to_end"]] \
        == list(harness.END_TO_END)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        last = _last_line("--workload", "nested_agg", "--trace", trace)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert last["attempted"] >= 1
        assert {name: metric["unit"]
                for name, metric in last["metrics"].items()} \
            == {m["name"]: m["unit"] for m in contract[section]}


def test_one_seed_gives_identical_inputs_and_digests(tmp_path):
    for workload in WORKLOADS:
        first = build_inputs(workload, 7, "smoke", "run")
        again = build_inputs(workload, 7, "smoke", "run")
        other = build_inputs(workload, 8, "smoke", "run")
        assert first.relations == again.relations
        assert first.side_databases == again.side_databases
        assert first.queries == again.queries
        assert first.relations != other.relations
    # ... and the oracle's digests repeat through the whole set-up
    # path (provenance variables are minted in load order)
    digests = []
    for label in ("a", "b"):
        env = _fresh_env(tmp_path, "semiring_mix", 7, label)
        digests.append([harness.digest(
            harness.run_query("tree", query, env, cache=None))
            for query in env.queries])
    assert digests[0] == digests[1]


def test_a_monus_that_clamps_counts_is_reported_as_failed(monkeypatch):
    from repro.engine import columnar
    honest = columnar.c_monus

    def clamping(left, right, sr=None):
        return dict.fromkeys(honest(left, right, sr),
                             1 if sr is None else sr.one)

    # emitted codegen segments call kernels through the module object
    monkeypatch.setattr(columnar, "c_monus", clamping)
    result = harness.measure("flat_fused", 7, 1.0, "smoke")
    assert result["failed"] > 0 and not result["correct"]
    assert any(reason.startswith("codegen:intersect_maxunion")
               for reason in result["reasons"])


def test_trace_spans_nest_and_self_times_fit_in_the_pass(tmp_path):
    env = _fresh_env(tmp_path, "nested_agg", 7, "trace")
    for engine in harness.ENGINES:
        tracer = tracing.Tracer(engine)
        outcome = harness.run_pass(
            engine, env,
            lambda engine_, query, env_, cache, stats:
            tracing.replay_query(tracer, engine_, query, env_, cache,
                                 stats))
        assert not any(isinstance(result, Exception)
                       for result in outcome.results)
        spans = tracer.spans
        assert [span.id for span in spans] == list(range(len(spans)))
        for span in spans:
            assert span.end >= span.start
            if span.parent is not None:
                parent = spans[span.parent]
                assert parent.id < span.id
                assert parent.start <= span.start
                assert span.end <= parent.end + 1e-9
        own = tracer.self_times()
        assert min(own) >= -1e-9
        assert sum(own) <= outcome.seconds
        assert sum(tracer.by_layer().values()) <= outcome.seconds
