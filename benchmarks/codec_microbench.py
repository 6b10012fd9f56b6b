"""Shard-codec microbench on the ladder's own shards.

Each shard kind is a ladder relation (full run scale) split four ways
by ``split_counts``, the way an exchange splits it.  For each kind it
prints the summed encode and decode time of the four shards (best of
``--repeat`` rounds) and their summed bytes:

* ``nested`` — ``nest[2](X)`` of ``nested_agg``: ``[key, {{[v]...}}]``
  rows, the shape a process worker's nest result ships back;
* ``flat_int`` — ``flat_fused``'s 8000-distinct 2-ary int ``X``;
* ``str`` — ``nested_agg``'s 4000-row ``orders`` (customer, item);
* ``trop`` — ``semiring_mix``'s ``X`` annotated under ``tropical``.

Run it once per checkout to compare two commits::

    PYTHONPATH=src python3 benchmarks/codec_microbench.py --seed 1993

It checks that every shard round-trips.  It reads the ladder's
workload builders and changes nothing under ``benchmarks/ladder``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "ladder"))

from workloads import build_inputs  # noqa: E402

from repro.core.eval import evaluate  # noqa: E402
from repro.core.expr import var  # noqa: E402
from repro.core.nest import Nest  # noqa: E402
from repro.core.semiring import resolve_semiring  # noqa: E402
from repro.engine.parallel import decode_shard, encode_shard  # noqa: E402
from repro.engine.parallel.partition import split_counts  # noqa: E402


def shard_kinds(seed: int):
    nested = build_inputs("nested_agg", seed, "full", "run").relations
    flat = build_inputs("flat_fused", seed, "full", "run").relations
    mix = build_inputs("semiring_mix", seed, "full", "run").relations
    bags = {
        "nested": evaluate(Nest(var("X"), 2), nested),
        "flat_int": flat["X"],
        "str": nested["orders"],
        "trop": resolve_semiring("tropical").adapt_bag(mix["X"], "X"),
    }
    return {kind: split_counts(dict(bag.items()), 4)
            for kind, bag in bags.items()}


def best_of(repeat: int, work) -> float:
    times = []
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--repeat", type=int, default=30)
    args = parser.parse_args()
    for kind, shards in shard_kinds(args.seed).items():
        blobs = [encode_shard(shard) for shard in shards]
        assert [decode_shard(blob) for blob in blobs] == shards, kind
        encode = best_of(args.repeat,
                         lambda: [encode_shard(shard) for shard in shards])
        decode = best_of(args.repeat,
                         lambda: [decode_shard(blob) for blob in blobs])
        print(json.dumps({
            "kind": kind, "rows": sum(map(len, shards)),
            "encode_ms": round(encode * 1e3, 3),
            "decode_ms": round(decode * 1e3, 3),
            "bytes": sum(map(len, blobs))}))


if __name__ == "__main__":
    main()
