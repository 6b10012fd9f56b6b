"""Morsel-driven parallel execution for the physical engine.

Three layers (see ``docs/parallel.md`` for the full story):

* :mod:`~repro.engine.parallel.partition` — hash partitioning of
  count dicts, the partition-compatibility table, the
  recogniser that turns a subtree into a *segment program* (its own
  expression over slot variables), and the worker-resident
  compiled-segment cache (each worker lowers and fuses a program once
  per plan tag through the serial codegen pipeline and reuses the
  fused segment across morsels);
* :mod:`~repro.engine.parallel.codec` — the packed-column shard
  codec (a count column plus fixed-width value cells, moved with
  C-level bulk operations) used to ship morsels to process-pool
  workers instead of pickled count dicts;
* :mod:`~repro.engine.parallel.exchange` — the
  Partition/Exchange/Gather physical nodes and the resident
  thread/process worker pools with ordered merge and fail-fast
  errors;
* :mod:`~repro.engine.parallel.governor` — budget splitting so a
  parallel run honours the same :class:`~repro.guard.Limits` as a
  serial one (shared step pool, inherited deadline, linked
  cancellation, per-worker stats merge).

Fault tolerance is opt-in via
:class:`~repro.engine.resilience.ResilienceConfig` (per-morsel retry,
process-pool respawn, the process → thread → serial degradation
ladder); see ``docs/parallel.md``'s "Failure semantics & degradation
ladder".

Entry points: ``repro.engine.evaluate(..., engine="parallel",
workers=N)``, ``run_sql(..., engine="parallel")``, the CLI's
``--engine parallel --workers N`` / ``:engine parallel``.
"""

from repro.engine.parallel.codec import decode_shard, encode_shard
from repro.engine.parallel.exchange import (
    Exchange, Gather, ParallelConfig, Partition, adaptive_shards,
    shutdown_pools,
)
from repro.engine.parallel.governor import (
    SharedBudget, WorkerGovernor, merge_worker_steps, presplit_limits,
    presplit_spec,
)
from repro.engine.parallel.partition import (
    PARTITION_COMPAT, LeafSpec, ParallelPolicy, ParallelSegment,
    SegmentProgram, clear_segment_cache, compile_parallel_segment,
    compiled_segment_for, execute_program, merge_counts,
    segment_cache_len, split_counts,
)
from repro.engine.resilience import LADDER, ResilienceConfig

__all__ = [
    "PARTITION_COMPAT", "ParallelPolicy", "ParallelSegment", "LeafSpec",
    "SegmentProgram", "ParallelConfig", "Partition", "Exchange", "Gather",
    "adaptive_shards", "shutdown_pools",
    "SharedBudget", "WorkerGovernor", "presplit_limits",
    "presplit_spec", "merge_worker_steps", "compile_parallel_segment",
    "compiled_segment_for", "clear_segment_cache", "segment_cache_len",
    "execute_program", "split_counts", "merge_counts",
    "encode_shard", "decode_shard",
    "ResilienceConfig", "LADDER",
]
