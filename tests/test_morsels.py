"""Unit tests for columnar morsels and worker-resident segments.

Covers the columnar shard codec (``parallel.codec``), the
worker-local compiled-segment cache (``parallel.partition``), the
adaptive morsel granularity (``parallel.exchange``), the
``bytes_shipped`` accounting, and the lazy ``Tup`` hash cache that
makes decoded values cheap to rebuild.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.core.bag import Bag, Tup
from repro.core.expr import Dedup, var
from repro.engine.codegen import FusedSegment
from repro.engine import EngineStats, evaluate, explain_physical
from repro.engine.parallel import (
    ParallelConfig, SegmentProgram, adaptive_shards,
    clear_segment_cache, compiled_segment_for, decode_shard,
    encode_shard, execute_program, segment_cache_len,
)
from repro.engine.parallel.exchange import MORSEL_MIN_ROWS
from repro.guard import ChaosPlan, Limits, ResourceGovernor
from repro.engine.resilience import ResilienceConfig

_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(not _FORK,
                               reason="needs the fork start method")


def _db():
    return {"R": Bag.from_counts(
        {Tup(i % 13, i % 7): (i % 3) + 1 for i in range(240)})}


def _expr():
    return Dedup(var("R") + (var("R") - var("R")))


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------


class TestCodecRoundTrip:
    def test_empty_shard(self):
        assert decode_shard(encode_shard({})) == {}

    def test_scalar_atoms(self):
        shard = {
            Tup(None, "x"): 1,
            Tup(True, "y"): 2,
            Tup(False, "z"): 3,
            Tup(0, "a"): 4,
            Tup(-(2 ** 40), "b"): 5,
            Tup(2 ** 40, "c"): 6,
            Tup(1.5, "d"): 7,
            Tup(b"raw", "e"): 8,
            Tup("", "f"): 9,
        }
        assert decode_shard(encode_shard(shard)) == shard

    def test_bool_does_not_collapse_into_int(self):
        # True == 1 in Python, so the two live in *different* dict
        # entries only when paired with distinct atoms — what must
        # survive is the runtime type of each decoded attribute
        shard = {Tup(True, "t"): 3, Tup(1, "i"): 5}
        decoded = decode_shard(encode_shard(shard))
        by_label = {value.attribute(2): value.attribute(1)
                    for value in decoded}
        assert by_label["t"] is True
        assert type(by_label["i"]) is int and by_label["i"] == 1

    def test_nested_tuples_and_bags(self):
        inner = Bag.from_counts({Tup(1, "a"): 2, Tup(2, "b"): 1})
        shard = {
            Tup(1, Tup(2, Tup(3, "deep"))): 4,
            Tup(2, inner): 7,
            Tup(3, Bag.from_counts({})): 1,
        }
        decoded = decode_shard(encode_shard(shard))
        assert decoded == shard
        # decoded values hash and compare like freshly built ones
        for value in decoded:
            assert hash(value) == hash(next(v for v in shard
                                            if v == value))

    def test_bare_atom_values(self):
        # shards of a projection segment can hold bare atoms
        shard = {1: 3, "x": 2, None: 1, 2.25: 9}
        assert decode_shard(encode_shard(shard)) == shard

    def test_exotic_atom_pickle_fallback(self):
        shard = {Tup(frozenset({1, 2}), "x"): 3}
        assert decode_shard(encode_shard(shard)) == shard

    def test_counts_survive_verbatim(self):
        shard = {Tup(i): (i * 37) % 1000 + 1 for i in range(200)}
        assert decode_shard(encode_shard(shard)) == shard

    def test_rejects_non_codec_blob(self):
        with pytest.raises(ValueError):
            decode_shard(b"PKL\x00garbage")

    def test_atom_interning_amortises_join_output(self):
        """A join-shaped shard (wide tuples over a small atom domain)
        must beat pickle by at least 5x — the satellite's wire-size
        claim, asserted at unit level."""
        shard = {Tup(i % 13, i % 7, i % 13, i % 5): (i % 3) + 1
                 for i in range(4000)}
        blob = encode_shard(shard)
        pickled = pickle.dumps(shard,
                               protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) * 5 <= len(pickled)
        assert decode_shard(blob) == shard


# ----------------------------------------------------------------------
# Worker-resident compiled segments
# ----------------------------------------------------------------------

_PROGRAM = SegmentProgram(Dedup(var("$0") + var("$1")), (None, None))


class TestSegmentCache:
    def setup_method(self):
        clear_segment_cache()

    def test_same_plan_reuses_compiled_closures(self):
        stats = EngineStats()
        first = compiled_segment_for(_PROGRAM, tag=("t",), stats=stats)
        second = compiled_segment_for(_PROGRAM, tag=("t",), stats=stats)
        assert second is first
        assert isinstance(first.root_segment, FusedSegment)
        assert stats.segment_cache_misses == 1
        assert stats.segment_cache_hits == 1

    def test_tag_change_invalidates(self):
        stats = EngineStats()
        a = compiled_segment_for(_PROGRAM, tag=("opt0",), stats=stats)
        b = compiled_segment_for(_PROGRAM, tag=("opt3",), stats=stats)
        assert a is not b
        assert stats.segment_cache_misses == 2
        assert stats.segment_cache_hits == 0
        assert segment_cache_len() == 2

    def test_program_change_invalidates(self):
        a = compiled_segment_for(_PROGRAM, tag=("t",))
        b = compiled_segment_for(
            SegmentProgram(var("$0") + var("$1"), (None, None)),
            tag=("t",))
        assert a is not b
        assert segment_cache_len() == 2

    def test_cache_is_bounded(self):
        from repro.engine.parallel.partition import _SEGMENT_CACHE_CAP
        for k in range(_SEGMENT_CACHE_CAP + 10):
            compiled_segment_for(
                SegmentProgram(Dedup(var("$0")), (k + 1,)), tag=None)
        assert segment_cache_len() <= _SEGMENT_CACHE_CAP

    def test_eviction_is_safe_under_concurrent_compiles(
            self, monkeypatch):
        """Thread-backend workers share the cache.  With the cap at 1
        every insert evicts, and evicting by iteration while a sibling
        inserts raised ``RuntimeError: dictionary changed size during
        iteration`` until insert+evict took a lock."""
        import sys
        import threading

        from repro.engine.parallel import partition
        monkeypatch.setattr(partition, "_SEGMENT_CACHE_CAP", 1)
        # nothing but the cache left in the loop: the window is narrow
        monkeypatch.setattr(partition, "lower", lambda expr, **kw: expr)
        monkeypatch.setattr(partition, "compile_codegen",
                            lambda plan, **kw: object())
        errors = []
        start = threading.Barrier(4)

        def compile_many(worker):
            try:
                start.wait(10)
                for k in range(5000):
                    compiled_segment_for(
                        SegmentProgram(Dedup(var("$0")),
                                       (worker * 1000 + k,)))
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_many, args=(w,))
                       for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert segment_cache_len() <= 1

    def test_chaos_detonates_between_kernels(self):
        """A chaos fault kills the worker partway through the fused
        segment's kernels, not only at its entry; wherever it died the
        input shards are untouched, so the retry is idempotent."""
        from repro.engine.parallel.exchange import _task_stats
        from repro.guard import WorkerCrash
        kernels = compiled_segment_for(_PROGRAM).kernels()
        assert len(kernels) > 1
        left = {Tup(i): 2 for i in range(10)}
        right = {Tup(i): 1 for i in range(5, 15)}
        before = (dict(left), dict(right))
        expected = execute_program(_PROGRAM, [left, right])
        chaos = ChaosPlan(kind="morsel-fault", probability=1.0)
        died_after = set()
        for shard in range(12):
            stats = _task_stats(chaos, shard, 1, _PROGRAM, None, None,
                                in_process_worker=False)
            with pytest.raises(WorkerCrash):
                execute_program(_PROGRAM, [left, right], stats=stats)
            died_after.add(sum(stats.kernel_counts.values()))
            assert (left, right) == before
        assert died_after <= set(range(1, len(kernels) + 1))
        assert len(died_after) > 1  # seeded across the segment
        assert execute_program(_PROGRAM, [left, right]) == expected

    def test_thread_morsels_hit_after_first_compile(self):
        """workers=1 runs morsels sequentially: the first compiles,
        every later morsel of the same plan (and every later run of
        the same plan) hits the resident segment."""
        stats = EngineStats()
        db = _db()
        evaluate(_expr(), db, cache=None, engine="parallel",
                 workers=1, parallel_threshold=0.0, min_morsel_rows=1,
                 stats=stats)
        assert stats.segment_cache_misses == 1
        assert stats.segment_cache_hits == stats.morsels_executed - 1
        again = EngineStats()
        evaluate(_expr(), db, cache=None, engine="parallel",
                 workers=1, parallel_threshold=0.0, min_morsel_rows=1,
                 stats=again)
        assert again.segment_cache_misses == 0
        assert again.segment_cache_hits == again.morsels_executed

    def test_opt_levels_do_not_share_segments(self):
        """Different pass configs carry different cache tags, so an
        opt-0 plan never reuses an opt-3 worker segment even when the
        program text coincides."""
        db = _db()
        for level in (0, 3):
            stats = EngineStats()
            evaluate(_expr(), db, cache=None, engine="parallel",
                     workers=1, parallel_threshold=0.0,
                     min_morsel_rows=1, opt_level=level, stats=stats)
            assert stats.segment_cache_misses >= 1

    @fork_only
    def test_process_lookups_counted_exactly_once_per_morsel(self):
        """Per-task stats ship back with the outcome and merge exactly
        once — every completed morsel contributes one cache lookup,
        hit or miss, never two."""
        stats = EngineStats()
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_backend="process",
                          parallel_threshold=0.0, min_morsel_rows=1,
                          stats=stats)
        assert result == evaluate(_expr(), _db(), cache=None)
        assert (stats.segment_cache_hits + stats.segment_cache_misses
                == stats.morsels_executed)

    @fork_only
    def test_respawned_pool_rebuilds_without_double_counting(self):
        """A worker crash breaks the pool; the respawned pool re-runs
        the shard and its (fresh) lookup is still counted exactly once
        — the crashed attempt's stats died with the worker."""
        stats = EngineStats()
        config = ResilienceConfig(chaos=ChaosPlan(
            kind="worker-crash", probability=1.0, shards=(0,),
            max_attempt=1))
        result = evaluate(_expr(), _db(), cache=None, engine="parallel",
                          workers=2, parallel_backend="process",
                          parallel_threshold=0.0,
                          resilience=config, stats=stats)
        assert result == evaluate(_expr(), _db(), cache=None)
        assert stats.pool_respawns == 1
        assert (stats.segment_cache_hits + stats.segment_cache_misses
                == stats.morsels_executed)


# ----------------------------------------------------------------------
# Adaptive morsel granularity
# ----------------------------------------------------------------------


class TestAdaptiveShards:
    def test_small_input_collapses_to_one_shard(self):
        config = ParallelConfig(workers=4)
        assert adaptive_shards(config, [{Tup(1): 1}]) == 1
        assert adaptive_shards(config, [{}]) == 1

    def test_large_input_keeps_full_fanout(self):
        config = ParallelConfig(workers=2)
        big = {Tup(i): 1 for i in range(config.num_shards
                                        * MORSEL_MIN_ROWS)}
        assert adaptive_shards(config, [big]) == config.num_shards

    def test_intermediate_input_scales_proportionally(self):
        config = ParallelConfig(workers=4)  # ceiling 8
        rows = {Tup(i): 1 for i in range(MORSEL_MIN_ROWS * 3)}
        assert adaptive_shards(config, [rows]) == 3

    def test_floor_of_one_splits_as_finely_as_the_input_allows(self):
        config = ParallelConfig(workers=4, min_morsel_rows=1)
        rows = {Tup(i): 1 for i in range(config.num_shards)}
        assert adaptive_shards(config, [rows]) == config.num_shards
        # fewer distinct rows than shards: empty shards are pointless
        assert adaptive_shards(config, [{Tup(1): 1, Tup(2): 1}]) == 2

    def test_cardinality_sums_across_slots(self):
        config = ParallelConfig(workers=4)
        half = {Tup(i): 1 for i in range(MORSEL_MIN_ROWS)}
        assert adaptive_shards(config, [half, half]) == 2

    def test_end_to_end_small_input_runs_one_morsel(self):
        stats = EngineStats()
        evaluate(_expr(), _db(), cache=None, engine="parallel",
                 workers=2, parallel_threshold=0.0, stats=stats)
        assert stats.morsels_executed == 1
        forced = EngineStats()
        evaluate(_expr(), _db(), cache=None, engine="parallel",
                 workers=2, parallel_threshold=0.0, min_morsel_rows=1,
                 stats=forced)
        assert forced.morsels_executed > 1


# ----------------------------------------------------------------------
# bytes_shipped accounting
# ----------------------------------------------------------------------


class TestBytesShipped:
    def test_thread_backend_ships_nothing(self):
        stats = EngineStats()
        evaluate(_expr(), _db(), cache=None, engine="parallel",
                 workers=2, parallel_threshold=0.0, min_morsel_rows=1,
                 stats=stats)
        assert stats.bytes_shipped == 0

    @fork_only
    def test_process_backend_counts_both_directions(self):
        stats = EngineStats()
        evaluate(_expr(), _db(), cache=None, engine="parallel",
                 workers=2, parallel_backend="process",
                 parallel_threshold=0.0, min_morsel_rows=1,
                 stats=stats)
        # at least one blob out per input slot and one back per morsel
        assert stats.bytes_shipped > 0

    def test_explain_footer_shows_new_counters(self):
        text = explain_physical(_expr(), _db(), engine="parallel",
                                workers=2, parallel_threshold=0.0)
        assert "bytes shipped" in text
        assert "segment cache" in text


# ----------------------------------------------------------------------
# Lazy Tup hashes
# ----------------------------------------------------------------------


class TestTupHashCache:
    def test_hash_is_lazy_and_cached(self):
        tup = Tup(1, "a")
        assert tup._hash is None
        value = hash(tup)
        assert tup._hash == value
        assert hash(tup) == value  # second call serves the slot

    def test_cached_hash_equals_fresh_value(self):
        nested = Tup(1, Tup(2, "x"), Bag.from_counts({Tup(3): 2}))
        warmed = hash(nested)
        fresh = Tup(1, Tup(2, "x"), Bag.from_counts({Tup(3): 2}))
        assert hash(fresh) == warmed
        assert fresh == nested

    def test_concat_result_hashes_fresh(self):
        left, right = Tup(1, 2), Tup(3)
        hash(left), hash(right)
        joined = left.concat(right)
        assert joined == Tup(1, 2, 3)
        assert hash(joined) == hash(Tup(1, 2, 3))

    def test_pickle_round_trip_before_and_after_hashing(self):
        cold = Tup(1, Bag.from_counts({Tup(2, "y"): 3}))
        thawed_cold = pickle.loads(pickle.dumps(cold))
        assert thawed_cold == cold
        assert hash(thawed_cold) == hash(cold)
        warm = Tup(1, Bag.from_counts({Tup(2, "y"): 3}))
        hash(warm)
        thawed_warm = pickle.loads(pickle.dumps(warm))
        assert thawed_warm == warm
        assert hash(thawed_warm) == hash(warm)

    def test_codec_decode_hashes_consistently(self):
        # decoding inserts the value into a dict, which warms its
        # slot; what matters is that the recomputed hash matches one
        # computed from a constructor-built twin
        original = Tup(1, Tup(2, "x"))
        decoded = next(iter(decode_shard(encode_shard({original: 1}))))
        assert hash(decoded) == hash(original)
        assert decoded == original

    def test_governed_parallel_run_unaffected_by_hash_cache(self):
        # hashes are computed inside split/merge/join paths; a governed
        # run over warmed values must behave identically
        db = _db()
        for value in db["R"]:
            hash(value)
        governor = ResourceGovernor(Limits(max_steps=10 ** 6))
        result = evaluate(_expr(), db, cache=None, engine="parallel",
                          workers=2, parallel_threshold=0.0,
                          governor=governor)
        assert result == evaluate(_expr(), db, cache=None)
