"""Unit tests for columnar morsels and worker-resident segments.

Covers the columnar shard codec (``parallel.codec``), the
worker-local compiled-segment cache (``parallel.partition``), the
adaptive morsel granularity (``parallel.exchange``), the
``bytes_shipped`` accounting, and the lazy ``Tup`` hash cache that
makes decoded values cheap to rebuild.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import BrokenExecutor

import pytest

import repro
from repro.core.bag import Bag, Tup, canonical_key
from repro.core.errors import BudgetExceeded, CodecError, ReproError
from repro.core.eval import evaluate as tree_evaluate
from repro.core.expr import Dedup, var
from repro.core.semiring import Prov, Trop, resolve_semiring
from repro.engine.codegen import FusedSegment
from repro.engine import EngineStats, evaluate, explain_physical
from repro.engine.parallel import (
    ParallelConfig, SegmentProgram, adaptive_shards,
    clear_segment_cache, compiled_segment_for, decode_shard,
    encode_shard, execute_program, segment_cache_len,
)
from repro.engine.parallel import codec, exchange, shutdown_pools
from repro.engine.parallel.exchange import MORSEL_MIN_ROWS
from repro.testkit.generate import generate_case
from repro.guard import ChaosPlan, Limits, ResourceGovernor
from repro.engine.resilience import ResilienceConfig, is_transient_fault

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
        with pytest.raises(CodecError):
            decode_shard(b"PKL\x00garbage")

    def test_atom_interning_amortises_join_output(self):
        """A join-shaped shard (wide tuples over a small atom domain)
        must beat pickle by at least 3x, now that a pickled ``Tup`` is
        its items and shape alone (no slot state, no cached hash)."""
        shard = {Tup(i % 13, i % 7, i % 13, i % 5): (i % 3) + 1
                 for i in range(4000)}
        blob = encode_shard(shard)
        pickled = pickle.dumps(shard,
                               protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) * 3 <= len(pickled)
        assert decode_shard(blob) == shard


def _assert_round_trips(shard):
    decoded = decode_shard(encode_shard(shard))
    assert decoded == shard
    # canonical_key names each atom's runtime type, so True / 1 / 1.0
    # (equal, same hash) cannot stand in for one another here
    assert ({canonical_key(value): count
             for value, count in decoded.items()}
            == {canonical_key(value): count
                for value, count in shard.items()})
    return decoded


_INNER = Bag.from_counts({Tup(1, "a"): 2, Tup(2, "b"): 1})

#: (name, shard, takes the column layout) — the shapes around the
#: boundary between the column layout and the pickled-shard fallback
_LAYOUT_EDGES = [
    ("int-tuples", {Tup(i, i * 7): i + 1 for i in range(40)}, True),
    ("negative-ints", {Tup(-i, i - 300): 1 for i in range(40)}, True),
    ("wide-ints", {Tup(2 ** 40, -(2 ** 62)): 2 ** 63}, True),
    ("str-int-mix", {Tup("x", 1): 1, Tup("y", 2): 3, Tup("x", 2): 9},
     True),
    ("str-vs-its-int", {Tup("1", 1): 1, Tup(1, "1"): 2}, True),
    ("ints-beyond-64-bits", {Tup(2 ** 70, 1): 1, Tup(-(2 ** 70), 2): 2},
     True),
    ("bare-ints", {i * i: i + 1 for i in range(30)}, True),
    ("bare-strs", {"x": 3, "y": 2, "": 1}, True),
    ("true-vs-1", {Tup(True, "t"): 3, Tup(1, "i"): 5}, False),
    ("float-next-to-int", {Tup(1.0, "f"): 3, Tup(1, "i"): 5}, False),
    ("bare-bool-int-float", {True: 1, 2: 2, 2.5: 3}, False),
    ("none-and-bytes", {Tup(None, b"raw"): 1, Tup(None, b""): 2}, False),
    ("exotic-atom", {Tup(frozenset({1, 2}), "x"): 3}, False),
    ("empty", {}, True),
    ("arity-0", {Tup(): 4}, True),
    ("arity-0-inside", {Tup(1, Bag.of(Tup())): 1, Tup(2, Bag()): 2},
     True),
    ("mixed-arity", {Tup(1): 1, Tup(1, 2): 2}, False),
    ("tuple-next-to-atom", {Tup(1): 1, 1: 2}, False),
    ("nested-tuples", {Tup(1, Tup(2, Tup(3, "deep"))): 4}, True),
    ("nested-bags", {Tup(2, _INNER): 7, Tup(3, Bag()): 1}, True),
    ("bag-of-bags", {Bag([_INNER, _INNER]): 2, Bag(): 1}, True),
    ("bag-of-atoms", {Tup(1, Bag.of("a", "a", 3)): 1}, True),
    ("float-inside-a-bag", {Tup(1, Bag.of(2.5)): 1}, False),
    ("mixed-arity-across-bags",
     {Tup(1, Bag.of(Tup(1))): 1, Tup(2, Bag.of(Tup(1, 2))): 1}, False),
    ("count-beyond-64-bits", {Tup(1, 2): 2 ** 64, Tup(3, 4): 1}, True),
    ("annotated-inner-counts",
     {Tup(Bag({Tup("p"): Trop(1.5)}), "tag"): Trop(0.5)}, True),
]


def _audit_bags(value):
    """Every bag inside a decoded value carries exactly what a checked
    rebuild computes: the shape, the cardinality, the distinct count."""
    if isinstance(value, Tup):
        for item in value.items():
            _audit_bags(item)
    elif isinstance(value, Bag):
        rebuilt = Bag.from_counts(value._counts)
        assert value._shape == rebuilt._shape, value
        assert value.cardinality == rebuilt.cardinality, value
        assert value.distinct_count == rebuilt.distinct_count, value
        for member in value.distinct():
            _audit_bags(member)


class TestColumnLayout:
    @pytest.mark.parametrize(
        "shard,layout", [edge[1:] for edge in _LAYOUT_EDGES],
        ids=[edge[0] for edge in _LAYOUT_EDGES])
    def test_layout_edges_round_trip(self, shard, layout):
        for value in _assert_round_trips(shard):
            _audit_bags(value)
        magic = encode_shard(shard)[:4]
        assert magic == (codec._MAGIC if layout else codec._MAGIC_PICKLED)

    @pytest.mark.parametrize("spec", ["nat", "bool", "tropical",
                                      "provenance"])
    def test_generated_shards_round_trip(self, spec):
        """Seeded property: every relation the case generator draws
        (flat, nested, bare atoms), and the oracle's result over it,
        survives the wire under every semiring's annotations (the N
        result re-annotated: the shapes are what is on trial), and
        every decoded bag is sealed exactly."""
        sr = resolve_semiring(spec)
        shards = 0
        for index in range(60):
            case = generate_case(seed=1993, index=index)
            bags = list(case.database.values())
            try:
                bags.append(tree_evaluate(case.expr, case.database,
                                          powerset_budget=256))
            except BudgetExceeded:
                pass
            if sr is not None:
                bags = [sr.adapt_bag(bag) for bag in bags]
            for bag in bags:
                for value in _assert_round_trips(dict(bag.items())):
                    _audit_bags(value)
                shards += 1
        assert shards >= 120

    def test_inner_bags_are_sealed_with_the_column_shape(self):
        tuples = decode_shard(encode_shard({Tup(1, _INNER): 1,
                                            Tup(2, Bag()): 1}))
        shapes = {value[0]: value[1]._shape for value in tuples}
        assert shapes == {1: _INNER._shape, 2: None}
        assert shapes[1] is _INNER._shape  # the interned flat shape
        atoms = decode_shard(encode_shard({Tup(3, Bag.of(4, 4)): 1}))
        assert next(iter(atoms))[1]._shape is Bag.of(4)._shape

    def test_annotated_counts_ship_as_one_pickle(self):
        """One pickled list per count column, not one pickle per
        count: the memo shares what the annotations have in common."""
        shard = {Tup(i, i + 1): Prov({(f"x{i % 5}",): 2})
                 for i in range(200)}
        blob = encode_shard(shard)
        per_count = sum(len(pickle.dumps(count, pickle.HIGHEST_PROTOCOL))
                        for count in shard.values())
        assert len(blob) * 2 < per_count
        assert _assert_round_trips(shard) == shard
        costs = {Tup(i): Trop(float(i)) for i in range(50)}
        assert _assert_round_trips(costs) == costs

    def test_cell_width_adapts_to_the_column(self):
        narrow = encode_shard({Tup(i % 200, i % 7): 1
                               for i in range(1000)})
        wide = encode_shard({Tup(i % 200 + 70000, i % 7): 1
                             for i in range(1000)})
        assert len(wide) > 3 * len(narrow) / 2

    def test_nested_shard_ships_in_half_the_bytes_of_pickle(self):
        shard = {Tup(key, Bag.from_counts({Tup(key * 10 + j): j + 1
                                           for j in range(24)})): 1
                 for key in range(40)}
        blob = encode_shard(shard)
        assert blob[:4] == codec._MAGIC
        assert len(blob) * 2 <= len(pickle.dumps(shard,
                                                 pickle.HIGHEST_PROTOCOL))


def _framing(blob):
    """Offsets of every column-kind, count-tag and cell-width byte of a
    column-layout blob, found by walking the layout."""
    kinds, tags, widths = [], [], []

    def cells(pos):
        widths.append(codec._read_varint(blob, pos)[1])
        return codec._read_ints(blob, pos)[1]

    def body(pos):
        tags.append(pos)
        if blob[pos] == codec._C_PACKED:
            return column(cells(pos + 1))
        return column(codec._read_bytes(blob, pos + 1)[1])

    def column(pos):
        kinds.append(pos)
        kind = blob[pos]
        pos += 1
        if kind == codec._K_BAG:
            return body(cells(pos))
        if kind != codec._K_ATOMS:
            arity, pos = codec._read_varint(blob, pos)
            if kind == codec._K_TUPLE:
                for _ in range(arity):
                    pos = column(pos)
                return pos
        return cells(codec._read_bytes(blob, pos)[1])  # table, cells

    assert body(codec._read_varint(blob, 4)[1]) == len(blob)
    return kinds, tags, widths


_HOSTILE = {
    "flat": {Tup(i, i * 300): i + 1 for i in range(12)},
    "flat-str": {Tup("x", i): 70000 for i in range(12)},
    "atoms": {"a": 1, "bb": 2, 7: 3},
    "nested": {Tup(i, Bag.from_counts({Tup(i * j): j for j in range(1, 4)})):
               i + 1 for i in range(5)},
    "bag-of-bags": {Bag([_INNER, _INNER, Bag.of(Tup(5, "c"))]): 2,
                    Bag(): 1},
    "annotated": {Tup("a", 1): Trop(2.0), Tup("b", 2): Trop(0.0)},
    "annotated-nested": {Tup(Bag({Tup("p"): Trop(1.5)}), "tag"): Trop(0.5)},
    "empty": {},
    "pickled": {Tup(1, _INNER): 7, Tup(2.5, Bag()): 1},
}
_LAID_OUT = [name for name in _HOSTILE if name != "pickled"]


class TestCodecHostileInput:
    """A malformed blob is a typed ``CodecError`` — never an ``IndexError``,
    a ``struct.error``, or a silently different dict."""

    @pytest.mark.parametrize("name", _HOSTILE)
    def test_every_truncation_is_rejected(self, name):
        blob = encode_shard(_HOSTILE[name])
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                decode_shard(blob[:cut])

    @pytest.mark.parametrize("name", _HOSTILE)
    def test_trailing_bytes_are_rejected(self, name):
        # the fallback too: pickle.loads itself ignores trailing data
        with pytest.raises(CodecError):
            decode_shard(encode_shard(_HOSTILE[name]) + b"\x00")

    @pytest.mark.parametrize("name", _HOSTILE)
    def test_every_bad_magic_byte_is_rejected(self, name):
        blob = encode_shard(_HOSTILE[name])
        for position in range(4):
            for byte in range(256):
                if byte == blob[position]:
                    continue
                mangled = bytearray(blob)
                mangled[position] = byte
                with pytest.raises(CodecError):
                    decode_shard(bytes(mangled))

    def test_the_fallback_and_the_layout_are_told_apart(self):
        assert [encode_shard(_HOSTILE[name])[:4] == codec._MAGIC
                for name in _HOSTILE] == [name in _LAID_OUT
                                          for name in _HOSTILE]

    @pytest.mark.parametrize("name", _LAID_OUT)
    def test_every_bad_kind_or_count_tag_byte_is_rejected(self, name):
        blob = encode_shard(_HOSTILE[name])
        kinds, tags, _ = _framing(blob)
        for position in kinds + tags:
            for byte in range(256):
                if byte == blob[position]:
                    continue
                mangled = bytearray(blob)
                mangled[position] = byte
                with pytest.raises(CodecError):
                    decode_shard(bytes(mangled))

    @pytest.mark.parametrize("name", _LAID_OUT)
    def test_every_bad_width_byte_is_rejected(self, name):
        blob = encode_shard(_HOSTILE[name])
        for position in _framing(blob)[2]:
            if blob[position - 1] == 0:
                continue  # an empty column frames alike at any width
            size = codec._ITEMSIZE[chr(blob[position])]
            for byte in range(256):
                if codec._ITEMSIZE.get(chr(byte)) == size:
                    # the same-width sibling ('B' vs 'b') frames
                    # identically: a wrong value, not a bad byte
                    continue
                mangled = bytearray(blob)
                mangled[position] = byte
                with pytest.raises(CodecError):
                    decode_shard(bytes(mangled))

    def test_short_cell_column_is_not_a_short_dict(self):
        blob = bytearray(encode_shard({Tup(i, i): 1 for i in range(9)}))
        cell_width = _framing(bytes(blob))[2][-1]
        # claim one cell fewer and drop its byte: still well-framed,
        # but 17 cells cannot make 9 pairs
        assert blob[cell_width - 1] == 18
        blob[cell_width - 1] = 17
        with pytest.raises(CodecError):
            decode_shard(bytes(blob[:-1]))

    def test_duplicate_values_are_rejected(self):
        blob = bytearray(encode_shard({Tup(1, 2): 1, Tup(3, 4): 1}))
        assert blob[-4:] == bytes([1, 2, 3, 4])
        blob[-2:] = bytes([1, 2])
        with pytest.raises(CodecError):
            decode_shard(bytes(blob))

    def test_colliding_members_of_a_nested_bag_are_rejected(self):
        """Well-framed, but one inner bag lists ``[1]`` twice: decoding
        it as ``{{[1]*5}}`` would drop ``[2]*5`` without a word."""
        shard = {Tup(0, Bag.from_counts({Tup(1): 2, Tup(2): 5})): 1}
        blob = bytearray(encode_shard(shard))
        assert blob[-2:] == bytes([1, 2])  # the member cells, last
        blob[-1] = 1
        with pytest.raises(CodecError, match="colliding"):
            decode_shard(bytes(blob))

    @pytest.mark.parametrize("level", [0, 1])
    def test_a_non_positive_packed_count_is_rejected(self, level):
        """A zero count would seal as a phantom element under a proven
        plan's trusted root seal; a count column must be positive."""
        shard = {Tup(1, Bag.from_counts({Tup(3): 4, Tup(5): 6})): 7,
                 Tup(2, Bag.from_counts({Tup(8): 9})): 1}
        blob = encode_shard(shard)
        tag = _framing(blob)[1][level]
        count_cells = codec._read_varint(blob, tag + 1)[1] + 1
        for bad in (0, 255):  # zero, and -1 once the code is signed
            mangled = bytearray(blob)
            mangled[count_cells] = bad
            if bad == 255:
                mangled[count_cells - 1] = ord("b")
            with pytest.raises(CodecError, match="non-positive"):
                decode_shard(bytes(mangled))

    def test_codec_error_is_a_library_error_and_never_retried(self):
        with pytest.raises(CodecError) as caught:
            decode_shard(codec._MAGIC)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)
        # a corrupt blob decodes the same way on every attempt
        assert not is_transient_fault(caught.value)


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

    def test_trusted_constructor_matches_the_checked_one(self):
        fresh = Tup(1, "a", Tup(2))
        trusted = Tup.trusted((1, "a", Tup(2)))
        assert trusted._hash is None and trusted._shape is None
        assert trusted == fresh
        assert hash(trusted) == hash(fresh)
        # the lazy shape resolves to the checked one's
        assert Bag([fresh, trusted]).multiplicity(fresh) == 2
        assert trusted.concat(Tup(3)) == Tup(1, "a", Tup(2), 3)

    def test_bulk_decoded_tup_is_a_fresh_one(self):
        # the packed path builds every row through Tup.trusted
        shard = {Tup(i, "x"): i + 1 for i in range(5)}
        for decoded in decode_shard(encode_shard(shard)):
            twin = Tup(*decoded.items())
            assert decoded == twin
            assert hash(decoded) == hash(twin)
            assert Bag([decoded, twin]).multiplicity(twin) == 2

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

    def test_pickle_crosses_interpreters_with_different_hash_seeds(self):
        """A cached hash is salted per interpreter (``str`` hashing):
        pickled under one ``PYTHONHASHSEED`` and loaded under another,
        a bag must still find its members and equal a fresh one."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        build = "Bag.of(Tup('a', 1), Tup('b', 2))"
        prelude = "import pickle, sys\nfrom repro.core.bag import Bag, Tup\n"
        frozen = subprocess.run(
            [sys.executable, "-c", prelude
             + f"sys.stdout.buffer.write(pickle.dumps({build}))"],
            env=dict(env, PYTHONHASHSEED="1"), capture_output=True,
            check=True, timeout=60).stdout
        thawed = subprocess.run(
            [sys.executable, "-c", prelude
             + "b = pickle.loads(sys.stdin.buffer.read())\n"
             + f"print(Tup('a', 1) in b, b == {build}, b._shape)"],
            env=dict(env, PYTHONHASHSEED="2"), input=frozen,
            capture_output=True, check=True, timeout=60).stdout
        assert thawed.decode().split() == [
            "True", "True", "('tuple',", "(('atom',),", "('atom',)))"]

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


# ----------------------------------------------------------------------
# The resident process pool
# ----------------------------------------------------------------------


def _process_query(stats=None, **options):
    return evaluate(_expr(), _db(), cache=None, engine="parallel",
                    workers=2, parallel_backend="process",
                    parallel_threshold=0.0, min_morsel_rows=1,
                    stats=stats, **options)


def _resident_process_pool():
    return exchange._POOLS[("process", os.getpid(), 2)]


def _query_in_forked_child(conn):
    inherited = set(exchange._POOLS)
    ok = _process_query() == evaluate(_expr(), _db(), cache=None)
    conn.send((ok, os.getpid(),
               sorted(set(exchange._POOLS) - inherited)))


@fork_only
class TestResidentProcessPool:
    def test_pool_and_workers_outlive_the_query(self):
        _process_query()
        pool = _resident_process_pool()
        workers = set(pool._processes)
        for _ in range(3):
            _process_query()
        assert _resident_process_pool() is pool
        assert set(pool._processes) == workers

    def test_killed_worker_fails_one_query_then_a_fresh_pool(self):
        """SIGKILL a resident worker between two queries: the next
        query fails fast (no silent respawn on the non-resilient
        path), the one after runs on a new pool."""
        reference = evaluate(_expr(), _db(), cache=None)
        assert _process_query() == reference
        pool = _resident_process_pool()
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        assert not victim.is_alive()
        stats = EngineStats()
        with pytest.raises(BrokenExecutor):
            _process_query(stats=stats)
        assert stats.pool_respawns == 0
        assert stats.demotions == []
        assert _process_query() == reference
        assert _resident_process_pool() is not pool

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_governed_failure_leaves_no_task_running(self, backend,
                                                     monkeypatch):
        submitted = []
        resident = exchange._resident_pool

        class Recording:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, *args):
                future = self.pool.submit(*args)
                submitted.append(future)
                return future

        monkeypatch.setattr(
            exchange, "_resident_pool",
            lambda *args: Recording(resident(*args)))
        with pytest.raises(BudgetExceeded):
            evaluate(_expr(), _db(), cache=None, engine="parallel",
                     workers=2, parallel_backend=backend,
                     parallel_threshold=0.0, min_morsel_rows=1,
                     limits=Limits(max_steps=5))
        assert len(submitted) > 1
        assert all(future.done() for future in submitted)
        # and the pool is still good for the next query
        monkeypatch.undo()
        assert (evaluate(_expr(), _db(), cache=None, engine="parallel",
                         workers=2, parallel_backend=backend,
                         parallel_threshold=0.0, min_morsel_rows=1)
                == evaluate(_expr(), _db(), cache=None))

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads worker RSS from /proc")
    def test_worker_rss_stays_flat_over_200_queries(self):
        """Workers keep compiled segments (a bounded cache), never
        shards: 200 queries of 1500-row shards would show as tens of
        MB if a worker held on to what it decoded."""
        page = os.sysconf("SC_PAGE_SIZE")

        def rss(pid):
            with open(f"/proc/{pid}/statm") as handle:
                return int(handle.read().split()[1]) * page

        db = {"R": Bag.from_counts(
            {Tup(i, i % 97): (i % 3) + 1 for i in range(1500)})}
        exprs = [_expr(), Dedup(var("R") + var("R")),
                 var("R") + (var("R") - var("R"))]
        references = [evaluate(expr, db, cache=None) for expr in exprs]

        def run(rounds):
            for index in range(rounds):
                which = index % len(exprs)
                assert evaluate(
                    exprs[which], db, cache=None, engine="parallel",
                    workers=2, parallel_backend="process",
                    parallel_threshold=0.0) == references[which]

        run(30)  # warm: segments compiled, allocator arenas grown
        pool = _resident_process_pool()
        before = {pid: rss(pid) for pid in pool._processes}
        run(200)
        assert _resident_process_pool() is pool
        assert set(pool._processes) == set(before)
        for pid, start in before.items():
            assert rss(pid) - start < 8 * 2 ** 20

    def test_forked_child_creates_its_own_pool(self):
        """A child forked from a parent that owns a pool inherits the
        registry but none of the pool's threads or pipes."""
        _process_query()
        parent_key = ("process", os.getpid(), 2)
        assert parent_key in exchange._POOLS
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_query_in_forked_child,
                                args=(sender,))
        child.start()
        try:
            assert receiver.poll(30)
            ok, pid, created = receiver.recv()
        finally:
            child.join(30)
        # the child exited on its own: its pool's workers were
        # stopped by the exit finalizer, not left to hang the join
        assert child.exitcode == 0
        assert ok
        assert created == [("process", pid, 2)]
        assert pid != os.getpid()
        assert _process_query() == evaluate(_expr(), _db(), cache=None)

    def test_workers_die_with_a_killed_parent(self, tmp_path):
        """A SIGKILLed parent sends no stop message; the resident
        workers notice it is gone instead of idling forever."""
        script = tmp_path / "parent.py"
        script.write_text(
            "import os, signal\n"
            "from repro.core.bag import Bag, Tup\n"
            "from repro.core.expr import Dedup, var\n"
            "from repro.engine import evaluate\n"
            "from repro.engine.parallel import exchange\n"
            "db = {'R': Bag.from_counts("
            "{Tup(i % 13, i % 7): 1 for i in range(240)})}\n"
            "evaluate(Dedup(var('R') + var('R')), db, cache=None,\n"
            "         engine='parallel', workers=2,\n"
            "         parallel_backend='process',\n"
            "         parallel_threshold=0.0, min_morsel_rows=1)\n"
            "pool = exchange._POOLS[('process', os.getpid(), 2)]\n"
            "print(*pool._processes, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        workers = [int(pid) for pid in done.stdout.split()]
        assert len(workers) == 2

        def gone(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            try:  # dead but not yet reaped by whoever adopted it
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
                return state == "Z"
            except OSError:
                return True

        deadline = time.monotonic() + 20
        while (not all(gone(pid) for pid in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert all(gone(pid) for pid in workers)

    def test_shutdown_pools_stops_the_workers(self):
        _process_query()
        workers = list(_resident_process_pool()._processes.values())
        shutdown_pools()
        assert ("process", os.getpid(), 2) not in exchange._POOLS
        for worker in workers:
            worker.join(10)
            assert not worker.is_alive()
        assert _process_query() == evaluate(_expr(), _db(), cache=None)
