"""Backend conformance tests, run against every Yokan backend kind."""

import hashlib
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import ConfigError, DatabaseClosed, KeyNotFound
from repro.mercury import Fabric
from repro.yokan import BACKEND_KINDS, LSMBackend, MemoryBackend, open_backend
from repro.yokan.backends import lsm as lsm_module

BACKENDS = ["map", "lsm"]


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    kind = request.param
    if kind == "map":
        db = MemoryBackend()
    else:
        # Small memtable to exercise flush/compaction in ordinary tests.
        db = LSMBackend(str(tmp_path / "lsm"), memtable_bytes=2048,
                        compaction_trigger=3)
    yield db
    if not db.closed:
        db.close()


class TestConformance:
    def test_put_get(self, backend):
        backend.put(b"k", b"v")
        assert backend.get(b"k") == b"v"

    def test_get_missing(self, backend):
        with pytest.raises(KeyNotFound):
            backend.get(b"missing")

    def test_overwrite(self, backend):
        backend.put(b"k", b"v1")
        backend.put(b"k", b"v2")
        assert backend.get(b"k") == b"v2"
        assert len(backend) == 1

    def test_exists(self, backend):
        assert not backend.exists(b"k")
        backend.put(b"k", b"v")
        assert backend.exists(b"k")

    def test_erase(self, backend):
        backend.put(b"k", b"v")
        backend.erase(b"k")
        assert not backend.exists(b"k")
        assert len(backend) == 0
        with pytest.raises(KeyNotFound):
            backend.erase(b"k")

    def test_empty_value(self, backend):
        backend.put(b"k", b"")
        assert backend.get(b"k") == b""
        assert backend.exists(b"k")

    def test_len(self, backend):
        for i in range(50):
            backend.put(f"key-{i:03d}".encode(), b"x")
        assert len(backend) == 50
        backend.erase(b"key-000")
        assert len(backend) == 49

    def test_ordered_scan(self, backend):
        keys = [f"{i:04d}".encode() for i in range(200)]
        import random

        shuffled = keys[:]
        random.Random(1).shuffle(shuffled)
        for k in shuffled:
            backend.put(k, k + b"-value")
        scanned = [k for k, _ in backend.scan()]
        assert scanned == keys
        for k, v in backend.scan():
            assert v == k + b"-value"

    def test_scan_from_start(self, backend):
        for i in range(10):
            backend.put(f"{i}".encode(), b"v")
        assert [k for k, _ in backend.scan(b"5")] == [b"5", b"6", b"7", b"8", b"9"]
        assert [k for k, _ in backend.scan(b"5", inclusive=False)][0] == b"6"

    def test_scan_prefix(self, backend):
        backend.put(b"run/1", b"a")
        backend.put(b"run/2", b"b")
        backend.put(b"sub/1", b"c")
        assert [k for k, _ in backend.scan_prefix(b"run/")] == [b"run/1", b"run/2"]

    def test_list_keys_paging(self, backend):
        for i in range(30):
            backend.put(f"e{i:02d}".encode(), b"v")
        page1 = backend.list_keys(prefix=b"e", limit=10)
        assert len(page1) == 10
        page2 = backend.list_keys(prefix=b"e", start_after=page1[-1], limit=10)
        assert page2[0] == b"e10"
        all_keys = backend.list_keys(prefix=b"e")
        assert len(all_keys) == 30

    def test_list_keys_prefix_isolation(self, backend):
        backend.put(b"aa1", b"")
        backend.put(b"ab1", b"")
        backend.put(b"ac1", b"")
        assert backend.list_keys(prefix=b"ab") == [b"ab1"]

    def test_get_multi(self, backend):
        backend.put(b"a", b"1")
        backend.put(b"c", b"3")
        assert backend.get_multi([b"a", b"b", b"c"]) == [b"1", None, b"3"]

    def test_put_multi(self, backend):
        count = backend.put_multi([(b"x", b"1"), (b"y", b"2")])
        assert count == 2
        assert backend.get(b"y") == b"2"

    def test_closed_rejects_ops(self, backend):
        backend.close()
        with pytest.raises(DatabaseClosed):
            backend.put(b"k", b"v")
        with pytest.raises(DatabaseClosed):
            backend.get(b"k")

    def test_binary_keys(self, backend):
        key = bytes(range(256))
        backend.put(key, b"binary")
        assert backend.get(key) == b"binary"

    def test_large_value(self, backend):
        value = bytes(100_000)
        backend.put(b"big", value)
        assert backend.get(b"big") == value


class TestOpenBackend:
    def test_open_by_kind(self, tmp_path):
        assert isinstance(open_backend("map"), MemoryBackend)
        assert isinstance(open_backend("lsm", path=str(tmp_path / "l")), LSMBackend)

    def test_unknown_kind(self):
        assert sorted(BACKEND_KINDS) == ["lsm", "map"]
        with pytest.raises(ConfigError, match=r"known: \['lsm', 'map'\]"):
            open_backend("btree")

    @pytest.mark.parametrize("option", ["seed", "memtable_bytes", "bogus"])
    def test_map_refuses_every_option(self, option):
        """``map`` takes no option: a key ``open_backend`` does not
        consume is refused by name, never silently ignored."""
        with pytest.raises(ConfigError, match=option):
            open_backend("map", **{option: 1})
        with pytest.raises(ConfigError, match=option):
            open_backend("map", wal_sync=True, **{option: 1})

    def test_map_option_refused_through_bedrock(self):
        config = default_hepnos_config("sm://n0/h", num_providers=1,
                                       backend_config={"bogus": 1})
        specs = config["providers"][0]["config"]["databases"]
        assert specs[0]["type"] == "map"
        assert specs[0]["config"] == {"bogus": 1}
        with pytest.raises(ConfigError, match="bogus"):
            BedrockServer(Fabric(), config)


class TestLSMInternals:
    def test_flush_and_read_back(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=1 << 30)
        for i in range(100):
            db.put(f"{i:03d}".encode(), f"value-{i}".encode())
        db.flush_memtable()
        assert db.stats.flushes == 1
        assert db.get(b"042") == b"value-42"
        assert len(db._memtable) == 0

    def test_tombstone_shadows_sstable(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"))
        db.put(b"k", b"v")
        db.flush_memtable()
        db.erase(b"k")
        assert not db.exists(b"k")
        assert [k for k, _ in db.scan()] == []
        db.flush_memtable()  # tombstone now in an sstable
        assert not db.exists(b"k")

    def test_newest_sstable_wins(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"))
        db.put(b"k", b"old")
        db.flush_memtable()
        db.put(b"k", b"new")
        db.flush_memtable()
        assert db.get(b"k") == b"new"
        assert [v for _, v in db.scan()] == [b"new"]

    def test_compaction_merges_and_drops_tombstones(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), compaction_trigger=100)
        for gen in range(3):
            for i in range(20):
                db.put(f"{i:02d}".encode(), f"g{gen}".encode())
            db.flush_memtable()
        db.erase(b"00")
        db.flush_memtable()
        db.compact()
        assert db.stats.compactions == 1
        assert len(db._sstables) == 1
        assert not db.exists(b"00")
        assert db.get(b"01") == b"g2"
        assert len(db) == 19

    def test_recovery_from_wal(self, tmp_path):
        path = str(tmp_path / "db")
        db = LSMBackend(path)
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        db.flush()
        db.close()
        db2 = LSMBackend(path)
        assert db2.get(b"a") == b"1"
        assert db2.get(b"b") == b"2"
        db2.close()

    def test_recovery_from_sstables_and_wal(self, tmp_path):
        path = str(tmp_path / "db")
        db = LSMBackend(path)
        db.put(b"persisted", b"1")
        db.flush_memtable()
        db.put(b"in-wal", b"2")
        db.flush()
        db.close()
        db2 = LSMBackend(path)
        assert db2.get(b"persisted") == b"1"
        assert db2.get(b"in-wal") == b"2"
        db2.close()

    def test_torn_wal_tail_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        db = LSMBackend(path)
        db.put(b"good", b"1")
        db.flush()
        wal_path = db.active_wal_path
        db.close()
        with open(wal_path, "ab") as f:
            f.write(b"\x40\x00\x00\x00garbage")  # truncated record
        db2 = LSMBackend(path)
        assert db2.get(b"good") == b"1"
        db2.close()

    def test_auto_flush_on_memtable_size(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=512)
        for i in range(100):
            db.put(f"{i:04d}".encode(), b"x" * 32)
        assert db.stats.flushes > 0
        assert db.get(b"0000") == b"x" * 32
        db.close()

    def test_bloom_filter_skips(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"))
        for i in range(100):
            db.put(f"key-{i}".encode(), b"v")
        db.flush_memtable()
        for i in range(100):
            with pytest.raises(KeyNotFound):
                db.get(f"absent-{i}".encode())
        assert db.stats.bloom_skips > 50  # most misses never touch disk

    def test_write_amplification_reported(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"))
        for i in range(50):
            db.put(f"{i}".encode(), b"x" * 100)
        db.flush_memtable()
        assert db.stats.write_amplification > 1.0


class TestBloomFilter:
    def test_no_false_negatives(self):
        from repro.yokan.backends.lsm import BloomFilter

        bloom = BloomFilter.for_capacity(1000)
        keys = [f"key-{i}".encode() for i in range(1000)]
        for k in keys:
            bloom.add(k)
        assert all(k in bloom for k in keys)

    def test_false_positive_rate_reasonable(self):
        from repro.yokan.backends.lsm import BloomFilter

        bloom = BloomFilter.for_capacity(1000)
        for i in range(1000):
            bloom.add(f"key-{i}".encode())
        fp = sum(1 for i in range(10_000) if f"other-{i}".encode() in bloom)
        assert fp < 500  # ~1% expected at 10 bits/key; allow 5%

    def test_roundtrip(self):
        from repro.yokan.backends.lsm import BloomFilter

        bloom = BloomFilter(256, 3)
        bloom.add(b"x")
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert b"x" in clone
        assert clone.num_bits == 256 and clone.num_hashes == 3


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "erase"]),
            st.binary(min_size=1, max_size=6),
            st.binary(max_size=12),
        ),
        max_size=80,
    )
)
def test_lsm_matches_model(tmp_path_factory, ops):
    tmp = tmp_path_factory.mktemp("lsm-prop")
    db = LSMBackend(str(tmp / "db"), memtable_bytes=256, compaction_trigger=2)
    model = {}
    for op, key, value in ops:
        if op == "put":
            db.put(key, value)
            model[key] = value
        elif key in model:
            db.erase(key)
            del model[key]
    assert sorted(model.items()) == list(db.scan())
    db.close()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "put", "erase", "scan", "len",
                             "flush", "compact", "drain"]),
            st.binary(min_size=1, max_size=6),
            st.binary(max_size=12),
        ),
        max_size=60,
    )
)
def test_lsm_background_matches_memory_model(tmp_path_factory, ops):
    """Differential suite: the full engine (background worker, tiny
    memtable, aggressive tiering, tiny blocks + cache) vs the in-memory
    backend through random put/erase/scan/flush/compact interleavings.
    Every observation point must agree while flushes and compactions
    land concurrently with the driving thread."""
    tmp = tmp_path_factory.mktemp("lsm-bg-prop")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsm_module, "_BLOCK_BYTES", 512)
        db = LSMBackend(str(tmp / "db"), memtable_bytes=512,
                        compaction_trigger=2, block_cache_bytes=4096,
                        max_immutables=2)
        model = MemoryBackend()
        try:
            for op, key, value in ops:
                if op == "put":
                    db.put(key, value)
                    model.put(key, value)
                elif op == "erase":
                    if model.exists(key):
                        db.erase(key)
                        model.erase(key)
                    else:
                        assert not db.exists(key)
                elif op == "scan":
                    assert list(db.scan(key)) == list(model.scan(key))
                elif op == "len":
                    assert len(db) == len(model)
                elif op == "flush":
                    db.flush_memtable()
                elif op == "compact":
                    db.compact()
                else:
                    db.drain()
            db.drain()
            assert list(db.scan()) == list(model.scan())
            assert len(db) == len(model)
            for key in list(model.list_keys())[:20]:
                assert db.get(key) == model.get(key)
        finally:
            db.close()


class TestLSMProductionEngine:
    """The PR 10 engine features: incremental key counting, unified
    lookup stats, the block cache, and backpressure."""

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(lsm_module, "_BLOCK_BYTES", 512)

    def test_len_maintained_incrementally(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=512,
                        compaction_trigger=2)
        for i in range(50):
            db.put(b"k%03d" % i, b"v")
        assert len(db) == 50          # first call counts...
        assert db._live_keys == 50
        db.put(b"k000", b"v2")        # overwrite: no change
        db.put(b"new", b"v")          # insert: +1
        db.erase(b"k001")             # delete: -1
        assert db._live_keys == 50    # ...then mutations adjust in place
        assert len(db) == 50
        db.flush_memtable()
        db.compact()
        assert len(db) == 50          # maintenance never changes the count
        db.close()

    def test_exists_records_read_stats(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"))
        db.put(b"present", b"1")
        assert db.exists(b"present")
        assert db.stats.memtable_hits == 1
        db.flush_memtable()
        assert db.exists(b"present")
        assert db.stats.sstable_reads == 1
        assert not db.exists(b"absent")
        assert db.stats.bloom_skips >= 1
        assert db.stats.gets == 3     # exists and get share the path
        db.close()

    def test_reads_consult_immutable_memtables(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=1 << 20)
        db.put(b"sealed", b"1")
        with db._lock:
            db._seal_memtable_locked()
            # Racing the worker: the sealed memtable must serve reads
            # until its SSTable is installed.
            assert db.get(b"sealed") == b"1"
        db.drain()
        assert db.get(b"sealed") == b"1"
        assert db.stats.rotations == 1
        db.close()

    def test_block_cache_serves_repeat_reads(self, tmp_path, small_blocks):
        db = LSMBackend(str(tmp_path / "db"), block_cache_bytes=1 << 20)
        for i in range(200):
            db.put(b"k%04d" % i, b"v" * 50)
        db.flush_memtable()
        for i in range(200):
            db.get(b"k%04d" % i)      # cold: decode each block once
        cold_reads = db.stats.blocks_read
        for i in range(200):
            db.get(b"k%04d" % i)      # warm: served from the cache
        assert db.stats.blocks_read == cold_reads
        assert db.stats.block_cache_hits >= 200
        assert db.lsm_stats()["block_cache_hit_rate"] > 0.4
        db.close()

    def test_read_amplification_counts_lookup_blocks_only(self, tmp_path,
                                                           small_blocks):
        # Two overlapping flushed tables, no block cache: every lookup
        # decodes one block per table it probes, never more than one a
        # table and never fewer than one.
        db = LSMBackend(str(tmp_path / "db"), block_cache_bytes=0,
                        compaction_trigger=100)
        for generation in (b"old", b"new"):
            for i in range(0, 200, 1 if generation == b"old" else 2):
                db.put(b"k%04d" % i, generation * 20)
            db.flush_memtable()
        levels = db.lsm_stats()["sstables"]
        assert levels == 2
        for i in range(200):
            assert db.get(b"k%04d" % i).startswith(b"old" if i % 2 else b"new")
        stats = db.stats
        assert stats.gets == 200
        assert 1.0 <= stats.read_amplification <= levels
        ratio, lookups = stats.read_amplification, stats.lookup_blocks_read
        # Scans, listings, compaction inputs and uncounted pre-image
        # probes decode blocks too; those are in the total only.
        total = stats.blocks_read
        assert total == lookups
        assert len(list(db.scan_prefix(b"k"))) == 200
        assert len(db.list_keys(b"k", limit=500)) == 200
        assert len(db) == 200               # from here the count is kept...
        db.put(b"k0001", b"overwritten")    # ...by probing for a pre-image
        db.compact()
        assert stats.blocks_read > total and stats.gets == 200
        assert stats.lookup_blocks_read == lookups
        assert stats.read_amplification == ratio
        assert db.lsm_stats()["read_amplification"] == round(ratio, 3)
        db.close()

    def test_block_cache_bytes_bounded(self, tmp_path, small_blocks):
        db = LSMBackend(str(tmp_path / "db"), block_cache_bytes=2048)
        for i in range(400):
            db.put(b"k%04d" % i, b"v" * 60)
        db.flush_memtable()
        for i in range(400):
            db.get(b"k%04d" % i)
        assert db.block_cache.used_bytes <= 2048
        assert db.stats.block_cache_evictions > 0
        db.close()

    @pytest.mark.parametrize("option", [
        "compaction", "background", "sync_wal", "tier_ratio",
        "throttle_backlog", "throttle_sleep_s", "bits_per_key",
        "block_bytes", "compression"])
    def test_removed_options_rejected(self, tmp_path, option):
        """A config still carrying a removed option fails loudly
        (``sync_wal=True`` silently ignored would drop an fsync,
        ``compression="zlib"`` would silently store raw blocks)."""
        with pytest.raises(ConfigError, match=option):
            LSMBackend(str(tmp_path / "db"), **{option: True})

    def test_tiered_compaction_merges_runs_not_everything(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=1 << 20,
                        compaction_trigger=2)
        # Two big tables, then two small ones: the tiered policy merges
        # the small same-bucket run without rewriting the big tables.
        # Draining after every flush pins the schedule: each table is
        # considered for compaction before the next one lands.
        for start in (0, 4096):
            for i in range(start, start + 3500):
                db.put(b"k%08d" % i, b"x" * 28)
            db.flush_memtable()
            db.drain()
        big = len(db._sstables)
        compactions_before = db.stats.compactions
        for start in (20000, 20100):
            for i in range(start, start + 50):
                db.put(b"k%08d" % i, b"x" * 8)
            db.flush_memtable()
            db.drain()
        assert db.stats.compactions > compactions_before
        # The small run merged into one table; the big tables survive.
        tiers = db.lsm_stats()["tiers"]
        assert len(db._sstables) == big + 1
        assert sum(tiers.values()) == big + 1
        db.close()

    def test_backpressure_stalls_instead_of_unbounded_queueing(self,
                                                               tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=256,
                        max_immutables=1)
        for i in range(300):
            db.put(b"k%05d" % i, b"v" * 40)
        db.drain()
        assert db.stats.backpressure_waits > 0
        assert len(db._immutables) <= 1
        assert dict(db.scan()) == {b"k%05d" % i: b"v" * 40
                                   for i in range(300)}
        db.close()

    def test_put_multi_single_wal_record_recovers(self, tmp_path):
        path = str(tmp_path / "db")
        db = LSMBackend(path, memtable_bytes=1 << 20)
        wal_before = db.stats.wal_bytes
        db.put_multi([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        assert db.stats.wal_bytes > wal_before
        db._wal.close()  # crash: nothing flushed beyond the appends
        recovered = LSMBackend(path)
        assert dict(recovered.scan()) == {b"a": b"1", b"b": b"2",
                                          b"c": b"3"}
        recovered.close()

    def test_stats_surface(self, tmp_path):
        db = LSMBackend(str(tmp_path / "db"), memtable_bytes=512)
        for i in range(60):
            db.put(b"k%03d" % i, b"v" * 20)
        db.drain()
        db.get(b"k000")
        stats = db.lsm_stats()
        for gauge in ("memtable_bytes", "immutables", "sstables", "tiers",
                      "compaction_backlog", "block_cache_hit_rate",
                      "write_amplification", "read_amplification",
                      "flush_seconds", "flushes", "rotations"):
            assert gauge in stats
        assert stats["flushes"] > 0
        assert db.stats.write_amplification >= 1.0
        db.close()


# -- page scans, table ids, table bytes ---------------------------------------


class _ManualLSM(LSMBackend):
    """An engine without its background worker: the test lands every
    flush and compaction itself, at the point it chooses."""

    def _worker_loop(self) -> None:
        return


_KEY_BYTES = st.lists(st.sampled_from([0x00, 0x01, 0x61, 0xFE, 0xFF]),
                      min_size=1, max_size=4).map(bytes)

_OPS = st.lists(st.tuples(
    st.sampled_from(["put", "put", "put", "erase", "erase", "seal", "flush",
                     "compact"]),
    _KEY_BYTES, st.binary(max_size=24), st.integers(0, 7)), max_size=70)


def _manual_lsm(tmp):
    """A 512-byte block cache: with 64-byte blocks, few keys span many
    blocks and tables."""
    return _ManualLSM(str(tmp / "db"), memtable_bytes=1 << 20,
                      compaction_trigger=2, max_immutables=1000,
                      block_cache_bytes=512)


def _land(db, kind: str, at: int) -> None:
    """Land the oldest sealed memtable's flush, or a compaction."""
    if kind == "flush" and db._immutables:
        db._flush_immutable(db._immutables[0])
    elif kind == "compact" and len(db._sstables) >= 2:
        start = at % (len(db._sstables) - 1)
        db._compact_run(start, len(db._sstables))


def _apply(db, ops) -> dict:
    """Run ``ops`` on ``db``; returns the dict model of what it holds."""
    model: dict = {}
    for op, key, value, at in ops:
        if op == "put":
            db.put(key, value)
            model[key] = value
        elif op == "erase":
            if key in model:
                db.erase(key)
                del model[key]
        elif op == "seal":
            with db._lock:
                db._seal_memtable_locked()
        else:
            _land(db, op, at)
    return model


@settings(max_examples=40, deadline=None)
@given(
    ops=_OPS,
    page=st.lists(st.one_of(
        _KEY_BYTES.map(lambda key: key[:2]), _KEY_BYTES,
        st.sampled_from([b"", b"\xff", b"\xff\xff", b"\xff\xff\xff\xff\xff",
                         b"absent"])), min_size=1, max_size=12),
    landing=st.tuples(st.integers(0, 11), st.sampled_from(["flush",
                                                           "compact"])),
)
def test_scan_prefixes_equals_the_merged_scan(tmp_path_factory, ops, page,
                                              landing):
    """A page of prefix scans from one snapshot equals one merged
    ``scan_prefix`` per prefix -- what the model holds -- whatever mix of
    active memtable, sealed memtables and overlapping tables (with
    tombstones) holds the keys, and when a flush or a compaction lands
    between two groups of the page; ``scan_entries`` counts the same
    entries either way."""
    tmp = tmp_path_factory.mktemp("lsm-pages")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsm_module, "_BLOCK_BYTES", 64)
        db = _manual_lsm(tmp)
        try:
            model = _apply(db, ops)
            before = db.stats.scan_entries
            reference = [list(db.scan_prefix(p)) for p in page]
            pulled = db.stats.scan_entries - before
            assert reference == [
                sorted((k, v) for k, v in model.items() if k.startswith(p))
                for p in page]
            before = db.stats.scan_entries
            groups = []
            for i, group in enumerate(db.scan_prefixes(page)):
                groups.append(list(group))
                if i == landing[0]:
                    with db._lock:
                        db._seal_memtable_locked()
                    _land(db, landing[1], i)
            assert groups == reference
            assert db.stats.scan_entries - before == pulled
        finally:
            db.close()


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, page=st.lists(_KEY_BYTES, min_size=1, max_size=12),
       landing=st.tuples(st.integers(0, 11),
                         st.sampled_from(["flush", "compact"])))
def test_get_each_equals_the_model(tmp_path_factory, ops, page, landing):
    """A page of lookups from one snapshot answers what the model holds
    -- whatever mix of active memtable, sealed memtables and
    overlapping tables (with tombstones) holds the keys, and when a
    flush or a compaction lands between two lookups -- and counts one
    lookup per key taken, none past the last."""
    tmp = tmp_path_factory.mktemp("lsm-lookups")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsm_module, "_BLOCK_BYTES", 64)
        db = _manual_lsm(tmp)
        try:
            model = _apply(db, ops)
            expected = [model.get(key) for key in page]
            assert db.get_multi(page) == expected
            before = db.stats.gets
            next(db.get_each(page))
            assert db.stats.gets - before == 1
            values = []
            for i, value in enumerate(db.get_each(page)):
                values.append(value)
                if i == landing[0]:
                    with db._lock:
                        db._seal_memtable_locked()
                    _land(db, landing[1], i)
            assert values == expected
        finally:
            db.close()


def test_scan_prefixes_is_lazy_and_delegated(tmp_path):
    """Groups are built as they are taken, and the log wrapper hands
    the page to the backend it wraps."""
    db = open_backend("map", wal_path=str(tmp_path / "wal.log"))
    for key in (b"a1", b"a2", b"b1"):
        db.put(key, b"v")
    calls = []
    real = db.inner.scan_prefix
    db.inner.scan_prefix = lambda p: calls.append(p) or real(p)
    groups = db.scan_prefixes([b"a", b"b", b"c"])
    assert calls == []
    assert list(next(groups)) == [(b"a1", b"v"), (b"a2", b"v")]
    assert calls == [b"a"]
    assert [list(g) for g in groups] == [[(b"b1", b"v")], []]
    db.close()


class _LockCheckedIds(LSMBackend):
    """``_next_table_id`` may be read or written only under ``_lock``
    once the engine is up."""

    checking = False

    @property
    def _next_table_id(self):
        assert not self.checking or self._lock._is_owned(), (
            "table id read outside the engine lock")
        return self._table_id

    @_next_table_id.setter
    def _next_table_id(self, value):
        assert not self.checking or self._lock._is_owned(), (
            "table id written outside the engine lock")
        self._table_id = value


def test_table_ids_are_allocated_under_the_engine_lock(tmp_path):
    """A flush (on the worker) and a manual compaction (on the caller's
    thread) both take their table names under the lock, so they can
    never be handed one name."""
    db = _LockCheckedIds(str(tmp_path / "db"), compaction_trigger=8)
    db.checking = True
    try:
        for round_ in range(3):
            db.put_multi([(b"k%d-%d" % (round_, i), b"v") for i in range(20)])
            db.flush_memtable()
        db.compact()
        db.drain()
        names = [os.path.basename(t.path) for t in db._sstables]
        assert names == ["sst-000003.tbl"]
        assert len(db) == 60
    finally:
        db.close()


def table_entries(seed: int, n: int) -> list:
    """``n`` sorted table entries drawn from ``seed``: tombstones, empty
    values, values larger than a block, and keys up to 700 bytes, so
    entries straddle block boundaries."""
    rng = random.Random(seed)
    entries: dict = {}
    while len(entries) < n:
        key = b"ev%08d#" % rng.randrange(10 ** 8) + rng.randbytes(
            rng.choice([0, 3, 40, 700]))
        kind = rng.random()
        if kind < 0.15:
            value = None
        elif kind < 0.25:
            value = b""
        elif kind < 0.3:
            value = rng.randbytes(rng.randrange(4097, 9000))
        else:
            value = rng.randbytes(rng.randrange(1, 300))
        entries[key] = value
    return sorted(entries.items())


#: (seed, entries) -> sha256 of the table file, pinned from the writer
#: that hashed each key into the filter as it went and asked the file
#: for every block's offset
TABLE_SHA256 = {
    (1, 0): "dcb301deaa3766ef7489ef2962b0197ea222ce0a6095a7043695c8bd21787f95",
    (2, 1): "b939813c496a09138c7dca27d877eacafdada208e31d4f52114b4321cb9e56ef",
    (3, 57): "d1602c53db73a24dedb541270c54b12bf9848de28b457cb312f1519404fed790",
    (4, 900): "2aca7fcb4da1abf370bb83fd823450be4178d5b35fd6112f9e0185a653df7442",
}


@pytest.mark.parametrize("seed,n", sorted(TABLE_SHA256))
def test_table_bytes_are_pinned(tmp_path, seed, n):
    entries = table_entries(seed, n)
    path = str(tmp_path / "t.tbl")
    blocks: list = []
    written = lsm_module.SSTable.write(path, iter(entries), n,
                                       should_abort=lambda: False,
                                       on_block=blocks.append)
    with open(path, "rb") as f:
        data = f.read()
    assert hashlib.sha256(data).hexdigest() == TABLE_SHA256[seed, n]
    table = lsm_module.SSTable(path)
    try:
        assert blocks == list(range(len(table.blocks)))
        assert written == table.size_bytes
        assert list(table.scan()) == entries
        for key, value in entries[::7]:
            assert table.get(key) == (True, value)
    finally:
        table.close()


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 10 ** 4])
def test_bloom_fill_equals_adding_key_by_key(n):
    from repro.yokan.backends.lsm import BloomFilter

    rng = random.Random(n)
    keys = [rng.randbytes(rng.randrange(0, 40)) for _ in range(n)]
    reference = BloomFilter.for_capacity(n)
    for key in keys:
        reference.add(key)
    filled = BloomFilter.for_capacity(n)
    filled.add_digests(b"".join(
        hashlib.blake2b(key, digest_size=16).digest() for key in keys))
    assert filled.num_bits == reference.num_bits
    assert filled.to_bytes() == reference.to_bytes()


@pytest.mark.parametrize("num_bits,num_hashes", [(64, 4), (1009, 7),
                                                 (10 ** 6 + 3, 4)])
def test_bloom_fill_reduces_before_it_sums(num_bits, num_hashes):
    """Digest halves near 2**64 would wrap a ``uint64`` sum; reduced mod
    ``num_bits`` first they set the bits exact integer arithmetic does."""
    from repro.yokan.backends.lsm import BloomFilter

    halves = [(2 ** 64 - 1, 2 ** 64 - 1), (2 ** 64 - 2, 2 ** 63 + 5),
              (0, 0), (2 ** 63, 2 ** 64 - 3)]
    digests = b"".join(h1.to_bytes(8, "little") + h2.to_bytes(8, "little")
                       for h1, h2 in halves)
    filled = BloomFilter(num_bits, num_hashes)
    filled.add_digests(digests)
    expected = bytearray((num_bits + 7) // 8)
    for h1, h2 in halves:
        h2 |= 1
        for i in range(num_hashes):
            pos = (h1 + i * h2) % num_bits
            expected[pos >> 3] |= 1 << (pos & 7)
    assert bytes(filled._bits) == bytes(expected)
    for h1, h2 in halves:
        assert filled.contains_hashed(h1, h2 | 1)
    probes = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
    m = np.uint64(num_bits)
    assert probes.dtype == np.uint64
    assert ((probes[:, 0] % m + np.uint64(num_hashes - 1)
             * ((probes[:, 1] | np.uint64(1)) % m)) // m
            < np.uint64(num_hashes)).all()
