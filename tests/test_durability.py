"""Durability layer tests: WAL, checkpoints, replication, failover.

Covers the durability contract every backend kind meets through
``open_backend`` (a dict-model differential, torn tails at every byte,
one stats shape, fsync-before-ack), the record log's on-disk format
(logs written before the log was shared still replay), damaged
checkpoints, servers that lose their volatile state on crash,
primary/backup write forwarding, client-side read failover, and the
anti-entropy re-sync when a dead node rejoins.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import tempfile
import threading
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import (
    AddressError,
    ConfigError,
    CorruptionError,
    KeyNotFound,
)
from repro.faults.chaos import failover_client_policy
from repro.hepnos import AsynchronousWriteBatch, DataStore, WriteBatch
from repro.hepnos.connection import ConnectionInfo, DbTarget
from repro.hepnos.failover import (
    enable_replication,
    kind_of,
    replica_links,
    resync_missing,
)
from repro.hepnos.placement import ShardMap
from repro.mercury import Engine, Fabric
from repro.yokan import LSMBackend, YokanClient
from repro.yokan.backend import DurabilityStats, open_backend
from repro.yokan.backends.wal import DurableBackend, checkpoint_path

KINDS = ["map", "lsm"]


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "db.wal")


class TestDurableBackend:
    def test_roundtrip_through_wrapper(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        assert isinstance(backend, DurableBackend)
        backend.put(b"a", b"1")
        backend.put_multi([(b"b", b"2"), (b"c", b"3")])
        backend.erase(b"b")
        assert backend.get(b"a") == b"1"
        assert backend.get(b"c") == b"3"
        assert not backend.exists(b"b")
        assert backend.stats.wal_records == 3  # put, put_multi, erase
        backend.close()

    def test_checkpoint_truncates_wal_and_restores(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        for i in range(10):
            backend.put(b"key-%d" % i, b"val-%d" % i)
        backend.checkpoint()
        assert os.path.getsize(wal_path) == 0
        assert os.path.exists(checkpoint_path(wal_path))
        backend.put(b"tail", b"after-ckpt")
        backend.crash()

        recovered = open_backend("map", wal_path=wal_path)
        assert recovered.stats.replayed_records == 1  # just the tail
        assert recovered.stats.replayed_keys == 11    # 10 snapshotted + it
        assert recovered.get(b"key-7") == b"val-7"
        assert recovered.get(b"tail") == b"after-ckpt"
        recovered.close()

    def test_auto_checkpoint_by_size(self, wal_path):
        backend = open_backend("map", wal_path=wal_path,
                               wal_checkpoint_bytes=256)
        for i in range(20):
            backend.put(b"key-%02d" % i, bytes(64))
        assert backend.stats.checkpoints >= 1
        backend.crash()
        recovered = open_backend("map", wal_path=wal_path)
        for i in range(20):
            assert recovered.get(b"key-%02d" % i) == bytes(64)
        recovered.close()

    def test_corrupt_checkpoint_raises(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        backend.put(b"a", b"1")
        backend.checkpoint()
        backend.close()
        path = checkpoint_path(wal_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptionError):
            open_backend("map", wal_path=wal_path)

    def test_erase_of_missing_key_not_logged(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        with pytest.raises(KeyNotFound):
            backend.erase(b"ghost")
        assert backend.stats.wal_records == 0
        backend.close()


def _open(kind, root, **extra):
    """Open ``kind`` the only way deployments do, with every path under
    ``root``; small thresholds so sequences cross rotations, background
    flushes and auto-checkpoints."""
    config = dict(wal_path=os.path.join(root, "wal", "db.wal"), **extra)
    if kind == "lsm":
        config.setdefault("memtable_bytes", 256)
    else:
        config.setdefault("wal_checkpoint_bytes", 512)
    if kind != "map":
        config["path"] = os.path.join(root, "store", "db")
    return open_backend(kind, **config)


def _live_log(backend):
    """The file the backend's next record lands in."""
    if isinstance(backend, LSMBackend):
        return backend.active_wal_path
    return backend.wal_path


_keys = st.sampled_from([b"a", b"b", b"c", b"dd", b"e" * 9, b"\x00\xff"])
_values = st.binary(max_size=40)
_pairs = st.lists(st.tuples(_keys, _values), min_size=1, max_size=5)
_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), _keys, _values),
    st.tuples(st.just("put_multi"), _pairs),
    st.tuples(st.just("erase"), _keys),
    st.tuples(st.just("erase_multi"), st.lists(_keys, max_size=4)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
), max_size=30)


class TestDurabilityContract:
    """What ``durable`` means, for every kind ``open_backend`` can make
    durable: map under the wrapper's log, lsm under its own."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(ops=_ops)
    @example(ops=[("put", b"k1", b"v1"),
                  ("put_multi", [(b"k2", b"v2"), (b"k3", b"v3")]),
                  ("erase", b"k2"), ("crash",)])
    @example(ops=[("put_multi", [(b"key-%d" % i, b"val-%d" % i)
                                 for i in range(10)]),
                  ("checkpoint",), ("put", b"tail", b"after-ckpt"),
                  ("crash",), ("erase_multi", [b"tail", b"ghost"]),
                  ("checkpoint",), ("crash",)])
    def test_matches_a_dict_across_crashes(self, kind, ops):
        with tempfile.TemporaryDirectory() as root:
            backend = _open(kind, root)
            model: dict = {}
            for op, *args in ops + [("crash",)]:
                if op == "put":
                    backend.put(*args)
                    model[args[0]] = args[1]
                elif op == "put_multi":
                    assert backend.put_multi(args[0]) == len(args[0])
                    model.update(args[0])
                elif op == "erase":
                    if args[0] in model:
                        backend.erase(args[0])
                        del model[args[0]]
                    else:
                        with pytest.raises(KeyNotFound):
                            backend.erase(args[0])
                elif op == "erase_multi":
                    present = set(args[0]) & set(model)
                    assert backend.erase_multi(args[0]) == len(present)
                    for key in present:
                        del model[key]
                elif op == "checkpoint":
                    backend.checkpoint()
                else:
                    backend.crash()
                    backend = _open(kind, root)
                    assert list(backend.scan()) == sorted(model.items())
                    assert len(backend) == len(model)
            backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_torn_tail_at_every_byte_recovers_the_prefix(self, kind,
                                                         tmp_path):
        """A crash mid-append leaves part of a record: recovery stops
        at the last whole one wherever the tear is, and what is written
        next is readable after the next crash."""
        base = str(tmp_path / "base")
        backend = _open(kind, base)
        backend.put(b"whole", b"record")
        before = backend.durability_stats().wal_bytes
        backend.put_multi([(b"torn", b"casualty"), (b"too", b"")])
        last = backend.durability_stats().wal_bytes - before
        log = os.path.relpath(_live_log(backend), base)
        backend.crash()
        size = os.path.getsize(os.path.join(base, log))
        for torn in range(last):  # bytes of the last record that survive
            root = str(tmp_path / f"cut-{torn}")
            shutil.copytree(base, root)
            with open(os.path.join(root, log), "r+b") as f:
                f.truncate(size - last + torn)
            recovered = _open(kind, root)
            assert dict(recovered.scan()) == {b"whole": b"record"}
            stats = recovered.durability_stats()
            assert stats.torn_tail_bytes == torn
            assert stats.replayed_records == 1
            recovered.put(b"after", b"the tear")
            recovered.crash()
            again = _open(kind, root)
            assert dict(again.scan()) == {b"whole": b"record",
                                          b"after": b"the tear"}
            again.close()
            shutil.rmtree(root)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_stats_shape(self, kind, tmp_path):
        fields = {f.name for f in dataclasses.fields(DurabilityStats)}
        assert fields == {"wal_records", "wal_bytes", "checkpoints",
                          "replayed_records", "replayed_keys",
                          "replay_seconds", "torn_tail_bytes"}
        root = str(tmp_path)
        backend = _open(kind, root)
        assert backend.durable
        backend.put(b"k1", b"v1")
        backend.put_multi([(b"k2", b"v2"), (b"k3", b"v3")])
        backend.erase(b"k2")
        stats = backend.durability_stats()
        assert fields <= set(vars(stats))
        assert stats is backend.stats
        assert stats.wal_records == 3  # one record per acknowledged verb
        # Framed bytes: an 8-byte header on top of each payload.
        assert stats.wal_bytes > 3 * 8 + len(b"k1v1k2v2k3v3k2")
        assert (stats.checkpoints, stats.replayed_records) == (0, 0)
        backend.crash()

        backend = _open(kind, root)
        stats = backend.durability_stats()
        assert stats.replayed_records == 3 and stats.replayed_keys == 4
        assert stats.replay_seconds > 0
        assert dict(backend.scan()) == {b"k1": b"v1", b"k3": b"v3"}
        backend.checkpoint()
        assert stats.checkpoints == 1
        backend.close()

        backend = _open(kind, root)
        stats = backend.durability_stats()
        assert stats.replayed_records == 0  # the checkpoint retired the log
        assert dict(backend.scan()) == {b"k1": b"v1", b"k3": b"v3"}
        backend.close()

    def test_volatile_backend_reports_zeros_and_ignores_checkpoint(self):
        backend = open_backend("map")
        assert not backend.durable
        backend.put(b"a", b"1")
        backend.checkpoint()
        assert backend.durability_stats() == DurabilityStats()
        backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("wal_sync", [True, False])
    def test_wal_sync_is_fsync_before_ack(self, kind, wal_sync, tmp_path,
                                          monkeypatch):
        """``wal_sync`` reaches whichever log the kind has: one fsync
        of the live log per acknowledged verb, none when unset."""
        backend = _open(kind, str(tmp_path), wal_sync=wal_sync,
                        **({"memtable_bytes": 1 << 20} if kind == "lsm"
                           else {}))
        log_inode = os.stat(_live_log(backend)).st_ino
        real_fsync = os.fsync
        synced = []

        def spy(fd):
            if os.fstat(fd).st_ino == log_inode:
                synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        backend.put(b"a", b"1")
        assert len(synced) == (1 if wal_sync else 0)
        backend.put_multi([(b"b", b"2"), (b"c", b"3")])
        assert len(synced) == (2 if wal_sync else 0)
        backend.erase(b"b")
        assert len(synced) == (3 if wal_sync else 0)
        monkeypatch.undo()
        backend.close()

    def test_wal_sync_reaches_an_lsm_deployment(self, tmp_path):
        config = default_hepnos_config(
            "sm://sync/hepnos", num_providers=1, backend="lsm",
            storage_root=str(tmp_path / "store"), wal_sync=True)
        specs = [db for provider in config["providers"]
                 for db in provider["config"]["databases"]]
        assert specs and all(db["config"]["wal_sync"] for db in specs)
        backend = open_backend("lsm", **specs[0]["config"])
        assert backend.wal_sync
        backend.close()


def _framed(payload):
    """A log record, as both logs have always framed one."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _put_record(key, value):
    return _framed(b"P" + struct.pack("<I", len(key)) + key + value)


def _put_multi_record(pairs):
    return _framed(b"M" + struct.pack("<I", len(pairs)) + b"".join(
        struct.pack("<II", len(k), len(v)) + k + v for k, v in pairs))


def _sstable(entries, codec=None, flag=0):
    """An LSM table file: magic, one block of entries, JSON footer."""
    block = b"".join(struct.pack("<II", len(k), len(v)) + k + v
                     for k, v in entries)
    num_bits = max(64, len(entries) * 10)
    bits = bytearray((num_bits + 7) // 8)
    for key, _value in entries:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(4):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
    footer = json.dumps({
        "n": len(entries), "data_end": 8 + len(block), "codec": codec,
        "blocks": [[entries[0][0].hex(), 8, len(block), flag]],
        "bloom": (struct.pack("<QI", num_bits, 4) + bytes(bits)).hex(),
        "min": entries[0][0].hex(), "max": entries[-1][0].hex(),
    }).encode()
    return b"SSTB0002" + block + footer + struct.pack("<Q", len(footer))


class TestStoredFormats:
    """Stores written by the parent commit reopen unchanged.  The bytes
    are built here with ``struct``, not with the code under test."""

    def test_wrapper_log_and_checkpoint_replay(self, wal_path):
        entries = b"".join(struct.pack("<II", len(k), len(v)) + k + v
                           for k, v in [(b"c1", b"snap"), (b"c2", b"shot"),
                                        (b"c3", b"gone")])
        with open(checkpoint_path(wal_path), "wb") as f:
            f.write(b"CKPT0001" + entries
                    + struct.pack("<QI", 3, zlib.crc32(entries)))
        with open(wal_path, "wb") as f:
            f.write(_put_record(b"p", b"single"))
            f.write(_put_multi_record([(b"m1", b"one"), (b"m2", b""),
                                       (b"c2", b"over")]))
            f.write(_framed(b"D" + b"c3"))
            f.write(_framed(b"E" + struct.pack("<I", 2)
                            + struct.pack("<I", 2) + b"m1"
                            + struct.pack("<I", 5) + b"ghost"))
        backend = open_backend("map", wal_path=wal_path)
        assert dict(backend.scan()) == {b"c1": b"snap", b"c2": b"over",
                                        b"p": b"single", b"m2": b""}
        assert backend.stats.replayed_records == 4
        assert backend.stats.replayed_keys == 3 + 1 + 3 + 1 + 2
        backend.close()

    def test_lsm_segments_replay_through_the_shared_reader(self, tmp_path):
        path = tmp_path / "db"
        path.mkdir()
        (path / "wal-000000.log").write_bytes(
            _put_record(b"p", b"single")
            + _put_multi_record([(b"m1", b"one"), (b"m2", b"two")]))
        (path / "wal-000001.log").write_bytes(
            _framed(b"D" + struct.pack("<I", 2) + b"m1")
            + _put_record(b"last", b"whole")
            + _put_record(b"torn", b"casualty")[:-5])
        db = open_backend("lsm", path=str(path))
        assert dict(db.scan()) == {b"p": b"single", b"m2": b"two",
                                   b"last": b"whole"}
        assert db.stats.replayed_records == 4
        assert db.stats.replayed_keys == 5
        assert db.stats.torn_tail_bytes == len(
            _put_record(b"torn", b"casualty")) - 5
        db.close()

    def test_lsm_under_a_parent_written_outer_log(self, tmp_path):
        """The parent wrapped the LSM in a ``DurableBackend``.  Such a
        store reopens from the engine's own state; the outer log and
        checkpoint are neither read nor written again."""
        path, wal = str(tmp_path / "store" / "db"), str(tmp_path / "db.wal")
        parent = DurableBackend(LSMBackend(path, memtable_bytes=512), wal)
        acked = {b"key-%03d" % i: b"v%d" % i * 9 for i in range(60)}
        parent.put_multi(list(acked.items())[:30])
        parent.checkpoint()
        for key, value in list(acked.items())[30:]:
            parent.put(key, value)
        parent.erase(b"key-000")
        del acked[b"key-000"]
        parent.crash()
        # A record only the outer log holds: replaying it would show.
        with open(wal, "ab") as f:
            f.write(_put_record(b"outer-only", b"never applied"))
        stale = {name: open(name, "rb").read()
                 for name in (wal, checkpoint_path(wal))}

        backend = open_backend("lsm", path=path, wal_path=wal)
        assert isinstance(backend, LSMBackend)
        assert dict(backend.scan()) == acked
        backend.put(b"new", b"write")
        backend.checkpoint()
        backend.close()
        assert {name: open(name, "rb").read() for name in stale} == stale
        assert sorted(os.listdir(tmp_path)) == ["db.wal", "db.wal.ckpt",
                                                "store"]

    ENTRIES = [(b"k%03d" % i, b"v%d" % i * 5) for i in range(40)]

    def test_lsm_tables_are_raw(self, tmp_path):
        """A flushed table is byte for byte the raw format: footer codec
        null, every block flagged uncompressed."""
        db = LSMBackend(str(tmp_path / "db"))
        db.put_multi(self.ENTRIES)
        db.flush_memtable()
        db.close()
        written = (tmp_path / "db" / "sst-000000.tbl").read_bytes()
        assert written == _sstable(self.ENTRIES)

    @pytest.mark.parametrize("patch", [{"codec": "zlib"}, {"flag": 1}])
    def test_lsm_compressed_tables_refused(self, tmp_path, patch):
        path = tmp_path / "db"
        path.mkdir()
        (path / "sst-000000.tbl").write_bytes(_sstable(self.ENTRIES, **patch))
        (path / "MANIFEST.json").write_text(json.dumps(
            {"next_table_id": 1, "tables": ["sst-000000.tbl"]}))
        with pytest.raises(CorruptionError, match="compressed"):
            LSMBackend(str(path))


def _durable_world(tmp_path, replication=None, durable=True):
    fabric = Fabric(threaded=True)
    servers = []
    for i in range(2):
        kwargs = dict(num_providers=2, event_databases=2,
                      product_databases=2, run_databases=1,
                      subrun_databases=1)
        if durable:
            kwargs["durability_root"] = str(tmp_path / f"node{i}")
        if replication is not None:
            kwargs["replication"] = replication
        servers.append(BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", **kwargs)))
    fabric.runtime.start()
    return fabric, servers


class TestServerStateLoss:
    def test_lose_state_restart_replays_wal(self, tmp_path):
        fabric, servers = _durable_world(tmp_path)
        datastore = DataStore.connect(fabric, servers)
        subrun = datastore.create_dataset("d").create_run(1).create_subrun(2)
        for e in range(10):
            subrun.create_event(e)
        for server in servers:
            server.crash(lose_state=True)
        for server in servers:
            server.restart()
        assert [ev.number for ev in datastore["d"][1][2]] == list(range(10))
        stats = servers[0].durability_stats()
        assert stats["replayed_records"] > 0
        fabric.runtime.shutdown()

    def test_lose_state_without_wal_really_loses(self, tmp_path):
        fabric, servers = _durable_world(tmp_path, durable=False)
        datastore = DataStore.connect(fabric, servers)
        subrun = datastore.create_dataset("d").create_run(1).create_subrun(2)
        for e in range(10):
            subrun.create_event(e)
        before = sum(1 for _ in subrun)
        for server in servers:
            server.crash(lose_state=True)
        for server in servers:
            server.restart()
        after = sum(1 for _ in subrun)
        assert before == 10 and after < before
        fabric.runtime.shutdown()

    def test_crashed_backend_looks_like_dead_server(self, tmp_path):
        """An in-flight handler racing the crash must surface a
        retryable AddressError, never a clean DatabaseClosed."""
        backend = open_backend("map")
        backend.crash()
        with pytest.raises(AddressError):
            backend.get(b"x")


class TestReplicaPlacement:
    def _connection(self, replication=2):
        targets = {
            kind: [DbTarget(f"sm://node{i}/hepnos", i % 2,
                            f"{kind}-{i}") for i in range(4)]
            for kind in ("datasets", "runs", "subruns", "events", "products")
        }
        return ConnectionInfo(targets, replication=replication)

    def test_backup_prefers_a_different_address(self):
        smap = ShardMap(self._connection())
        for target in smap.connection["events"]:
            backup = smap.backup_for("events", target)
            assert backup is not None
            assert backup != target
            assert backup.address != target.address

    def test_no_backup_without_replication(self):
        smap = ShardMap(self._connection(replication=1))
        target = smap.connection["events"][0]
        assert smap.backup_for("events", target) is None

    def test_replica_links_cover_every_primary(self):
        smap = ShardMap(self._connection())
        links = replica_links(smap)
        for kind in ("datasets", "runs", "subruns", "events", "products"):
            for target in smap.connection[kind]:
                assert target in links
                assert kind_of(target) == kind

    def test_connection_json_round_trips_replication(self):
        connection = self._connection(replication=2)
        rebuilt = ConnectionInfo.from_json(connection.to_json())
        assert rebuilt.replication == 2
        # replication=1 is the default and stays off the wire
        plain = self._connection(replication=1)
        assert "replication" not in plain.to_json()
        assert ConnectionInfo.from_json(plain.to_json()).replication == 1

    def test_connection_json_rejects_bad_replication(self):
        with pytest.raises(ConfigError):
            ConnectionInfo.from_json('{"replication": 0}')


@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
def test_sync_drains_replicas_on_both_runtimes(threaded):
    """``yokan.sync`` waits on the replicate RPCs a put queued
    (``ReplicaLink._reap``) from inside its handler.  On the inline
    fabric that nested wait used to block on the progress lock its own
    thread held, forever; the call runs on a daemon thread so a hang
    fails here instead of hanging the suite."""
    fabric = Fabric(threaded=threaded)
    servers = [BedrockServer(fabric, default_hepnos_config(
        f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        replication=2)) for i in range(2)]
    fabric.runtime.start()
    try:
        enable_replication(servers, replication=2)
        primary = servers[0]
        pid, provider = next((pid, p) for pid, p in primary.providers.items()
                             if p.replica_links())
        db = next(iter(provider.replica_links()))
        client = YokanClient(Engine(fabric, "sm://client/0"))
        answers = []

        def put_then_sync():
            client.database_handle(primary.address, pid, db).put(b"k", b"v")
            answers.append(client.sync(primary.address, pid))

        caller = threading.Thread(target=put_then_sync, daemon=True)
        caller.start()
        caller.join(10.0)
        assert answers == [{"drained": 1, "checkpointed": 0}], \
            "put + sync did not return within 10 s"
        assert provider.replica_links()[db].handle.get(b"k") == b"v"
        assert primary.durability_stats()["replica_failures"] == 0
    finally:
        fabric.runtime.shutdown()


class TestReplicationAndFailover:
    def _replicated_world(self, tmp_path):
        fabric, servers = _durable_world(tmp_path, replication=2,
                                         durable=False)
        connection = enable_replication(servers, replication=2)
        datastore = DataStore.connect(fabric, connection,
                                      retry_policy=failover_client_policy())
        return fabric, servers, datastore

    def _populate(self, datastore, n=20):
        subrun = datastore.create_dataset("r").create_run(1).create_subrun(1)
        for e in range(n):
            subrun.create_event(e).store({"e": e}, label="x")
        return subrun

    def test_writes_are_forwarded_to_backups(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        drained = datastore.sync_service()
        assert drained > 0
        forwarded = sum(s.durability_stats()["replica_forwarded"]
                        for s in servers)
        assert forwarded > 0
        fabric.runtime.shutdown()

    def test_reads_fail_over_to_backup(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        datastore.sync_service()
        servers[1].crash(lose_state=True)
        got = sorted(datastore["r"][1][1][e].load(dict, label="x")["e"]
                     for e in range(20))
        assert got == list(range(20))
        assert datastore.metrics.counter(
            "hepnos.failover.activated").value >= 1
        assert datastore.failed_over
        fabric.runtime.shutdown()

    def test_rejoin_resyncs_and_clears_redirects(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        datastore.sync_service()
        servers[1].crash(lose_state=True)
        # Drive the failover, then write more: the promoted backup
        # takes those writes, and the rejoined primary must learn them.
        subrun = datastore["r"][1][1]
        subrun[0].load(dict, label="x")
        for e in range(20, 25):
            subrun.create_event(e).store({"e": e}, label="x")
        servers[1].restart()
        resynced = datastore.rejoin(str(servers[1].address))
        assert resynced > 0
        assert not datastore.failed_over
        got = sorted(datastore["r"][1][1][e].load(dict, label="x")["e"]
                     for e in range(25))
        assert got == list(range(25))
        fabric.runtime.shutdown()

    @pytest.mark.parametrize("how", ["single", "batch", "async_batch"])
    def test_writes_fail_over_like_reads(self, tmp_path, how):
        """A store issued against a dead primary lands on its backup --
        through ``event.store``, a ``WriteBatch`` and an
        ``AsynchronousWriteBatch`` alike -- and the rejoined primary
        learns the backup-absorbed pairs."""
        fabric, servers, datastore = self._replicated_world(tmp_path)
        subrun = datastore.create_dataset("w").create_run(1).create_subrun(1)
        datastore.sync_service()
        servers[1].crash(lose_state=True)
        batch = {"single": lambda: None,
                 "batch": lambda: WriteBatch(datastore),
                 "async_batch": lambda: AsynchronousWriteBatch(
                     datastore, flush_threshold=8)}[how]()
        for e in range(20):
            subrun.create_event(e, batch=batch).store(
                {"e": e}, label="x", batch=batch)
        if batch is not None:
            batch.close()
            assert batch.recovered_flushes >= 1
        assert datastore.failed_over

        def stored():
            return [ev.load(dict, label="x")["e"]
                    for ev in datastore["w"][1][1]]

        assert stored() == list(range(20))
        servers[1].restart()
        assert datastore.rejoin(str(servers[1].address)) > 0
        assert not datastore.failed_over
        assert stored() == list(range(20))
        # The recovered primary holds what its backup absorbed: every
        # pair sits on the database placement names, no redirect needed.
        for event in subrun:
            for kind, parent, key in (
                    ("events", subrun.key, event.key),
                    ("products", event.key, event.key)):
                target = datastore.target_for(kind, parent)
                held = datastore._direct_handle(target).list_keys(prefix=key)
                assert held and held[0].startswith(key)
        fabric.runtime.shutdown()

    def test_resync_missing_ships_only_missing_keys(self):
        fabric = Fabric(threaded=True)
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://solo/hepnos", num_providers=1, event_databases=2,
            product_databases=1, run_databases=1, subrun_databases=1))
        fabric.runtime.start()
        from repro.yokan import YokanClient
        from repro.mercury import Engine

        client = YokanClient(Engine(fabric, "sm://probe/0"))
        src = client.database_handle(server.address, 0, "events-0")
        dst = client.database_handle(server.address, 0, "events-1")
        src.put_multi([(b"k%d" % i, b"v%d" % i) for i in range(10)])
        dst.put(b"k3", b"v3")
        copied = resync_missing(src, dst, page=4)
        assert copied == 9
        assert sorted(dst.iter_keys()) == sorted(b"k%d" % i
                                                 for i in range(10))
        # Second pass: nothing left to ship.
        assert resync_missing(src, dst) == 0
        fabric.runtime.shutdown()


class TestLSMCrashRecovery:
    """Crashes landing inside the LSM engine's background worker.

    The engine's ``_test_hooks`` fire at block boundaries of the file
    the worker is writing, so the crash deterministically lands on a
    half-written SSTable.  Recovery must be byte-identical to the
    acknowledged state: WAL segments are deleted only after the flushed
    table is in the fsynced manifest, and tables the manifest never
    published are discarded as orphans.
    """

    @staticmethod
    def _corpus(n, start=0):
        return {b"key-%05d" % i: (b"v%d-" % i) * 4 for i in range(start,
                                                                  start + n)}

    def test_crash_during_flush_recovers_from_wal(self, tmp_path):
        import threading

        from repro.yokan import LSMBackend

        path = str(tmp_path / "db")
        db = LSMBackend(path, memtable_bytes=1 << 20)
        acked = self._corpus(300)
        for key, value in acked.items():
            db.put(key, value)
        crashed = threading.Event()

        def die_mid_table(block_index):
            if not crashed.is_set():
                crashed.set()
                db._crashed = True  # the worker aborts at the next poll

        db._test_hooks["flush_block"] = die_mid_table
        with db._lock:
            db._seal_memtable_locked()  # hand the memtable to the worker
        assert crashed.wait(10.0)
        db._worker.join(10.0)
        assert not db._worker.is_alive()

        recovered = LSMBackend(path)
        # The flush never reached the manifest: state comes purely from
        # replaying the sealed memtable's WAL segments.
        assert len(recovered._sstables) == 0
        assert dict(recovered.scan()) == acked
        assert not any(f.endswith(".tmp") for f in os.listdir(path))
        recovered.close()

    def test_crash_during_compaction_keeps_input_tables(self, tmp_path):
        import threading

        from repro.yokan import LSMBackend

        path = str(tmp_path / "db")
        db = LSMBackend(path, memtable_bytes=1 << 20, compaction_trigger=2)
        crashed = threading.Event()

        def die_mid_merge(block_index):
            if not crashed.is_set():
                crashed.set()
                db._crashed = True

        acked = self._corpus(120)
        doomed = sorted(acked)[:10]
        for key, value in acked.items():
            db.put(key, value)
        db.flush_memtable()  # table 1: below the trigger, no compaction
        db._test_hooks["compact_block"] = die_mid_merge
        more = self._corpus(120, start=200)
        acked.update(more)
        for key, value in more.items():
            db.put(key, value)
        for key in doomed:  # tombstones must survive the crash too
            db.erase(key)
            del acked[key]
        db.flush_memtable()  # table 2 arms the trigger; the merge dies
        assert crashed.wait(10.0)
        db._worker.join(10.0)
        assert not db._worker.is_alive()

        recovered = LSMBackend(path)
        # The merge output never made the manifest: both input tables
        # survive and the orphan merge product is discarded.
        assert len(recovered._sstables) == 2
        assert dict(recovered.scan()) == acked
        for key in doomed:
            assert not recovered.exists(key)
        recovered.close()

    def test_server_state_loss_with_lsm_backend(self, tmp_path):
        """Full stack: an LSM-backed server killed with ``lose_state``
        recovers every acknowledged write through engine recovery."""
        fabric = Fabric(threaded=True)
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://lsm-loss/hepnos", num_providers=1, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
            backend="lsm", storage_root=str(tmp_path / "lsm"),
            backend_config={"memtable_bytes": 512,
                            "compaction_trigger": 2}))
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, [server])
        dataset = datastore.create_dataset("d")
        run = dataset.create_run(1)
        subrun = run.create_subrun(2)
        for i in range(40):
            subrun.create_event(i).store({"i": i}, label="x")
        server.crash(lose_state=True)
        server.restart()
        got = sorted(datastore["d"][1][2][e].load(dict, label="x")["i"]
                     for e in range(40))
        assert got == list(range(40))
        stats = server.storage_stats()
        assert stats  # LSM stats are exposed through the server
        assert all(db["flushes"] >= 0 for db in stats.values())
        fabric.runtime.shutdown()

    def test_lsm_server_logs_once_and_recovers_by_itself(self, tmp_path):
        """``durability_root`` is stamped on an LSM deployment and names
        nothing: the engine's segments are the only log, and a restart
        after state loss is the engine's own replay."""
        durability_root = tmp_path / "wal"
        fabric = Fabric(threaded=True)
        config = default_hepnos_config(
            "sm://lsm-once/hepnos", num_providers=1, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
            backend="lsm", storage_root=str(tmp_path / "lsm"),
            durability_root=str(durability_root))
        assert all(db["config"]["wal_path"].startswith(str(durability_root))
                   for provider in config["providers"]
                   for db in provider["config"]["databases"])
        server = BedrockServer(fabric, config)
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, [server])
        subrun = datastore.create_dataset("d").create_run(1).create_subrun(2)
        for i in range(40):
            subrun.create_event(i).store({"i": i}, label="x")
        logged = server.durability_stats()["wal_records"]
        assert logged > 0
        server.crash(lose_state=True)
        server.restart()
        fresh = DataStore.connect(fabric, [server])
        got = sorted(fresh["d"][1][2][e].load(dict, label="x")["i"]
                     for e in range(40))
        assert got == list(range(40))
        stats = server.durability_stats()
        # Nothing was flushed (default 4 MiB memtables): every record
        # the engine logged is a record its restart replayed.
        assert stats["replayed_records"] == logged
        assert stats["replay_seconds"] > 0
        assert "lsm" not in stats
        assert server.checkpoint() == len(server.databases())
        assert server.durability_stats()["checkpoints"] > 0
        assert not durability_root.exists()
        fabric.runtime.shutdown()
