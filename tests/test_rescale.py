"""Tests for storage rescaling (Pufferscale stand-in)."""

import pytest

from conftest import shards
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import ConfigError, ShardMapStale
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import DataStore, WriteBatch, vector_of
from repro.hepnos.placement import ParentHashPlacement
from repro.rescale import (
    LiveRescaler,
    add_server,
    migrate_live,
)
from repro.rescale.migrate import _parent_groups
from repro.serial import serializable


@serializable("rescale.Blob")
class Blob:
    def __init__(self, value=0):
        self.value = value

    def serialize(self, ar):
        self.value = ar.io(self.value)

    def __eq__(self, other):
        return self.value == other.value


def populate(datastore, tag="r", runs=2, subruns=2, events=20):
    ds = datastore.create_dataset(f"rescale/{tag}")
    expected = {}
    with WriteBatch(datastore) as batch:
        for r in range(runs):
            run = ds.create_run(r, batch=batch)
            for s in range(subruns):
                subrun = run.create_subrun(s, batch=batch)
                for e in range(events):
                    event = subrun.create_event(e, batch=batch)
                    value = [Blob(r * 10000 + s * 100 + e)]
                    event.store(value, label="blob", batch=batch)
                    expected[(r, s, e)] = value
    return ds, expected


def verify(datastore, tag, expected):
    ds = datastore[f"rescale/{tag}"]
    seen = {}
    for event in ds.events():
        seen[event.triple()] = event.load(vector_of(Blob), label="blob")
    assert seen == {(r, s, e): v for (r, s, e), v in expected.items()}


def new_server(fabric, index, **kwargs):
    defaults = dict(num_providers=4, event_databases=4, product_databases=4,
                    run_databases=2, subrun_databases=2, dataset_databases=1)
    defaults.update(kwargs)
    return BedrockServer(fabric, default_hepnos_config(
        f"sm://extra{index}/hepnos", **defaults))


class TestConnectionSurgery:
    def test_add_server_extends_targets(self, fabric, service, datastore):
        before = datastore.connection.counts()
        joined = add_server(datastore.connection, new_server(fabric, 0))
        after = joined.counts()
        assert after["events"] == before["events"] + 4
        assert after["products"] == before["products"] + 4

    def test_add_server_duplicate_rejected(self, fabric, service, datastore):
        server = new_server(fabric, 1)
        joined = add_server(datastore.connection, server)
        with pytest.raises(ConfigError, match="already"):
            add_server(joined, server)


def on_model_placement(datastore, servers, connection):
    """Every stored pair sits on the one database the placement function
    of ``connection`` names for its parent group, and nowhere else.
    Returns the number of pairs checked."""
    model = ParentHashPlacement(connection)
    held = shards(servers)
    checked = 0
    for kind, parent_key, child_keys in _parent_groups(datastore):
        target = model.database_for(kind, parent_key)
        for key in child_keys:
            assert {shard for shard, keys in held.items() if key in keys} == {
                (target.address, target.name)}
            checked += 1
    assert checked == sum(len(keys) for keys in held.values())
    return checked


class TestPlan:
    def test_plan_moves_minority_of_keys(self, fabric, service, datastore):
        populate(datastore, "plan")
        joined = add_server(datastore.connection, new_server(fabric, 2))
        rescaler = LiveRescaler(datastore, joined)
        rescaler.begin()
        to_move = rescaler.remaining_keys
        total = to_move + rescaler.stats.keys_stayed
        assert total > 0
        # Consistent hashing: adding ~1/3 of capacity moves well under
        # half of the keys.
        assert 0 < to_move < total * 0.6

    def test_plan_noop_for_same_connection(self, fabric, service, datastore):
        populate(datastore, "noop")
        rescaler = LiveRescaler(datastore, datastore.connection)
        rescaler.begin()
        assert rescaler.remaining_keys == 0
        assert rescaler.stats.keys_stayed > 0
        assert rescaler.commit().keys_moved == 0


class TestExecute:
    """``migrate_live`` on an idle store, checked against the placement
    function (the model) rather than against another implementation."""

    def test_grow_preserves_all_data(self, fabric, service, datastore):
        _, expected = populate(datastore, "grow")
        joined = add_server(datastore.connection, new_server(fabric, 3))
        rescaler = LiveRescaler(datastore, joined)
        rescaler.begin()
        planned = rescaler.remaining_keys
        while rescaler.step():
            pass
        stats = rescaler.commit()
        assert stats.keys_moved == planned
        assert stats.bytes_moved > 0
        verify(datastore, "grow", expected)

    def test_grow_then_shrink_roundtrip(self, fabric, service, datastore):
        _, expected = populate(datastore, "cycle")
        server = new_server(fabric, 4)
        servers = service + [server]
        shrunk = datastore.connection
        joined = add_server(shrunk, server)
        grown = migrate_live(datastore, joined)
        verify(datastore, "cycle", expected)
        pairs = on_model_placement(datastore, servers, joined)
        assert grown.keys_moved + grown.keys_stayed == pairs
        # Now drain the server back out.
        drained = migrate_live(datastore, shrunk)
        verify(datastore, "cycle", expected)
        assert on_model_placement(datastore, servers, shrunk) == pairs
        # What joined is what left; nothing stays on the drained server.
        assert (drained.keys_moved, drained.moves_by_kind) == (
            grown.keys_moved, grown.moves_by_kind)
        for provider in server.providers.values():
            for backend in provider.databases.values():
                assert len(backend) == 0

    def test_new_clients_see_rescaled_layout(self, fabric, service, datastore):
        _, expected = populate(datastore, "fresh")
        joined = add_server(datastore.connection, new_server(fabric, 5))
        migrate_live(datastore, joined)
        fresh = DataStore.connect(fabric, joined)
        seen = sum(1 for _ in fresh["rescale/fresh"].events())
        assert seen == len(expected)

    def test_iteration_order_preserved(self, fabric, service, datastore):
        ds, _ = populate(datastore, "order", runs=1, subruns=1, events=30)
        joined = add_server(datastore.connection, new_server(fabric, 6))
        migrate_live(datastore, joined)
        numbers = [e.number for e in datastore["rescale/order"][0][0]]
        assert numbers == list(range(30))

    def test_moved_fraction_reported(self, fabric, service, datastore):
        populate(datastore, "frac")
        joined = add_server(datastore.connection, new_server(fabric, 7))
        stats = migrate_live(datastore, joined)
        assert 0.0 < stats.moved_fraction < 1.0
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        assert set(stats.moves_by_kind) <= {
            "datasets", "runs", "subruns", "events", "products"
        }
        assert stats.describe().startswith("moved ")


class TestLiveRescale:
    def test_stale_shard_map_is_retryable(self, datastore):
        assert issubclass(ShardMapStale, RETRYABLE_ERRORS)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ShardMapStale("epoch moved")
            return "ok"

        assert datastore._with_shard_retry(flaky) == "ok"
        assert calls["n"] == 3

    def test_dual_read_covers_unmoved_keys(self, fabric, service, datastore):
        """After begin() -- before a single key has moved -- every read
        and listing must still succeed via the old-shard fallback."""
        _, expected = populate(datastore, "dual")
        joined = add_server(datastore.connection, new_server(fabric, 8))
        rescaler = LiveRescaler(datastore, joined, batch_size=16)
        epoch0 = datastore.placement.epoch
        rescaler.begin()
        assert datastore.placement.epoch == epoch0 + 1
        assert datastore.placement.migrating
        verify(datastore, "dual", expected)  # nothing moved yet
        while rescaler.step():
            pass
        stats = rescaler.commit()
        assert datastore.placement.epoch == epoch0 + 2
        assert not datastore.placement.migrating
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        verify(datastore, "dual", expected)

    def test_grow_under_live_traffic(self, fabric, service, datastore):
        """Interleave ingest and reads with migration steps; both the
        pre-existing and the concurrently written data must survive."""
        ds, expected = populate(datastore, "live")
        joined = add_server(datastore.connection, new_server(fabric, 9))
        run = ds.create_run(77)
        written = {}
        state = {"i": 0}

        def traffic():
            i = state["i"]
            state["i"] += 1
            event = run.create_subrun(i).create_event(0)
            value = [Blob(70000 + i)]
            event.store(value, label="blob")
            written[i] = value
            # Read back something written before the migration began.
            old = ds[0][0][i % 20].load(vector_of(Blob), label="blob")
            assert old == expected[(0, 0, i % 20)]

        stats = LiveRescaler(datastore, joined,
                             batch_size=8).run(step_callback=traffic)
        assert state["i"] > 0
        assert stats.keys_moved > 0
        combined = dict(expected)
        combined.update({(77, i, 0): value for i, value in written.items()})
        verify(datastore, "live", combined)

    def test_write_forwarding_lands_on_new_shard(self, fabric, service,
                                                 datastore):
        """A write issued mid-migration resolves against the new layout:
        after commit (fallback dropped) it must still be readable, and
        its bytes must live on the new placement's target database."""
        ds, _ = populate(datastore, "fwd", runs=1, subruns=1, events=4)
        joined = add_server(datastore.connection, new_server(fabric, 10))
        rescaler = LiveRescaler(datastore, joined, batch_size=16)
        rescaler.begin()
        while rescaler.step():
            pass
        # All planned chunks moved; now write while still in the
        # migration epoch.
        event = ds.create_run(5).create_subrun(6).create_event(7)
        value = [Blob(567)]
        event.store(value, label="blob")
        rescaler.commit()
        assert datastore["rescale/fwd"][5][6][7].load(
            vector_of(Blob), label="blob") == value
        # The product key must physically live on the database the new
        # placement selects (no dangling copy needing the fallback).
        ck = event.key
        target = datastore.placement.product_database_for(ck)
        handle = datastore.handle_for_target(target)
        assert any(k.startswith(ck) for k in handle.list_keys(prefix=ck))

    def test_provider_crash_mid_migration(self, fabric, service, datastore):
        """Crash/restart the joining provider between steps: copy-then-
        erase steps plus the retry policy make the migration survive."""
        _, expected = populate(datastore, "crash")
        server = new_server(fabric, 11)
        joined = add_server(datastore.connection, server)
        rescaler = LiveRescaler(datastore, joined, batch_size=8)
        rescaler.begin()
        assert rescaler.step()  # at least one chunk lands pre-crash
        server.crash()
        server.restart()
        while rescaler.step():
            pass
        stats = rescaler.commit()
        assert stats.keys_moved > 0
        verify(datastore, "crash", expected)

    def test_grow_then_shrink_live_roundtrip(self, fabric, service,
                                             datastore):
        _, expected = populate(datastore, "liveshrink")
        server = new_server(fabric, 12)
        shrunk = datastore.connection
        joined = add_server(shrunk, server)
        migrate_live(datastore, joined, batch_size=32)
        verify(datastore, "liveshrink", expected)
        stats = migrate_live(datastore, shrunk, batch_size=32)
        verify(datastore, "liveshrink", expected)
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        for provider in server.providers.values():
            for backend in provider.databases.values():
                assert len(backend) == 0

    def test_commit_refuses_with_pending_chunks(self, fabric, service,
                                                datastore):
        populate(datastore, "refuse")
        joined = add_server(datastore.connection, new_server(fabric, 13))
        rescaler = LiveRescaler(datastore, joined, batch_size=4)
        rescaler.begin()
        if rescaler.remaining_keys:
            with pytest.raises(ConfigError, match="still queued"):
                rescaler.commit()
        while rescaler.step():
            pass
        rescaler.commit()
