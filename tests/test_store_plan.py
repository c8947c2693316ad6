"""The product write path: every writer x shard-map / fault state against
a plain dict model -- the write-side twin of ``test_load_plan.py``.

``PendingStore`` is the only batched write path and ``forward_moved``
the only "did my group move while I was on the wire" rule, so one
differential covers the point store, ``WriteBatch`` and
``AsynchronousWriteBatch`` (with and without an ``AsyncEngine``): every
acknowledged pair is readable through the normal read path, sits on
exactly the shard the current map names, and the batch counters keep
their meaning.
"""

import pytest

from conftest import FlakyModel, deploy, shards
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import NetworkFailure
from repro.faults.chaos import failover_client_policy
from repro.faults.retry import RetryPolicy
from repro.hepnos import (
    AsyncEngine,
    AsynchronousWriteBatch,
    DataStore,
    WriteBatch,
)
from repro.hepnos.failover import enable_replication
from repro.hepnos.write_batch import PendingStore
from repro.mercury import Fabric, FaultModel
from repro.rescale import LiveRescaler, add_server
from repro.serial import dumps
from repro.yokan.client import DatabaseHandle

WRITERS = ("store", "batch", "async", "engine")
STATES = ("settled", "mid_migration", "begin_between", "commit_after",
          "dead_primary", "flaky", "total_loss")
N_EVENTS = 24
#: pairs per asynchronous flush: three flushes per write phase
THRESHOLD = 16


@pytest.fixture()
def world():
    """``build(replicated, threaded)`` -> (fabric, servers, datastore);
    torn down."""
    fabrics = []

    def build(replicated=False, threaded=True):
        fabric = Fabric(threaded=threaded)
        if not replicated:
            servers = deploy(fabric)
            connection = servers
            policy = None
        else:
            servers = [
                BedrockServer(fabric, default_hepnos_config(
                    f"sm://node{i}/hepnos", num_providers=2,
                    event_databases=2, product_databases=2, run_databases=1,
                    subrun_databases=1, replication=2))
                for i in range(2)
            ]
            connection = enable_replication(servers, replication=2)
            policy = failover_client_policy()
        if threaded:
            fabric.runtime.start()
            fabrics.append(fabric)
        return fabric, servers, DataStore.connect(fabric, connection,
                                                  retry_policy=policy)

    yield build
    for fabric in fabrics:
        fabric.runtime.shutdown()


def joining_server(fabric):
    return BedrockServer(fabric, default_hepnos_config(
        "sm://joiner/hepnos", num_providers=4, event_databases=4,
        product_databases=4, run_databases=2, subrun_databases=2,
        dataset_databases=1))


def make_batch(datastore, writer):
    if writer == "store":
        return None
    if writer == "batch":
        return WriteBatch(datastore)
    if writer == "engine":
        AsyncEngine(datastore, max_inflight=2)
    return AsynchronousWriteBatch(datastore, flush_threshold=THRESHOLD)


def write(datastore, subrun, numbers, batch, model, order=None):
    """Create events ``numbers`` of ``subrun`` with two products each --
    so a parent group holds several pairs, empty container values next
    to values of growing size -- and record every pair in ``model`` as
    ``(kind, parent, key) -> value`` (and, in ``order``, the sequence
    the pairs were appended in)."""
    for e in numbers:
        event = subrun.create_event(e, batch=batch)
        pairs = [("events", subrun.key, event.key, b"")]
        for label, value in (("x", {"e": e}), ("blob", bytes([e]) * 37 * e)):
            pkey = datastore.store_product(event.key, value, label=label,
                                           batch=batch)
            pairs.append(("products", event.key, pkey, dumps(value)))
        for pair in pairs:
            model[pair[:3]] = pair[3]
            if order is not None:
                order.append(pair[:2])


def check_placed(datastore, servers, model):
    """Every pair sits, byte-equal, on exactly the database the current
    map names -- no stale copy anywhere else."""
    held = shards(servers)
    for (kind, parent, key), value in model.items():
        target = datastore.target_for(kind, parent)
        where = {shard for shard, pairs in held.items() if key in pairs}
        assert where == {(target.address, target.name)}
        assert held[target.address, target.name][key] == value


def check_readable(datastore, path, numbers):
    subrun = datastore[path][1][1]
    assert [ev.number for ev in subrun] == list(numbers)
    datastore._product_cache.clear()   # the point store writes through
    assert [ev.load(dict, label="x")["e"] for ev in subrun] == list(numbers)


def once_between_issue_and_wait(monkeypatch, writer, hook):
    """Run ``hook`` once, while the first write is on the wire: between
    a flush's issue and its wait, or -- for the point store -- between
    the inline put and its moved-group check."""
    fired = []

    def fire():
        if not fired:
            fired.append(True)
            hook()

    if writer == "store":
        real_put = DatabaseHandle.put

        def put(self, key, value):
            real_put(self, key, value)
            fire()

        monkeypatch.setattr(DatabaseHandle, "put", put)
    else:
        real_wait = PendingStore.wait

        def wait(self):
            fire()
            return real_wait(self)

        monkeypatch.setattr(PendingStore, "wait", wait)
    return fired


def expected_transfers(datastore, order, threshold):
    """Per-database ``put_multi`` count of flushing ``order`` every
    ``threshold`` pairs (0: once) under the current map."""
    step = threshold or len(order)
    return sum(len({datastore.target_for(*group)
                    for group in order[i:i + step]})
               for i in range(0, len(order), step))


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("writer", WRITERS)
def test_store_matches_model(world, monkeypatch, writer, state):
    # The fault states run on the inline fabric (the caller drives
    # progress), the rest on the threaded one.
    fabric, servers, datastore = world(
        replicated=state == "dead_primary",
        threaded=state not in ("flaky", "total_loss"))
    model, order = {}, []
    subrun = (datastore.create_dataset("sp").create_run(1)
              .create_subrun(1))
    # Something for a migration to move, written before it starts.
    with WriteBatch(datastore) as seed:
        write(datastore, subrun, range(8), seed, model)
    numbers = range(8, N_EVENTS)
    counter = datastore.metrics.counter
    rescaler, fired, flaky = None, [True], None

    if state in ("mid_migration", "begin_between", "commit_after"):
        joiner = joining_server(fabric)
        servers = servers + [joiner]
        rescaler = LiveRescaler(
            datastore, add_server(datastore.connection, joiner), batch_size=4)
    if state == "mid_migration":
        rescaler.begin()
        for _ in range(3):
            assert rescaler.step()
        assert datastore.placement.migrating and rescaler.remaining_keys
    elif state == "begin_between":
        fired = once_between_issue_and_wait(monkeypatch, writer,
                                            rescaler.begin)
    elif state == "commit_after":
        rescaler.begin()
        while rescaler.step():
            pass
        fired = once_between_issue_and_wait(monkeypatch, writer,
                                            rescaler.commit)
    elif state == "dead_primary":
        datastore.sync_service()
        servers[1].crash(lose_state=True)
    elif state == "flaky":
        datastore.retry_policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        flaky = fabric.fault_model = FlakyModel(2)
    elif state == "total_loss":
        datastore.retry_policy = RetryPolicy.none()
        flaky = fabric.fault_model = FlakyModel(1_000_000)

    batch = make_batch(datastore, writer)
    threshold = 0 if writer == "batch" else THRESHOLD
    fabric.stats.reset()

    if state == "total_loss":
        lost = {}
        with pytest.raises(NetworkFailure):
            write(datastore, subrun, numbers, batch, lost)
            batch.close()
        fabric.fault_model = FaultModel()
        if batch is not None:
            # Every in-flight flush was settled before the first failure
            # surfaced: each transfer was tried exactly once, nothing is
            # left to wait for, and the failure is not raised twice.
            assert flaky.dropped == batch.flushes > 0
            if writer != "batch":
                assert batch.flushes == expected_transfers(
                    datastore, [pair[:2] for pair in lost], THRESHOLD)
                batch.wait()
            if datastore.async_engine is not None:
                assert datastore.async_engine.outstanding == 0
        stored = set().union(*shards(servers).values())
        assert not stored & {key for _, _, key in lost}  # never half-stored
        check_readable(datastore, "sp", range(8))
        return

    write(datastore, subrun, numbers, batch, model, order)
    if batch is not None:
        batch.close()
    sent = fabric.stats.rpc_count
    fabric.fault_model = FaultModel()
    assert fired
    if rescaler is not None and datastore.placement.migrating:
        while rescaler.step():
            pass
        rescaler.commit()

    check_readable(datastore, "sp", range(N_EVENTS))
    if state != "dead_primary":    # (there the backups hold copies too)
        check_placed(datastore, servers, model)
    if state == "flaky":
        assert flaky.dropped == 2
    if state == "dead_primary":
        assert datastore.failed_over
        assert counter("hepnos.failover.activated").value >= 1
    if batch is None:
        return
    assert batch.items_written == len(order) and batch.pending == 0
    assert (batch.recovered_flushes > 0) == (state in ("flaky",
                                                       "dead_primary"))
    assert (batch.forwarded_writes > 0) == (state == "begin_between")
    if state == "settled":
        # One put_multi per involved database per flush, nothing else.
        assert sent == batch.flushes == expected_transfers(
            datastore, order, threshold)
    if writer == "engine":
        assert datastore.async_engine.stats.submitted >= batch.flushes
        assert datastore.async_engine.outstanding == 0


def test_flush_under_epoch_swap_is_drained_before_the_next_issue(
        world, monkeypatch):
    """An in-flight asynchronous flush whose map was swapped is retired
    (and its moved groups forwarded) by the next ``flush`` itself, before
    the migration can commit and strand them."""
    fabric, servers, datastore = world()
    subrun = (datastore.create_dataset("sp").create_run(1)
              .create_subrun(1))
    joiner = joining_server(fabric)
    rescaler = LiveRescaler(
        datastore, add_server(datastore.connection, joiner), batch_size=64)
    # Hold the first flush in flight: nothing reports ready to the sweep.
    monkeypatch.setattr(PendingStore, "ready", property(lambda self: False))
    model = {}
    batch = AsynchronousWriteBatch(datastore, flush_threshold=1_000)
    write(datastore, subrun, range(12), batch, model)
    batch.flush()
    rescaler.begin()
    write(datastore, subrun, range(12, 16), batch, model)
    batch.flush()              # drains the stale flush synchronously
    assert batch.forwarded_writes > 0
    while rescaler.step():
        pass
    rescaler.commit()          # before the batch's own wait()
    check_placed(datastore, servers + [joiner], model)
    batch.close()
    check_readable(datastore, "sp", range(16))
    check_placed(datastore, servers + [joiner], model)


def test_wait_again_resends_only_what_was_not_acknowledged(world):
    """A flush whose wait raised keeps its unacknowledged groups: waiting
    again re-sends those, and only those."""
    fabric, servers, datastore = world()
    datastore.retry_policy = RetryPolicy.none()
    subrun = (datastore.create_dataset("sp").create_run(1)
              .create_subrun(1))
    model = {}
    batch = WriteBatch(datastore)
    write(datastore, subrun, range(12), batch, model)
    groups, batch._placed = batch._placed, {}
    fabric.fault_model = FlakyModel(1)      # the first transfer is lost
    issued = PendingStore(batch, groups)
    assert len(issued.transfers) > 1
    with pytest.raises(NetworkFailure):
        issued.wait()
    fabric.fault_model = FaultModel()
    acknowledged = len(issued.landed)
    assert 0 < acknowledged < len(groups)
    fabric.stats.reset()
    issued.wait()
    assert fabric.stats.rpc_count == 1 and batch.recovered_flushes == 1
    assert len(issued.landed) == len(groups)
    check_placed(datastore, servers, model)
