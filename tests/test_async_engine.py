"""Tests for the non-blocking pipeline: OperationFuture + AsyncEngine.

Covers the futures layer over the Yokan nb verbs (completion ordering,
cancel-before-dispatch, test/then semantics, retry under faults), the
engine's bounded window, drain-on-shutdown, and async-vs-sync
equivalence under a chaos FaultSchedule.
"""

import gc
import weakref

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import OperationCancelled, YokanError
from repro.faults import FaultModel, FaultSchedule, RetryPolicy
from repro.hepnos import (
    AsyncEngine,
    DataStore,
    LoadPlan,
    ParallelEventProcessor,
    PEPOptions,
    Prefetcher,
    ProductCacheOptions,
    vector_of,
)
from repro.mercury import Engine, Fabric
from repro.serial import serializable
from repro.yokan import MemoryBackend, YokanClient, YokanProvider
from repro.yokan.nonblocking import OperationFuture


@serializable("async.Hit")
class Hit:
    def __init__(self, e=0.0):
        self.e = e

    def serialize(self, ar):
        self.e = ar.io(self.e)

    def __eq__(self, other):
        return isinstance(other, Hit) and other.e == self.e

    def __hash__(self):
        return hash(self.e)


@pytest.fixture()
def world():
    """Inline (deterministic) fabric with one Yokan provider."""
    fabric = Fabric()
    server_engine = Engine(fabric, "sm://server/0")
    provider = YokanProvider(
        server_engine, provider_id=1,
        databases={"events": MemoryBackend()},
    )
    client_engine = Engine(fabric, "sm://client/0")
    client = YokanClient(client_engine)
    db = client.database_handle("sm://server/0", 1, "events")
    return fabric, provider, client, db


class TestOperationFuture:
    def test_put_get_roundtrip(self, world):
        _, _, _, db = world
        put = db.put_multi_nb([(b"k1", b"v1"), (b"k2", b"v2")])
        assert put.wait() == 2
        get = db.get_multi_nb([b"k1"])
        assert get.wait() == [b"v1"]

    def test_get_multi_nb_alignment(self, world):
        _, _, _, db = world
        db.put_multi([(f"k{i}".encode(), f"v{i}".encode()) for i in range(8)])
        future = db.get_multi_nb([b"k3", b"missing", b"k5"])
        assert future.wait() == [b"v3", None, b"v5"]

    def test_unknown_database_raises_on_wait(self, world):
        _, _, client, _ = world
        future = client.database_handle(
            "sm://server/0", 1, "nope").get_multi_nb([b"k"])
        with pytest.raises(YokanError, match="no database"):
            future.wait()
        assert future.done
        assert isinstance(future.exception, YokanError)

    def test_test_polls_to_completion(self, world):
        _, _, _, db = world
        db.put(b"k", b"v")
        future = db.get_multi_nb([b"k"])
        for _ in range(10_000):
            if future.test():
                break
        else:
            pytest.fail("future never settled under test() polling")
        assert future.result == [b"v"]

    def test_then_fires_on_settle_and_immediately_when_done(self, world):
        _, _, _, db = world
        seen = []
        future = db.put_multi_nb([(b"k", b"v")])
        future.then(seen.append)
        future.wait()
        assert seen == [future]
        future.then(seen.append)  # already settled: fires inline
        assert seen == [future, future]

    def test_cancel_before_dispatch(self, world):
        _, _, _, db = world
        future = db.put_multi_nb([(b"never", b"sent")], dispatch=False)
        assert future.cancel()
        assert future.state == OperationFuture.CANCELLED
        with pytest.raises(OperationCancelled):
            future.wait()
        assert not db.exists(b"never")

    def test_cancel_after_dispatch_is_refused(self, world):
        _, _, _, db = world
        future = db.put_multi_nb([(b"k", b"v")])  # dispatched on creation
        assert not future.cancel()
        assert future.wait() == 1

    def test_empty_batch_is_presettled(self, world):
        _, _, _, db = world
        future = db.put_multi_nb([])
        assert future.done
        assert future.wait() == 0
        assert db.get_multi_nb([]).wait() == []

    def test_retry_recovers_after_outage(self, world):
        fabric, _, client, db = world
        db.put(b"k", b"v")
        client.retry_policy = RetryPolicy(
            max_attempts=4, base_delay=0.0, jitter=0.0, rpc_timeout=0.05,
        )

        class DropAll(FaultModel):
            def should_drop(self, src, dst, nbytes):
                return True

        fabric.fault_model = DropAll()
        future = db.get_multi_nb([b"k"])
        fabric.fault_model = FaultModel()  # outage ends before the wait
        assert future.wait() == [b"v"]


class TestAsyncEngineWindow:
    def test_window_defers_beyond_cap(self, world):
        fabric, _, _, db = world
        engine = AsyncEngine(max_inflight=2)
        futures = [
            db.put_multi_nb([(f"k{i}".encode(), b"v")], dispatch=False)
            for i in range(6)
        ]
        # With no fabric attached the engine cannot make progress, so
        # the first two dispatches hold their slots and the rest queue.
        for future in futures:
            engine.submit(future)
        assert engine.stats.deferred == 4
        assert engine.stats.peak_inflight == 2
        engine.fabric = fabric
        assert engine.drain() == []
        assert engine.outstanding == 0
        stats = engine.stats
        assert (stats.submitted, stats.completed, stats.failed) == (6, 6, 0)
        assert db.exists(b"k5")

    def test_cancel_queued_future(self, world):
        fabric, _, _, db = world
        engine = AsyncEngine(max_inflight=1)
        first = engine.submit(db.put_multi_nb([(b"a", b"1")], dispatch=False))
        queued = engine.submit(db.put_multi_nb([(b"b", b"2")], dispatch=False))
        assert queued.state == OperationFuture.PENDING
        assert queued.cancel()
        engine.fabric = fabric
        assert engine.drain() == []
        assert first.result == 1
        assert engine.stats.cancelled == 1
        assert db.exists(b"a") and not db.exists(b"b")

    def test_wait_jumps_the_queue(self, world):
        fabric, _, _, db = world
        engine = AsyncEngine(max_inflight=1)
        engine.submit(db.put_multi_nb([(b"a", b"1")], dispatch=False))
        queued = engine.submit(db.put_multi_nb([(b"b", b"2")], dispatch=False))
        engine.fabric = fabric
        assert queued.wait() == 1  # dispatches itself rather than deadlock
        engine.drain()
        assert db.exists(b"a") and db.exists(b"b")


def _hepnos_world(threaded=False, num_nodes=1, fault_model=None):
    fabric = Fabric(threaded=threaded, fault_model=fault_model)
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        for i in range(num_nodes)
    ]
    if threaded:
        fabric.runtime.start()
    return fabric, servers


def _populate(datastore, path, subruns=2, events=20):
    ds = datastore.create_dataset(path)
    run = ds.create_run(1)
    for s in range(subruns):
        subrun = run.create_subrun(s)
        for e in range(events):
            event = subrun.create_event(e)
            event.store([Hit(float(s * events + e))], label="hits")
    return ds


class TestDataStoreIntegration:
    def test_shutdown_drains_outstanding(self):
        fabric, servers = _hepnos_world()
        engine = AsyncEngine(max_inflight=4)
        # No product cache: the write-through entries would answer the
        # whole page and nothing would be left in flight to drain.
        datastore = DataStore.connect(
            fabric, servers, async_engine=engine,
            product_cache=ProductCacheOptions(enabled=False))
        _populate(datastore, "nb/drain", subruns=1, events=16)
        subrun = datastore["nb/drain"][1][0]
        keys = [ev.key for ev in subrun]
        pending = datastore.issue_load(
            LoadPlan(keys, [(vector_of(Hit), "hits")]))
        assert len(pending.futures) >= 1
        datastore.shutdown()  # drains instead of abandoning the window
        assert engine.outstanding == 0
        assert engine.stats.completed == engine.stats.submitted
        assert all(future.done for future in pending.futures)

    def test_prefetcher_double_buffering_matches_sync(self):
        fabric, servers = _hepnos_world()
        datastore = DataStore.connect(fabric, servers)
        _populate(datastore, "nb/prefetch", subruns=1, events=64)
        subrun = datastore["nb/prefetch"][1][0]
        spec = [(vector_of(Hit), "hits")]

        sync = Prefetcher(datastore, products=spec)
        expected = [
            (ev.number, ev.load(vector_of(Hit), label="hits"))
            for ev in sync.events(subrun)
        ]
        AsyncEngine(datastore, max_inflight=4)
        piped = Prefetcher(datastore, products=spec)
        got = [
            (ev.number, ev.load(vector_of(Hit), label="hits"))
            for ev in piped.events(subrun)
        ]
        assert got == expected
        assert piped.pages_prefetched > 0
        datastore.shutdown()

    def test_engine_forgets_what_it_carried(self):
        """Regression: every settled future -- with its decoded answer
        -- used to stay in a completion queue nobody popped."""
        fabric, servers = _hepnos_world()
        datastore = DataStore.connect(  # no cache: every page hits the wire
            fabric, servers, product_cache=ProductCacheOptions(enabled=False))
        _populate(datastore, "nb/forget", subruns=1, events=64)
        subrun = datastore["nb/forget"][1][0]
        engine = AsyncEngine(datastore, max_inflight=2)
        carried, submit = [], engine.submit

        def recording_submit(future):
            carried.append(weakref.ref(future))
            return submit(future)

        engine.submit = recording_submit
        reader = Prefetcher(datastore, options=PEPOptions(input_batch_size=8),
                            products=[(vector_of(Hit), "hits")])
        assert sum(1 for _ in reader.events(subrun)) == 64
        del reader
        gc.collect()
        assert len(carried) >= 8
        assert engine.stats.completed == len(carried)
        assert [ref() for ref in carried if ref() is not None] == []
        datastore.shutdown()

    def test_async_vs_sync_pep_equivalence_under_chaos(self):
        fabric, servers = _hepnos_world(threaded=True)
        datastore = DataStore.connect(fabric, servers)
        _populate(datastore, "nb/chaos", subruns=2, events=20)
        dataset = datastore["nb/chaos"]
        spec = [(vector_of(Hit), "hits")]

        def collect(pep):
            seen = []
            pep.process(dataset, lambda ev: seen.append(
                (ev.triple(), tuple(ev.load(vector_of(Hit), label="hits")))
            ))
            return sorted(seen)

        baseline = collect(ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=8), products=spec,
        ))
        assert len(baseline) == 40

        # Same read, now through the async pipeline with a seeded fault
        # schedule dropping, delaying, and corrupting traffic.
        datastore.retry_policy = RetryPolicy(
            max_attempts=6, base_delay=0.001, max_delay=0.01,
            rpc_timeout=0.25, seed=7,
        )
        schedule = (FaultSchedule(seed=11)
                    .drop(0.03)
                    .delay(0.0005, jitter=0.5)
                    .corruption(0.02))
        fabric.fault_model = schedule
        try:
            engine = AsyncEngine(datastore, max_inflight=4)
            chaotic = collect(ParallelEventProcessor(
                datastore, options=PEPOptions(input_batch_size=8),
                products=spec,
            ))
        finally:
            fabric.fault_model = FaultModel()
        assert chaotic == baseline
        assert sum(schedule.counts.values()) > 0  # faults actually fired
        engine.drain(raise_errors=True)
        fabric.runtime.shutdown()

    @pytest.mark.parametrize("response_latency", [0.0, 0.002])
    def test_pep_pass_goes_through_the_window(self, response_latency):
        """With an engine attached every page's load plan is submitted
        through its window, and under server -> client latency page N+1
        is on the wire while page N is processed."""
        fabric, servers = _hepnos_world(threaded=True)
        datastore = DataStore.connect(  # no cache: every page hits the wire
            fabric, servers, product_cache=ProductCacheOptions(enabled=False))
        _populate(datastore, "nb/overlap", subruns=2, events=32)
        engine = AsyncEngine(datastore, max_inflight=4)
        if response_latency:
            fabric.fault_model = FaultSchedule(seed=3).delay(
                response_latency, src="node0")
        seen = []
        stats = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=8),
            products=[(vector_of(Hit), "hits")],
        ).process(datastore["nb/overlap"], lambda ev: seen.append(ev.triple()))
        fabric.fault_model = FaultModel()
        engine.drain(raise_errors=True)
        fabric.runtime.shutdown()
        assert len(set(seen)) == 64
        assert engine.stats.submitted > 0
        if response_latency:
            assert stats.overlap_seconds > 0.0
