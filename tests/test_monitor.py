"""Tests for the monitoring and diagnostics component."""

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import KeyNotFound, ReproError
from repro.hepnos import DataStore
from repro.mercury import Engine, Fabric
from repro.monitor import (
    Counter,
    Gauge,
    MetricRegistry,
    TraceCollector,
    diagnose,
    trace_session,
)
from repro.monitor.diagnose import SKEW_THRESHOLD
from repro.monitor.tracing import Span, SpanContext, Tracer
from repro.yokan import LSMBackend, MemoryBackend, YokanClient, YokanProvider


class TestMetrics:
    def test_counter(self):
        c = Counter("ops")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0

    def test_registry_get_or_create(self):
        reg = MetricRegistry()
        c1 = reg.counter("x")
        c2 = reg.counter("x")
        assert c1 is c2
        with pytest.raises(ReproError):
            reg.gauge("x")

    def test_registry_names(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg


@pytest.fixture()
def monitored_world():
    """One provider with two databases, a client, and a live trace."""
    fabric = Fabric()
    engine = Engine(fabric, "sm://server/0")
    provider = YokanProvider(engine, provider_id=0, databases={
        "events-0": MemoryBackend(),
        "events-1": MemoryBackend(),
    })
    client = YokanClient(Engine(fabric, "sm://client/0"))
    db0 = client.database_handle("sm://server/0", 0, "events-0")
    db1 = client.database_handle("sm://server/0", 0, "events-1")
    with trace_session() as tracer:
        yield fabric, provider, tracer.collector, db0, db1


def _db_spans(trace, db):
    return [s for s in trace.spans
            if s.name.startswith("yokan.provider.") and s.tags.get("db") == db]


def _cold_server(fabric):
    """A second server whose four databases each take one put."""
    YokanProvider(Engine(fabric, "sm://server/1"), provider_id=0,
                  databases={f"events-{i}": MemoryBackend()
                             for i in range(2, 6)})
    client = YokanClient(Engine(fabric, "sm://client/1"))
    for i in range(2, 6):
        client.database_handle("sm://server/1", 0,
                               f"events-{i}").put(b"cold", b"v")


def _record(trace, name, duration, **tags):
    """Record one finished span of ``duration`` seconds."""
    span = Span(Tracer(trace), name, SpanContext(1, len(trace) + 1), None,
                tags)
    span.end = span.start + duration
    trace.record(span)


class TestProviderMonitor:
    """A provider is watched through its ``yokan.provider.*`` spans,
    which name the server, the provider and the database."""

    def test_ops_counted_through_rpc(self, monitored_world):
        _, _, trace, db0, _ = monitored_world
        db0.put(b"k", b"v")
        db0.get(b"k")
        assert db0.exists(b"k")
        spans = _db_spans(trace, "events-0")
        assert [s.name for s in spans] == [
            "yokan.provider.put", "yokan.provider.get",
            "yokan.provider.exists"]
        assert {(s.tags["address"], s.tags["provider"]) for s in spans} == \
            {("sm://server/0", 0)}
        assert _db_spans(trace, "events-1") == []

    def test_misses_counted(self, monitored_world):
        _, _, trace, db0, _ = monitored_world
        with pytest.raises(KeyNotFound):
            db0.get(b"missing")
        (span,) = _db_spans(trace, "events-0")
        assert span.tags["error"] == "KeyNotFound"

    def test_batch_ops_counted_per_item(self, monitored_world):
        _, _, trace, db0, _ = monitored_world
        db0.put_multi([(bytes([i]), b"v") for i in range(10)])
        db0.get_multi([bytes([i]) for i in range(10)])
        db0.load_prefix_packed([bytes([i]) for i in range(4)])
        spans = _db_spans(trace, "events-0")
        assert [s.tags.get("keys", s.tags.get("prefixes")) for s in spans] \
            == [10, 10, 4]

    def test_latency_recorded(self, monitored_world):
        _, _, trace, db0, _ = monitored_world
        db0.put(b"k", b"v")
        (span,) = _db_spans(trace, "events-0")
        assert span.finished and span.duration > 0

    def test_idempotent_instrumentation(self, monitored_world):
        _, provider, trace, db0, _ = monitored_world
        db0.put(b"k", b"v")
        # Watching wraps nothing, and a diagnosis only reads the trace.
        assert all(type(db) is MemoryBackend
                   for db in provider.databases.values())
        first = str(diagnose(None, trace))
        assert str(diagnose(None, trace)) == first
        assert len(_db_spans(trace, "events-0")) == 1

    def test_scan_and_listing_still_work(self, monitored_world):
        _, _, trace, db0, _ = monitored_world
        for i in range(5):
            db0.put(f"k{i}".encode(), b"v")
        assert len(db0.list_keys(prefix=b"k")) == 5
        assert _db_spans(trace, "events-0")[-1].name == \
            "yokan.provider.list_keys"


class TestFabricMonitor:
    """The fabric is watched through its own traffic counters."""

    def test_samples_traffic(self, monitored_world):
        fabric, _, _, db0, _ = monitored_world
        for i in range(50):
            db0.put(f"{i}".encode(), b"x")
        assert not diagnose(fabric.stats).findings
        for i in range(100):
            db0.put(f"{i}".encode(), b"x")
        # The same live counters, read again, now show a busy client.
        assert diagnose(fabric.stats).has("chatty-client")

    def test_zero_traffic(self):
        assert not diagnose(Fabric().stats).findings


class TestDiagnose:
    def test_chatty_client_detected(self, monitored_world):
        fabric, _, trace, db0, _ = monitored_world
        for i in range(200):
            db0.put(f"{i}".encode(), b"x")  # tiny unbatched puts
        report = diagnose(fabric.stats, trace)
        assert report.has("chatty-client")
        assert report.warnings

    def test_batched_client_clean(self, monitored_world):
        fabric, _, trace, db0, _ = monitored_world
        db0.put_multi([(f"{i:06d}".encode(), b"x" * 200) for i in range(500)])
        report = diagnose(fabric.stats, trace)
        assert not report.has("chatty-client")

    def test_busy_client_with_large_rpcs_is_traffic(self, monitored_world):
        fabric, _, trace, db0, _ = monitored_world
        for i in range(150):
            db0.put(f"{i}".encode(), b"x" * 400)
        report = diagnose(fabric.stats, trace)
        assert report.has("traffic")
        assert not report.warnings

    def test_hot_database_detected(self, monitored_world):
        fabric, _, trace, db0, db1 = monitored_world
        # One database can pass 4x the mean only among more than four
        # active ones: a second server adds four cold databases.
        _cold_server(fabric)
        db1.put(b"cold", b"v")
        for i in range(100):
            db0.put(f"{i}".encode(), b"v")
        report = diagnose(trace=trace)
        assert report.has("hot-database")
        assert "'events-0' at sm://server/0" in str(report)

    def test_hot_database_keyed_per_server(self):
        """Every server has the same database names; load is counted
        per (server, database), so one server's hot ``events-0`` is not
        diluted by another server's idle one."""
        trace = TraceCollector()
        for _ in range(5):
            _record(trace, "yokan.provider.put_multi", 1e-4, keys=100,
                    address="sm://node0/hepnos", provider=0, db="events-0")
        _record(trace, "yokan.provider.put_multi", 1e-4, keys=0,
                address="sm://node1/hepnos", provider=0, db="events-0")
        for node in (0, 1):
            for name in range(1, 9):
                _record(trace, "yokan.provider.load_prefix_packed", 1e-4,
                        prefixes=100, address=f"sm://node{node}/hepnos",
                        provider=0, db=f"events-{name}")
        # Summed by name: 500 against a mean of 233 (2.1x).  Per
        # database: 500 against a mean of 2100 / 17 = 123.5 (4.05x).
        assert 500 / (2100 / 9) < SKEW_THRESHOLD < 500 / (2100 / 17)
        report = diagnose(trace=trace)
        assert report.has("hot-database")
        assert "'events-0' at sm://node0/hepnos served 500 ops" in str(report)

    def test_balanced_databases_clean(self, monitored_world):
        fabric, _, trace, db0, db1 = monitored_world
        for i in range(50):
            db0.put(f"{i}".encode(), b"v")
            db1.put(f"{i}".encode(), b"v")
        report = diagnose(fabric.stats, trace)
        assert not report.has("hot-database")
        assert report.has("balance")

    def test_slow_tail_detected(self):
        trace = TraceCollector()
        tags = dict(address="sm://node0/hepnos", provider=0)
        # 11 slow spans of 1,000 put the exact p99 on a slow one.
        for i in range(1000):
            _record(trace, "yokan.provider.get", 1e-2 if i < 11 else 1e-5,
                    db="events-0", **tags)
            _record(trace, "yokan.provider.get", 1e-5, db="events-1", **tags)
        report = diagnose(trace=trace)
        (finding,) = [f for f in report.findings if f.code == "slow-tail"]
        assert "'events-0'" in finding.message
        assert "p99 0.01s" in finding.message
        # Ten slow spans leave the p99 on a fast one.
        first = trace.spans[0]
        first.end = first.start + 1e-5
        assert not diagnose(trace=trace).has("slow-tail")

    def test_fabric_drops_detected(self):
        from repro.errors import NetworkFailure
        from repro.mercury import InjectionFaultModel

        fabric = Fabric(fault_model=InjectionFaultModel(bytes_per_window=50))
        engine = Engine(fabric, "sm://s/0")
        YokanProvider(engine, databases={"db": MemoryBackend()})
        client = YokanClient(Engine(fabric, "sm://c/0"))
        handle = client.database_handle("sm://s/0", 0, "db")
        with pytest.raises(NetworkFailure):
            for _ in range(10):
                handle.put(b"k", b"x" * 40)
        report = diagnose(fabric.stats)
        assert report.has("fabric-drops")

    def test_empty_report(self):
        report = diagnose()
        assert not report.findings
        assert str(report) == "no findings"

    def test_report_renders(self, monitored_world):
        fabric, _, trace, db0, _ = monitored_world
        for i in range(200):
            db0.put(f"{i}".encode(), b"x")
        text = str(diagnose(fabric.stats, trace))
        assert "chatty-client" in text

    def test_saved_trace_diagnoses_the_same(self, monitored_world, tmp_path):
        """The ``db``, ``address``, ``keys`` and ``prefixes`` tags survive
        a saved trace file, so it diagnoses offline as it did live."""
        fabric, _, trace, db0, db1 = monitored_world
        _cold_server(fabric)
        for i in range(150):
            db0.put(f"{i}".encode(), b"x")
        db0.put_multi([(f"m{i}".encode(), b"x") for i in range(50)])
        db0.load_prefix_packed([b"m", b"1", b"2"])
        db1.put(b"cold", b"v")
        path = str(tmp_path / "trace.json")
        trace.save(path)
        live = diagnose(fabric.stats, trace)
        assert live.has("chatty-client") and live.has("hot-database")
        saved = diagnose(fabric.stats, TraceCollector.load(path))
        assert [str(f) for f in saved.findings] == \
            [str(f) for f in live.findings]


def test_watching_leaves_the_service_alone(tmp_path):
    """A traced, diagnosed LSM deployment behaves as an unwatched one:
    every durable database checkpoints, spans keep arriving from the
    providers a restart rebuilds, and nothing switches on the LSM's
    live-key bookkeeping."""
    fabric = Fabric()
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        backend="lsm", storage_root=str(tmp_path)))
    datastore = DataStore.connect(fabric, [server])
    admin = YokanClient(Engine(fabric, "sm://admin/0"))

    def lsm_databases():
        return [db for p in server.providers.values()
                for db in p.databases.values()]

    def provider_spans(trace):
        return sum(1 for s in trace.spans
                   if s.name.startswith("yokan.provider.") and "db" in s.tags)

    with trace_session() as tracer:
        trace = tracer.collector
        subrun = datastore.create_dataset("w").create_run(1).create_subrun(1)
        for e in range(20):
            subrun.create_event(e)
        diagnose(fabric.stats, trace)
        assert all(isinstance(db, LSMBackend) and db._live_keys is None
                   for db in lsm_databases())

        checkpointed = sum(
            admin.sync("sm://node0/hepnos", pid, checkpoint=True)
            ["checkpointed"] for pid in server.providers)
        assert checkpointed == sum(db.durable for db in lsm_databases()) == 7

        before = provider_spans(trace)
        server.crash()
        server.restart()
        for e in range(20, 25):
            subrun.create_event(e)
        assert provider_spans(trace) >= before + 5
        diagnose(fabric.stats, trace)
        assert all(db._live_keys is None for db in lsm_databases())
    assert [ev.number for ev in subrun] == list(range(25))
    server.shutdown()
