"""Tests for the monitoring and diagnostics component."""

import pytest

from repro.errors import KeyNotFound, ReproError
from repro.mercury import Engine, Fabric
from repro.monitor import (
    Counter,
    FabricMonitor,
    Gauge,
    Histogram,
    MetricRegistry,
    diagnose,
    monitor_provider,
)
from repro.yokan import MemoryBackend, YokanClient, YokanProvider


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

    def test_gauge_sampled(self):
        source = {"v": 10}
        g = Gauge("lazy", sample_fn=lambda: source["v"])
        assert g.value == 10
        source["v"] = 20
        assert g.value == 20

    def test_histogram_stats(self):
        h = Histogram("lat", bounds=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(0.015125, rel=1e-6)
        assert h.quantile(0.5) == 0.01
        assert h.quantile(1.0) == 0.1

    def test_histogram_quantile_validation(self):
        h = Histogram("lat")
        assert h.quantile(0.99) == 0.0  # empty
        with pytest.raises(ReproError):
            h.quantile(2.0)

    def test_histogram_timer(self):
        h = Histogram("lat")
        with h.time():
            pass
        assert h.count == 1

    def test_registry_get_or_create(self):
        reg = MetricRegistry()
        c1 = reg.counter("x")
        c2 = reg.counter("x")
        assert c1 is c2
        with pytest.raises(ReproError):
            reg.gauge("x")

    def test_registry_snapshot_history(self):
        reg = MetricRegistry()
        c = reg.counter("ops")
        c.inc(10)
        reg.snapshot(timestamp=1.0)
        c.inc(30)
        reg.snapshot(timestamp=3.0)
        assert reg.rate("ops") == pytest.approx(15.0)
        assert len(reg.history) == 2

    def test_registry_rate_needs_two_samples(self):
        reg = MetricRegistry()
        reg.counter("ops").inc()
        reg.snapshot(timestamp=1.0)
        assert reg.rate("ops") == 0.0

    def test_registry_names(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg


@pytest.fixture()
def monitored_world():
    fabric = Fabric()
    engine = Engine(fabric, "sm://server/0")
    provider = YokanProvider(engine, provider_id=0, databases={
        "events-0": MemoryBackend(),
        "events-1": MemoryBackend(),
    })
    monitor = monitor_provider(provider)
    client = YokanClient(Engine(fabric, "sm://client/0"))
    db0 = client.database_handle("sm://server/0", 0, "events-0")
    db1 = client.database_handle("sm://server/0", 0, "events-1")
    return fabric, provider, monitor, db0, db1


class TestProviderMonitor:
    def test_ops_counted_through_rpc(self, monitored_world):
        _, _, monitor, db0, _ = monitored_world
        db0.put(b"k", b"v")
        db0.get(b"k")
        assert db0.exists(b"k")
        ops = monitor.database_ops()
        assert ops["events-0"] == 3
        assert ops["events-1"] == 0

    def test_misses_counted(self, monitored_world):
        _, _, monitor, db0, _ = monitored_world
        with pytest.raises(KeyNotFound):
            db0.get(b"missing")
        assert monitor.registry["db.events-0.misses"].value == 1

    def test_batch_ops_counted_per_item(self, monitored_world):
        _, _, monitor, db0, _ = monitored_world
        db0.put_multi([(bytes([i]), b"v") for i in range(10)])
        db0.get_multi([bytes([i]) for i in range(10)])
        assert monitor.database_ops()["events-0"] == 20

    def test_key_gauge_tracks_size(self, monitored_world):
        _, _, monitor, db0, _ = monitored_world
        db0.put(b"a", b"1")
        db0.put(b"b", b"2")
        assert monitor.registry["db.events-0.keys"].value == 2

    def test_latency_recorded(self, monitored_world):
        _, _, monitor, db0, _ = monitored_world
        db0.put(b"k", b"v")
        assert monitor.registry["db.events-0.latency"].count == 1

    def test_idempotent_instrumentation(self, monitored_world):
        _, provider, monitor, db0, _ = monitored_world
        monitor2 = monitor_provider(provider, monitor.registry)
        db0.put(b"k", b"v")
        # Not double-wrapped: one op recorded, not two.
        assert monitor2.database_ops()["events-0"] == 1

    def test_scan_and_listing_still_work(self, monitored_world):
        _, _, _, db0, _ = monitored_world
        for i in range(5):
            db0.put(f"k{i}".encode(), b"v")
        assert len(db0.list_keys(prefix=b"k")) == 5


class TestFabricMonitor:
    def test_samples_traffic(self, monitored_world):
        fabric, _, _, db0, _ = monitored_world
        monitor = FabricMonitor(fabric)
        db0.put(b"k", b"v")
        sample = monitor.sample()
        assert sample["fabric.rpc_count"]["value"] >= 1
        assert monitor.bytes_per_rpc() > 0

    def test_zero_traffic(self):
        fabric = Fabric()
        monitor = FabricMonitor(fabric)
        assert monitor.bytes_per_rpc() == 0.0


class TestDiagnose:
    def test_chatty_client_detected(self, monitored_world):
        fabric, _, monitor, db0, _ = monitored_world
        fm = FabricMonitor(fabric)
        for i in range(200):
            db0.put(f"{i}".encode(), b"x")  # tiny unbatched puts
        report = diagnose(fm, [monitor])
        assert report.has("chatty-client")
        assert report.warnings

    def test_batched_client_clean(self, monitored_world):
        fabric, _, monitor, db0, _ = monitored_world
        fm = FabricMonitor(fabric)
        db0.put_multi([(f"{i:06d}".encode(), b"x" * 200) for i in range(500)])
        report = diagnose(fm, [monitor])
        assert not report.has("chatty-client")

    def test_hot_database_detected(self, monitored_world):
        fabric, _, monitor, db0, db1 = monitored_world
        # One database can pass 4x the mean only among more than four
        # active ones: a second provider adds four cold databases.
        extra = monitor_provider(YokanProvider(
            Engine(fabric, "sm://server/1"), provider_id=0,
            databases={f"events-{i}": MemoryBackend() for i in range(2, 6)}))
        client = YokanClient(Engine(fabric, "sm://client/1"))
        db1.put(b"cold", b"v")
        for i in range(2, 6):
            client.database_handle("sm://server/1", 0,
                                   f"events-{i}").put(b"cold", b"v")
        for i in range(100):
            db0.put(f"{i}".encode(), b"v")
        report = diagnose(provider_monitors=[monitor, extra])
        assert report.has("hot-database")

    def test_balanced_databases_clean(self, monitored_world):
        fabric, _, monitor, db0, db1 = monitored_world
        for i in range(50):
            db0.put(f"{i}".encode(), b"v")
            db1.put(f"{i}".encode(), b"v")
        report = diagnose(provider_monitors=[monitor])
        assert not report.has("hot-database")
        assert report.has("balance")

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
        report = diagnose(FabricMonitor(fabric))
        assert report.has("fabric-drops")

    def test_empty_report(self):
        report = diagnose()
        assert not report.findings
        assert str(report) == "no findings"

    def test_report_renders(self, monitored_world):
        fabric, _, monitor, db0, _ = monitored_world
        for i in range(200):
            db0.put(f"{i}".encode(), b"x")
        text = str(diagnose(FabricMonitor(fabric), [monitor]))
        assert "chatty-client" in text
