"""Tests for the multi-tenant request broker (repro.broker)."""

import math
import threading

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.broker import (
    RequestBroker,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
)
from repro.broker.core import SHED_RETRY_HINT_S
from repro.errors import ConfigError, HEPnOSError, QuotaExceeded, ServiceBusy
from repro.faults.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.mercury import Fabric
from repro.yokan import wire
import repro.hepnos as hepnos


# -- wire envelope -----------------------------------------------------------


class TestTenantEnvelope:
    def test_round_trip(self):
        sealed = wire.seal(b"the rpc payload")
        wrapped = wire.wrap_tenant(sealed, "nova", wire.PRIORITY_INTERACTIVE,
                                   "tok")
        meta, envelope = wire.unwrap_tenant(wrapped)
        assert meta == wire.TenantEnvelope("nova",
                                           wire.PRIORITY_INTERACTIVE, "tok")
        assert bytes(wire.unseal(envelope)) == b"the rpc payload"

    def test_untagged_passthrough(self):
        sealed = wire.seal(b"untagged payload")
        meta, envelope = wire.unwrap_tenant(sealed)
        assert meta is None
        assert bytes(envelope) == bytes(sealed)

    def test_priority_names(self):
        assert wire.priority_code("interactive") == wire.PRIORITY_INTERACTIVE
        assert wire.priority_code("batch") == wire.PRIORITY_BATCH
        assert wire.priority_name(wire.PRIORITY_BATCH) == "batch"
        with pytest.raises(ConfigError):
            wire.priority_code("realtime")


# -- token bucket ------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill_hint(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)
        clock[0] += wait
        assert bucket.try_acquire() == 0.0

    def test_infinite_rate_never_sheds(self):
        bucket = TokenBucket(rate=math.inf, burst=math.inf)
        assert all(bucket.try_acquire() == 0.0 for _ in range(1000))


# -- registry ----------------------------------------------------------------


class TestTenantRegistry:
    def test_resolve_registered_and_default(self):
        registry = TenantRegistry(
            [TenantSpec("nova", rate=10.0)],
            default=TenantSpec("", rate=5.0),
        )
        spec = registry.resolve(wire.TenantEnvelope("nova"))
        assert spec.rate == 10.0
        spec = registry.resolve(wire.TenantEnvelope("stranger"))
        assert spec.rate == 5.0
        assert spec.tenant == "stranger"  # accounting stays per-tenant

    def test_closed_registry_rejects_unknown(self):
        registry = TenantRegistry([TenantSpec("nova")], default=None)
        with pytest.raises(QuotaExceeded):
            registry.resolve(wire.TenantEnvelope("stranger"))

    def test_quota_token_enforced(self):
        registry = TenantRegistry([TenantSpec("nova", token="s3cret")])
        with pytest.raises(QuotaExceeded):
            registry.resolve(wire.TenantEnvelope("nova", token="wrong"))
        spec = registry.resolve(wire.TenantEnvelope("nova", token="s3cret"))
        assert spec.tenant == "nova"

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            TenantRegistry.from_config(
                {"registry": [{"id": "a", "speed": 9}]})

    @pytest.mark.parametrize("key", ["weight", "max_queue"])
    def test_removed_spec_settings_refused(self, key):
        """Settings of a queue the broker does not have are refused by
        name, not silently ignored."""
        with pytest.raises(ConfigError, match=key):
            TenantRegistry.from_config(
                {"registry": [{"id": "a", key: 2}]})
        with pytest.raises(ConfigError, match=key):
            default_hepnos_config("sm://r/hepnos", tenants={
                "default": {key: 2}})

    def test_explicit_null_default_closes(self):
        registry = TenantRegistry.from_config(
            {"registry": [{"id": "a"}], "default": None})
        with pytest.raises(QuotaExceeded):
            registry.resolve(wire.TenantEnvelope("b"))


# -- admission ---------------------------------------------------------------


class TestAdmission:
    def _broker(self, **spec_kwargs):
        registry = TenantRegistry([TenantSpec("t", **spec_kwargs)])
        return RequestBroker(registry=registry, slots=2,
                             interactive_reserve=0)

    def test_rate_shed_carries_refill_hint(self):
        broker = self._broker(rate=1.0, burst=1.0)
        meta = wire.TenantEnvelope("t")
        adm = broker.admit(meta, "put", 10)
        broker.finish(adm)
        with pytest.raises(ServiceBusy) as info:
            broker.admit(meta, "put", 10)
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0.0

    def test_bytes_in_flight_quota(self):
        broker = self._broker(max_bytes_in_flight=100)
        meta = wire.TenantEnvelope("t")
        first = broker.admit(meta, "put", 90)
        with pytest.raises(QuotaExceeded):
            broker.admit(meta, "put", 90)
        broker.finish(first)
        second = broker.admit(meta, "put", 90)  # freed by finish
        broker.finish(second)

    def test_oversized_single_request_admitted(self):
        # A request larger than the whole quota must still be servable
        # when nothing else is in flight, else it could never run.
        broker = self._broker(max_bytes_in_flight=100)
        adm = broker.admit(wire.TenantEnvelope("t"), "put", 1000)
        broker.finish(adm)

    def test_queue_bound_sheds(self):
        """Past the bound a request is shed with the retry hint; nothing
        waits behind admission."""
        broker = self._broker()
        meta = wire.TenantEnvelope("t")
        held = [broker.admit(meta, "get", 1) for _ in range(2)]
        assert broker.in_service == 2
        with pytest.raises(ServiceBusy) as shed:
            broker.admit(meta, "get", 1)
        assert shed.value.retry_after_s == SHED_RETRY_HINT_S
        assert not isinstance(shed.value, QuotaExceeded)
        counters = broker.tenant_stats()["tenants"]["t"]
        assert (counters["shed"], counters["shed_slots"]) == (1, 1)
        for adm in held:
            broker.finish(adm)
        assert broker.in_service == 0
        broker.finish(broker.admit(meta, "get", 1))

    def test_counters_and_stats_surface(self):
        broker = self._broker(rate=1.0, burst=1.0)
        meta = wire.TenantEnvelope("t")
        broker.finish(broker.admit(meta, "put", 10))
        with pytest.raises(ServiceBusy):
            broker.admit(meta, "put", 10)
        stats = broker.tenant_stats()
        counters = stats["tenants"]["t"]
        assert counters["admitted"] == 1
        assert counters["completed"] == 1
        assert counters["shed"] == 1
        assert counters["shed_rate"] == 1
        assert counters["bytes_in_flight"] == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RequestBroker.from_config({"slotz": 3})
        broker = RequestBroker.from_config(
            {"slots": 2, "registry": [{"id": "a", "rate": 3}]})
        assert broker.slots == 2
        assert broker.interactive_reserve == 1  # min(2, slots - 1)

    @pytest.mark.parametrize("reserve", [9, 4, -3])
    def test_out_of_range_reserve_refused(self, reserve):
        """An explicit reserve outside [0, slots) is an error, not
        silently clamped into range."""
        with pytest.raises(ConfigError, match="interactive_reserve"):
            default_hepnos_config("sm://r/hepnos", tenants={
                "slots": 4, "interactive_reserve": reserve})

    @pytest.mark.parametrize("key", ["quantum_bytes", "shed_retry_hint_s"])
    def test_removed_settings_refused(self, key):
        with pytest.raises(ConfigError, match=key):
            default_hepnos_config("sm://r/hepnos",
                                  tenants={"slots": 4, key: 1})


# -- retry integration -------------------------------------------------------


class TestRetryAfterHint:
    def test_service_busy_is_retryable(self):
        assert ServiceBusy in RETRYABLE_ERRORS
        assert issubclass(QuotaExceeded, ServiceBusy)

    def test_delay_honors_server_hint(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=60.0,
                             jitter=0.0)
        hinted = ServiceBusy("busy", retry_after_s=0.123)
        assert policy.delay(0, hinted) == pytest.approx(0.123)
        assert policy.delay(3, hinted) == pytest.approx(0.123)

    def test_delay_without_hint_backs_off_exponentially(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=60.0,
                             jitter=0.0)
        bare = ServiceBusy("busy")  # retry_after_s defaults to None
        assert policy.delay(0, bare) == pytest.approx(1.0)
        assert policy.delay(1, bare) == pytest.approx(2.0)
        assert policy.delay(2, bare) == pytest.approx(4.0)

    def test_call_retries_through_hinted_sheds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ServiceBusy("busy", retry_after_s=0.0)
            return "served"

        policy = RetryPolicy(max_attempts=5, base_delay=0.001,
                             max_delay=0.01, jitter=0.0)
        assert policy.call(flaky) == "served"
        assert attempts["n"] == 3


# -- the service bound -------------------------------------------------------


def test_interactive_reserve_blocks_batch():
    """At ``slots=2, interactive_reserve=1`` one batch request fills the
    batch share; an interactive one still takes the reserved slot, and
    batch work is admitted again once the count is back under the
    batch share."""
    broker = RequestBroker(
        registry=TenantRegistry([TenantSpec("b"),
                                 TenantSpec("i", priority="interactive")]),
        slots=2, interactive_reserve=1)
    batch = wire.TenantEnvelope("b", wire.PRIORITY_BATCH)
    inter = wire.TenantEnvelope("i", wire.PRIORITY_INTERACTIVE)
    b1 = broker.admit(batch, "get", 1)
    with pytest.raises(ServiceBusy) as shed:
        broker.admit(batch, "get", 1)  # the reserved slot is not batch's
    assert shed.value.retry_after_s == SHED_RETRY_HINT_S
    i1 = broker.admit(inter, "get", 1)
    assert broker.in_service == 2
    with pytest.raises(ServiceBusy):
        broker.admit(inter, "get", 1)  # every slot is in service
    broker.finish(i1)
    with pytest.raises(ServiceBusy):
        broker.admit(batch, "get", 1)  # b1 still fills the batch share
    broker.finish(b1)
    broker.finish(broker.admit(batch, "get", 1))
    assert broker.in_service == 0
    counters = broker.tenant_stats()["tenants"]
    assert (counters["b"]["admitted"], counters["b"]["shed"]) == (2, 2)
    assert (counters["i"]["admitted"], counters["i"]["shed"]) == (1, 1)


def test_the_bound_holds_under_thread_contention():
    """More threads than slots hammer one broker with a tiny switch
    interval: the in-service count never passes ``slots`` and returns,
    with every tenant's bytes in flight, to 0 -- a lost update to either
    would show."""
    import sys

    broker = RequestBroker(slots=3, interactive_reserve=0)
    over, errors = [], []

    def worker(tenant):
        meta = wire.TenantEnvelope(tenant)
        try:
            for _ in range(400):
                try:
                    admission = broker.admit(meta, "get", 7)
                except ServiceBusy:
                    continue
                if broker.in_service > broker.slots:
                    over.append(broker.in_service)
                broker.finish(admission, 1)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(f"t{i % 3}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not over
    assert broker.in_service == 0
    tenants = broker.tenant_stats()["tenants"]
    assert all(c["bytes_in_flight"] == 0 for c in tenants.values())


# -- end-to-end through a live service ---------------------------------------


def _deploy(fabric, tenants):
    return BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        tenants=tenants,
    ))


class TestEndToEnd:
    def test_session_round_trip_with_broker(self):
        fabric = Fabric()
        server = _deploy(fabric, {
            "registry": [{"id": "nova", "priority": "interactive"}]})
        with hepnos.connect(servers=[server], tenant="nova",
                            priority="interactive") as session:
            ds = session.create_dataset("broker/e2e")
            ev = ds.create_run(1).create_subrun(2).create_event(3)
            ev.store([1.0, 2.0], label="hits")
            assert session["broker/e2e"][1][2][3].load(
                hepnos.vector_of(float), label="hits") == [1.0, 2.0]
        stats = server.tenant_stats()
        assert stats["tenants"]["nova"]["admitted"] > 0
        assert stats["tenants"]["nova"]["shed"] == 0
        server.shutdown()

    def test_rate_limited_tenant_sheds_and_recovers(self):
        fabric = Fabric()
        server = _deploy(fabric, {
            "registry": [{"id": "abuser", "rate": 5, "burst": 2}]})
        with hepnos.connect(servers=[server], tenant="abuser") as session:
            ds = session.create_dataset("broker/shed")
            run = ds.create_run(1)
            for i in range(8):
                run.create_subrun(i)
            assert len([sr.number for sr in run]) == 8
        counters = server.tenant_stats()["tenants"]["abuser"]
        assert counters["shed"] > 0  # the limit actually bit
        assert counters["completed"] == counters["admitted"]
        server.shutdown()

    def test_closed_registry_rejects_unknown_tenant(self):
        fabric = Fabric()
        server = _deploy(fabric, {
            "registry": [{"id": "known"}], "default": None})
        policy = RetryPolicy(max_attempts=2, base_delay=0.001,
                             max_delay=0.01, deadline=0.5)
        with hepnos.connect(servers=[server], tenant="stranger",
                            retry_policy=policy) as session:
            with pytest.raises(QuotaExceeded):
                session.create_dataset("broker/denied")
        server.shutdown()

    def test_untagged_traffic_bypasses_broker(self):
        from repro.hepnos import DataStore

        fabric = Fabric()
        server = _deploy(fabric, {
            "registry": [{"id": "known"}], "default": None})
        # No tenant session: plain DataStore traffic is system traffic
        # and must not be brokered even against a closed registry.
        datastore = DataStore.connect(fabric, [server])
        ds = datastore.create_dataset("broker/system")
        assert ds is not None
        assert server.tenant_stats()["tenants"] == {}
        server.shutdown()

    def test_tenant_sessions_against_unbrokered_server(self):
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=1, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
        ))
        # The envelope is stripped and ignored by unbrokered providers.
        with hepnos.connect(servers=[server], tenant="nova") as session:
            ds = session.create_dataset("broker/legacy")
            ev = ds.create_run(1).create_subrun(1).create_event(1)
            ev.store(3.5, label="x")
            assert ev.load(float, label="x") == 3.5
        server.shutdown()

    def test_concurrent_tenants_all_complete(self):
        fabric = Fabric(threaded=True)
        server = _deploy(fabric, {
            "slots": 4, "interactive_reserve": 1,
            "registry": [
                {"id": "inter", "priority": "interactive"},
                {"id": "batch-1"},
                {"id": "batch-2"},
            ],
        })
        fabric.runtime.start()
        errors = []

        def drive(tenant, priority):
            try:
                with hepnos.connect(servers=[server], tenant=tenant,
                                    priority=priority) as session:
                    ds = session.create_dataset(f"broker/{tenant}")
                    run = ds.create_run(1)
                    for i in range(6):
                        sr = run.create_subrun(i)
                        sr.create_event(0).store(float(i), label="v")
                    assert len([s.number for s in run]) == 6
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tenant, exc))

        threads = [
            threading.Thread(target=drive, args=("inter", "interactive")),
            threading.Thread(target=drive, args=("batch-1", "batch")),
            threading.Thread(target=drive, args=("batch-2", "batch")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        tenants = server.tenant_stats()["tenants"]
        assert set(tenants) == {"inter", "batch-1", "batch-2"}
        for counters in tenants.values():
            assert counters["completed"] == counters["admitted"]
        fabric.runtime.shutdown()


# -- options / session API ---------------------------------------------------


class TestSessionAPI:
    def test_quota_options_envelope(self):
        from repro.hepnos import QuotaOptions

        quota = QuotaOptions(tenant="nova", priority="interactive",
                             token="tok")
        env = quota.envelope()
        assert env == wire.TenantEnvelope("nova", wire.PRIORITY_INTERACTIVE,
                                          "tok")
        assert QuotaOptions().envelope() is None

    def test_quota_options_validates_priority(self):
        from repro.hepnos import QuotaOptions

        with pytest.raises(ConfigError):
            QuotaOptions(tenant="x", priority="turbo")

    def test_connect_argument_validation(self):
        with pytest.raises(HEPnOSError):
            hepnos.connect()
        with pytest.raises(HEPnOSError):
            hepnos.connect(servers=[])

    def test_errors_exported(self):
        from repro import errors

        assert "ServiceBusy" in errors.__all__
        assert "QuotaExceeded" in errors.__all__
        assert issubclass(errors.QuotaExceeded, errors.ServiceBusy)
