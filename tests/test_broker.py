"""Tests for the multi-tenant request broker (repro.broker)."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.broker import (
    FairShareScheduler,
    RequestBroker,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
)
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
        broker = self._broker(max_queue=2)
        meta = wire.TenantEnvelope("t")
        held = [broker.admit(meta, "get", 1) for _ in range(4)]
        # 2 granted (slots), 2 queued = max_queue; the next is shed.
        with pytest.raises(ServiceBusy):
            broker.admit(meta, "get", 1)
        for adm in held:
            broker.finish(adm)

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
        assert broker.scheduler.slots == 2
        assert broker.scheduler.interactive_reserve == 1  # min(2, slots - 1)

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


# -- DRR fairness (property-based) -------------------------------------------


def _drain(sched, ledger):
    """Release every granted ticket until nothing is queued or running.

    Returns the grant order.  ``ledger`` is the list of all submitted
    tickets; grants flip ``granted`` under the scheduler lock.
    """
    order = []
    seen = set()
    for _ in range(10 * len(ledger) + 10):
        progressed = False
        for ticket in ledger:
            if ticket.granted and ticket.seq not in seen:
                seen.add(ticket.seq)
                order.append(ticket)
                sched.release(ticket)
                progressed = True
        if len(seen) == len(ledger):
            break
        assert progressed, "scheduler stalled with queued work"
    return order


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4),          # tenant id
                  st.integers(1, 8192),       # cost (bytes)
                  st.sampled_from([0.5, 1.0, 2.0, 4.0])),  # weight
        min_size=1, max_size=60,
    ),
    st.integers(1, 4),  # slots
)
def test_drr_never_starves_a_nonempty_queue(requests, slots):
    """Every submitted request is eventually granted, regardless of mix.

    The DRR bound: a visit earns ``quantum * weight`` credit, so any
    head-of-line request is granted within
    ``ceil(cost / (quantum * weight))`` visits of its queue -- never
    starved by heavier or more numerous neighbours.
    """
    sched = FairShareScheduler(slots=slots, interactive_reserve=0,
                               quantum=1024)
    ledger = [
        sched.submit(f"tenant-{tid}", wire.PRIORITY_BATCH, cost,
                     weight=weight)
        for tid, cost, weight in requests
    ]
    order = _drain(sched, ledger)
    assert len(order) == len(ledger)
    assert {t.seq for t in order} == {t.seq for t in ledger}
    assert sched.queued_total() == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4096), min_size=2, max_size=40),
       st.lists(st.integers(1, 4096), min_size=2, max_size=40))
def test_drr_per_tenant_fifo_preserved(costs_a, costs_b):
    """Within one tenant, grants follow submission order (FIFO)."""
    sched = FairShareScheduler(slots=1, interactive_reserve=0, quantum=512)
    ledger = []
    for i in range(max(len(costs_a), len(costs_b))):
        if i < len(costs_a):
            ledger.append(sched.submit("a", wire.PRIORITY_BATCH, costs_a[i]))
        if i < len(costs_b):
            ledger.append(sched.submit("b", wire.PRIORITY_BATCH, costs_b[i]))
    order = _drain(sched, ledger)
    for tenant in ("a", "b"):
        seqs = [t.seq for t in order if t.tenant == tenant]
        assert seqs == sorted(seqs)


def test_weights_shape_long_run_shares():
    """A weight-4 tenant is granted ~4x the bytes of a weight-1 tenant
    over any long contended window (DRR's defining property)."""
    sched = FairShareScheduler(slots=1, interactive_reserve=0, quantum=100)
    ledger = []
    for _ in range(200):
        ledger.append(sched.submit("heavy", wire.PRIORITY_BATCH, 100,
                                   weight=4.0))
        ledger.append(sched.submit("light", wire.PRIORITY_BATCH, 100,
                                   weight=1.0))
    order = _drain(sched, ledger)
    # Inspect the first half of the grant sequence (steady contention).
    window = order[: len(order) // 2]
    heavy = sum(1 for t in window if t.tenant == "heavy")
    light = sum(1 for t in window if t.tenant == "light")
    assert light > 0
    assert heavy / light == pytest.approx(4.0, rel=0.25)


def test_interactive_reserve_blocks_batch():
    sched = FairShareScheduler(slots=2, interactive_reserve=1, quantum=1024)
    b1 = sched.submit("b", wire.PRIORITY_BATCH, 1)
    b2 = sched.submit("b", wire.PRIORITY_BATCH, 1)
    assert b1.granted
    assert not b2.granted  # the reserved slot is off-limits to batch
    i1 = sched.submit("i", wire.PRIORITY_INTERACTIVE, 1)
    assert i1.granted  # interactive takes the reserved slot immediately
    sched.release(i1)
    sched.release(b1)
    assert b2.granted
    sched.release(b2)


def test_strict_priority_order():
    sched = FairShareScheduler(slots=1, interactive_reserve=0, quantum=1024)
    running = sched.submit("x", wire.PRIORITY_BATCH, 1)
    queued_batch = sched.submit("x", wire.PRIORITY_BATCH, 1)
    queued_inter = sched.submit("y", wire.PRIORITY_INTERACTIVE, 1)
    sched.release(running)
    assert queued_inter.granted  # jumped the earlier-submitted batch
    assert not queued_batch.granted
    assert sched.stats()["preemptions"] >= 1
    sched.release(queued_inter)
    sched.release(queued_batch)


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
                {"id": "inter", "priority": "interactive", "weight": 2.0},
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
