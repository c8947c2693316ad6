"""Failure-injection tests: fabric drops through the whole stack.

The paper's runs occasionally crashed from Aries NIC injection-
bandwidth oversaturation (section IV-E footnote 7).  These tests inject
that failure mode and verify (a) errors surface cleanly at every layer
and (b) bounded client retries mask transient drops.
"""

import os
import tempfile
import threading
import time

import pytest

from conftest import FlakyModel
from repro.argobots import Eventual
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import AddressError, NetworkFailure, RPCTimeout
from repro.faults import (
    CorruptionFault,
    DropFault,
    FaultSchedule,
    LatencyFault,
    PartitionFault,
    RetryPolicy,
    run_chaos,
)
from repro.hepnos import (
    AsyncEngine,
    DataStore,
    ParallelEventProcessor,
    PEPOptions,
    Prefetcher,
    ProductCacheOptions,
    WriteBatch,
)
from repro.mercury import Engine, Fabric, FaultModel, InjectionFaultModel
from repro.mercury.address import Address
from repro.yokan import MemoryBackend, YokanClient, YokanProvider


class EveryNthModel(FaultModel):
    def __init__(self, n: int):
        self.n = n
        self.count = 0

    def should_drop(self, src, dst, nbytes) -> bool:
        self.count += 1
        return self.count % self.n == 0


def make_world(fault_model, retries=0):
    fabric = Fabric(fault_model=fault_model)
    engine = Engine(fabric, "sm://server/0")
    YokanProvider(engine, databases={"db": MemoryBackend()})
    client = YokanClient(Engine(fabric, "sm://client/0"),
                         retry_policy=RetryPolicy(max_attempts=retries + 1,
                                                  base_delay=0.0, jitter=0.0))
    return fabric, client.database_handle("sm://server/0", 0, "db")


class TestYokanLayer:
    def test_drop_surfaces_as_network_failure(self):
        _, db = make_world(FlakyModel(1))
        with pytest.raises(NetworkFailure):
            db.put(b"k", b"v")

    def test_retry_masks_transient_drop(self):
        _, db = make_world(FlakyModel(2), retries=3)
        db.put(b"k", b"v")  # two drops, then success
        assert db.get(b"k") == b"v"

    def test_retries_exhausted(self):
        _, db = make_world(FlakyModel(10), retries=2)
        with pytest.raises(NetworkFailure):
            db.put(b"k", b"v")

    def test_no_partial_state_on_dropped_request(self):
        fabric, db = make_world(FlakyModel(1), retries=1)
        db.put(b"k", b"v")  # first attempt dropped before reaching server
        assert len(db) == 1  # retry stored exactly one copy

    def test_dropped_response_counts(self):
        """Drop on the response path: the op happened server-side, the
        retry overwrites idempotently."""

        class DropResponses(FaultModel):
            def __init__(self):
                self.armed = False

            def should_drop(self, src, dst, nbytes) -> bool:
                # Requests go client->server; responses server->client.
                if src.node == "server" and not self.armed:
                    self.armed = True
                    return True
                return False

        _, db = make_world(DropResponses(), retries=1)
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        assert len(db) == 1

    def test_periodic_drops_with_retries(self):
        _, db = make_world(EveryNthModel(7), retries=3)
        for i in range(50):
            db.put(f"{i}".encode(), b"v")
        assert len(db) == 50


class TestHEPnOSLayer:
    def test_datastore_over_flaky_fabric(self):
        fabric = Fabric(fault_model=EveryNthModel(11))
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        datastore = DataStore.connect(fabric, [server])
        # Make the datastore's handles retry.
        datastore.retry_policy = RetryPolicy(max_attempts=5, base_delay=0.0,
                                             jitter=0.0)
        ds = datastore.create_dataset("flaky")
        subrun = ds.create_run(1).create_subrun(1)
        for e in range(20):
            subrun.create_event(e)
        assert [ev.number for ev in subrun] == list(range(20))

    def test_injection_saturation_aborts_bulk_storm(self):
        """Unthrottled bulk traffic trips the injection model, exactly
        the failure the paper saw."""
        model = InjectionFaultModel(bytes_per_window=50_000,
                                    window_seconds=60.0)
        fabric = Fabric(fault_model=model)
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        datastore = DataStore.connect(fabric, [server])
        ds = datastore.create_dataset("storm")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        with pytest.raises(NetworkFailure):
            for i in range(100):
                event.store(b"x" * 5000, label=f"blob{i}")
        assert fabric.stats.dropped >= 1


def _addr(node: str) -> Address:
    return Address.parse(f"sm://{node}/x")


class TestFaultModels:
    def test_drop_fault_is_seeded_deterministic(self):
        a, b = _addr("a"), _addr("b")
        model1, model2 = DropFault(0.5, seed=42), DropFault(0.5, seed=42)
        seq1 = [model1.should_drop(a, b, 100) for _ in range(64)]
        seq2 = [model2.should_drop(a, b, 100) for _ in range(64)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)

    def test_drop_fault_node_filter(self):
        model = DropFault(1.0, dst="server")
        assert model.should_drop(_addr("client"), _addr("server"), 1)
        assert not model.should_drop(_addr("server"), _addr("client"), 1)

    def test_corruption_fault_mutates_exactly_one_byte(self):
        model = CorruptionFault(1.0, seed=7)
        payload = bytes(range(64))
        mutated = model.corrupt(_addr("a"), _addr("b"), payload)
        assert mutated is not None and mutated != payload
        assert len(mutated) == len(payload)
        assert sum(x != y for x, y in zip(payload, mutated)) == 1
        # Same seed, same payload sequence -> identical mutations.
        again = CorruptionFault(1.0, seed=7).corrupt(_addr("a"), _addr("b"),
                                                     payload)
        assert again == mutated

    def test_latency_fault_jitter_bounds(self):
        model = LatencyFault(0.1, jitter=0.5, seed=3)
        for _ in range(32):
            delay = model.latency(_addr("a"), _addr("b"), 1)
            assert 0.05 <= delay <= 0.15

    def test_partition_fault_groups(self):
        model = PartitionFault(group_a={"a"}, group_b={"b"})
        assert model.should_drop(_addr("a"), _addr("b"), 1)
        assert model.should_drop(_addr("b"), _addr("a"), 1)
        assert not model.should_drop(_addr("a"), _addr("c"), 1)

    def test_partition_fault_links(self):
        model = PartitionFault(links=[("a", "b")])
        assert model.should_drop(_addr("b"), _addr("a"), 1)
        assert not model.should_drop(_addr("a"), _addr("c"), 1)

    def test_partition_fault_needs_groups_or_links(self):
        with pytest.raises(ValueError):
            PartitionFault()

    def test_composed_model_combines(self):
        # A schedule of models with no window composes them: any drop
        # drops, latencies add, the first model that corrupts wins.
        model = FaultSchedule()
        for part in (DropFault(0.0), PartitionFault(links=[("a", "b")]),
                     LatencyFault(0.01), LatencyFault(0.02),
                     CorruptionFault(1.0, seed=1)):
            model.add(part)
        assert model.should_drop(_addr("a"), _addr("b"), 1)
        assert not model.should_drop(_addr("a"), _addr("c"), 1)
        assert model.latency(_addr("a"), _addr("c"), 1) == pytest.approx(0.03)
        assert model.corrupt(_addr("a"), _addr("c"), b"xyz") != b"xyz"


class TestRetryPolicy:
    def test_backoff_sequence_without_jitter(self):
        pauses = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.04,
                             multiplier=2.0, jitter=0.0, sleep=pauses.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise NetworkFailure("drop")

        with pytest.raises(NetworkFailure):
            policy.call(flaky)
        assert calls["n"] == 5
        # 0.01, 0.02, 0.04, then capped at max_delay.
        assert pauses == [0.01, 0.02, 0.04, 0.04]

    def test_deadline_gives_up_early(self):
        giveups = []
        policy = RetryPolicy(max_attempts=100, base_delay=10.0,
                             max_delay=10.0, jitter=0.0,
                             deadline=1.0, sleep=lambda s: None)
        with pytest.raises(NetworkFailure):
            policy.call(lambda: (_ for _ in ()).throw(NetworkFailure("x")),
                        on_giveup=lambda n, exc: giveups.append(n))
        # The first 10 s backoff already exceeds the 1 s deadline.
        assert giveups == [1]

    def test_non_retryable_errors_pass_through(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert calls["n"] == 1

    def test_from_retries_legacy_semantics(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        assert policy.max_attempts == 4
        assert policy.delay(0) == 0.0

    def test_config_round_trip(self):
        rebuilt = RetryPolicy.from_config({
            "max_attempts": 7, "base_delay": 0.002, "deadline": 5.0,
            "rpc_timeout": 0.5, "seed": 11})
        assert rebuilt.max_attempts == 7
        assert rebuilt.base_delay == 0.002
        assert rebuilt.deadline == 5.0
        assert rebuilt.rpc_timeout == 0.5
        again = RetryPolicy(max_attempts=7, base_delay=0.002, deadline=5.0,
                            rpc_timeout=0.5, seed=11)
        # ``seed`` survives: the jittered backoff replays exactly.
        assert [rebuilt.delay(n) for n in range(4)] == [
            again.delay(n) for n in range(4)]

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RetryPolicy.from_config({"max_attempts": 2, "typo": 1})


class TestTimeouts:
    def test_slow_handler_times_out(self):
        fabric = Fabric(threaded=True)
        server = Engine(fabric, "sm://server/0")

        def slow(req):
            time.sleep(0.5)
            return b"late"

        server.register("slow", slow)
        client = Engine(fabric, "sm://client/0")
        fabric.runtime.start()
        try:
            handle = client.create_handle("sm://server/0", "slow")
            with pytest.raises(RPCTimeout):
                handle.forward(b"", timeout=0.05)
            assert fabric.stats.timeouts == 1
        finally:
            fabric.runtime.shutdown()

    def test_inline_idle_deadlock_raises_rpc_timeout(self):
        """The old generic deadlock error is now a typed RPCTimeout."""
        fabric = Fabric(idle_timeout=0.1)
        with pytest.raises(RPCTimeout, match="idle"):
            fabric.wait(Eventual())  # nothing will ever satisfy it

    def test_explicit_timeout_in_inline_mode(self):
        fabric = Fabric(idle_timeout=60.0)
        with pytest.raises(RPCTimeout, match="no response"):
            fabric.wait(Eventual(), timeout=0.05)

    def test_rpc_timeout_is_retryable(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        calls = {"n": 0}

        def slow_then_fast():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RPCTimeout("no response within 0.020s")
            return "ok"

        assert policy.call(slow_then_fast) == "ok"


def _hepnos_world(fault_model=None, **config_kwargs):
    fabric = Fabric(fault_model=fault_model)
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        **config_kwargs,
    ))
    return fabric, server


def _split_product_world(fabric):
    """Listings and half the product shards on node0; the other product
    shard on node1, which a test partitions away."""
    return [
        BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=1, event_databases=2,
            product_databases=1, run_databases=1, subrun_databases=1)),
        BedrockServer(fabric, default_hepnos_config(
            "sm://node1/hepnos", num_providers=1, event_databases=0,
            product_databases=1, run_databases=0, subrun_databases=0,
            dataset_databases=0)),
    ]


class TestDegradation:
    def test_unreachable_page_raises_the_client_give_up(self):
        """The reader has no retry budget of its own: a page whose
        product shard is partitioned away fails the run with the
        client's give-up, after exactly the client policy's attempts."""
        fabric = Fabric()
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        datastore = DataStore.connect(
            fabric, _split_product_world(fabric), retry_policy=policy,
            product_cache=ProductCacheOptions(enabled=False))
        ds = datastore.create_dataset("unreachable")
        with WriteBatch(datastore) as batch:
            subrun = ds.create_run(1, batch=batch).create_subrun(0, batch=batch)
            for e in range(16):
                subrun.create_event(e, batch=batch).store(
                    float(e), label="x", batch=batch)

        fabric.fault_model = PartitionFault(group_a={"hepnos-client"},
                                            group_b={"node1"})
        pep = ParallelEventProcessor(datastore, products=[(float, "x")])
        seen = []
        with pytest.raises(NetworkFailure):
            pep.process(ds, seen.append)
        fabric.fault_model = FaultModel()
        assert seen == []
        # One page, one request to node1's product database: each of
        # the policy's attempts was dropped once, and nothing re-issued.
        assert fabric.stats.dropped == policy.max_attempts

    def test_reader_settles_what_it_abandons(self):
        """Regression: pages a reader abandoned stayed in the engine's
        window, so ``shutdown()`` raised NetworkFailure after the run."""
        fabric = Fabric()
        datastore = DataStore.connect(
            fabric, _split_product_world(fabric),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0,
                                     jitter=0.0),
            product_cache=ProductCacheOptions(enabled=False))
        engine = AsyncEngine(datastore, max_inflight=8)
        ds = datastore.create_dataset("abandoned")
        with WriteBatch(datastore) as batch:
            run = ds.create_run(1, batch=batch)
            for s in range(2):
                subrun = run.create_subrun(s, batch=batch)
                for e in range(24):
                    subrun.create_event(e, batch=batch).store(
                        float(e), label="x", batch=batch)
        options = PEPOptions(input_batch_size=8)

        # A consumer that stops early leaves nothing behind either.
        events = Prefetcher(datastore, options=options,
                            products=[(float, "x")]).events(subrun)
        assert next(events).load(float, label="x") == 0.0
        events.close()
        assert engine.outstanding == 0

        fabric.fault_model = PartitionFault(group_a={"hepnos-client"},
                                            group_b={"node1"})
        pep = ParallelEventProcessor(datastore, options=options,
                                     products=[(float, "x")])
        seen = []
        with pytest.raises(NetworkFailure):
            pep.process(ds, seen.append)
        assert seen == []
        assert engine.outstanding == 0
        datastore.shutdown()  # the partition is still up: nothing to trip on
        fabric.fault_model = FaultModel()

    def test_pep_raise_mode_propagates(self):
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        datastore = DataStore.connect(fabric, [server],
                                      retry_policy=RetryPolicy.none())
        ds = datastore.create_dataset("strict")
        subrun = ds.create_run(1).create_subrun(1)
        for e in range(5):
            subrun.create_event(e)
        fabric.fault_model = FlakyModel(1_000_000)
        pep = ParallelEventProcessor(datastore)
        with pytest.raises(NetworkFailure):
            pep.process(ds, lambda ev: None)
        fabric.fault_model = FaultModel()


class TestCrashRestart:
    def test_data_survives_crash_and_restart(self):
        fabric, server = _hepnos_world()
        datastore = DataStore.connect(fabric, [server],
                                      retry_policy=RetryPolicy.none())
        ds = datastore.create_dataset("durable")
        subrun = ds.create_run(1).create_subrun(1)
        for e in range(5):
            subrun.create_event(e)

        server.crash()
        with pytest.raises(AddressError):
            list(subrun)

        server.restart()
        datastore.reconnect(timeout=5.0)
        assert [ev.number for ev in subrun] == list(range(5))

    def test_retry_policy_masks_crash_window(self):
        fabric, server = _hepnos_world()
        datastore = DataStore.connect(fabric, [server])
        ds = datastore.create_dataset("masked")
        subrun = ds.create_run(1).create_subrun(1)
        subrun.create_event(0)
        # Crash and restart between two operations: the default policy's
        # backoff rides across the gap without the caller noticing.
        server.crash()
        server.restart()
        subrun.create_event(1)
        assert [ev.number for ev in subrun] == [0, 1]

    def test_restarting_server_is_dead_until_every_provider_is_up(
            self, monkeypatch):
        """A request racing a restart must see a dead address (which the
        retry policy rides out), never a live engine without handlers."""
        import repro.bedrock.server as bedrock_server

        fabric, server = _hepnos_world()
        datastore = DataStore.connect(fabric, [server],
                                      retry_policy=RetryPolicy.none())
        subrun = datastore.create_dataset("racy").create_run(1) \
                          .create_subrun(1)
        server.crash()
        real_provider = bedrock_server.YokanProvider
        seen = []

        def probing_provider(*args, **kwargs):
            # Stands in for a client on another thread, mid-restart.
            with pytest.raises(AddressError) as info:
                list(subrun)
            seen.append(info.value)
            return real_provider(*args, **kwargs)

        monkeypatch.setattr(bedrock_server, "YokanProvider",
                            probing_provider)
        server.restart()
        assert len(seen) == 2  # probed before each provider registered
        assert list(subrun) == []


class TestChaosHarness:
    """All four families of the scenario table, judged by one verdict."""

    def test_nova_chaos_run_matches_baseline(self):
        report = run_chaos("stock", seed=1)
        assert report.ok, report.summary()
        stock = report["stock"]
        assert stock.matches and stock.pending_actions == []
        fired = [name for _, name in stock.injected["schedule_log"]]
        assert any(name.startswith("crash") for name in fired)
        assert any(name.startswith("restart") for name in fired)
        # The spike window is sized to force at least one timeout.
        assert stock.injected["timeouts"] >= 1
        assert stock.injected["client_retries"] >= 1

    def test_rescale_chaos_selection_is_byte_identical(self):
        report = run_chaos("rescale", seed=2)
        assert report.ok, report.summary()
        assert report["single-shard-quiet"].matches
        grown = report["live-grow-under-chaos"]
        assert grown.matches and grown.pending_actions == []
        # The live grow really happened: one migration epoch + commit.
        assert grown.detail["final_epoch"] == 2
        assert grown.detail["keys_moved"] > 0
        assert (sum(grown.detail["moves_by_kind"].values())
                == grown.detail["keys_moved"])

    def test_durability_chaos_survives_every_state_loss(self):
        report = run_chaos("durability", seed=3, quick=True)
        assert report.ok, report.summary()
        assert [s.name for s in report.scenarios] == [
            "wal-replay-mid-write", "kill-during-checkpoint",
            "failover-resync", "kill-both-then-replay", "rescale-crash",
            "lsm-crash-mid-compaction"]
        assert all(s.ok for s in report.scenarios), report.summary()
        # Recovery really ran: log replay, a promoted backup, a re-sync.
        assert report["wal-replay-mid-write"].detail["replayed_records"] > 0
        assert report["failover-resync"].detail["failovers_activated"] > 0
        assert report["failover-resync"].detail["resynced_keys"] > 0

    def test_tenant_chaos_sheds_and_matches(self):
        report = run_chaos("tenants", seed=5, quick=True)
        assert report.ok, report.summary()
        # Admission control was load-bearing, not idle.
        assert report["metered-tenant"].detail["broker"]["shed"] > 0

    def test_run_returns_the_process_to_where_it_started(self, tmp_path,
                                                         monkeypatch):
        """No thread, descriptor or directory outlives a run."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        run_chaos("stock", seed=1)  # imports, lazy singletons
        threads = threading.active_count()
        descriptors = len(os.listdir("/proc/self/fd"))
        run_chaos("durability", seed=3, quick=True)
        assert threading.active_count() <= threads
        assert len(os.listdir("/proc/self/fd")) <= descriptors
        assert os.listdir(scratch) == []
        # A caller's workdir is the caller's to remove.
        mine = tmp_path / "mine"
        run_chaos("stock", seed=1, workdir=str(mine))
        assert (mine / "files").is_dir()

    def test_a_workdir_can_be_used_again(self, tmp_path):
        """The second run must not open the first one's logs and
        SSTables (it died with ``AddressError: no engine at ...``)."""
        for _ in range(2):
            report = run_chaos("durability", seed=3, quick=True,
                               workdir=str(tmp_path))
            assert report.ok, report.summary()

    def test_cli_exit_status_is_the_printed_verdict(self, capsys):
        from repro.tools import chaos_cli

        assert chaos_cli.main(["--seed", "7"]) == 0
        assert "MATCH" in capsys.readouterr().out
        # A crash window the run never reaches: the action never fires.
        assert chaos_cli.main(["--seed", "7", "--crash-window",
                               "100000:100001"]) == 1
        out = capsys.readouterr().out
        assert "MATCH" not in out and "NEVER FIRED" in out


class TestGiveupEnrichment:
    """The giveup path must say how hard it tried and keep the chain."""

    def test_exhausted_attempts_enriches_message_and_chains(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

        def flaky():
            err = NetworkFailure("drop")
            err.failed_address = "sm://node1/hepnos"
            raise err

        with pytest.raises(NetworkFailure) as info:
            policy.call(flaky)
        exc = info.value
        assert "drop" in str(exc)
        assert "gave up after 3 attempts" in str(exc)
        assert "attempts exhausted" in str(exc)
        assert isinstance(exc.__cause__, NetworkFailure)
        assert exc.__cause__ is not exc
        # Attributes stamped on the underlying failure (e.g. the
        # failover tags) must survive onto the raised exception.
        assert exc.failed_address == "sm://node1/hepnos"

    def test_deadline_giveup_names_the_deadline(self):
        policy = RetryPolicy(max_attempts=100, base_delay=10.0,
                             max_delay=10.0, jitter=0.0, deadline=0.5,
                             sleep=lambda s: None)
        with pytest.raises(RPCTimeout) as info:
            policy.call(lambda: (_ for _ in ()).throw(RPCTimeout("slow")))
        assert "deadline exceeded" in str(info.value)
        assert "gave up after 1 attempt" in str(info.value)
        assert isinstance(info.value.__cause__, RPCTimeout)

    def test_unreconstructible_exception_type_falls_back(self):
        class Weird(NetworkFailure):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        original = Weird("x", "y")
        with pytest.raises(Weird) as info:
            policy.call(lambda: (_ for _ in ()).throw(original))
        # Can't rebuild Weird from one message: the original is raised.
        assert info.value is original


class TestScheduleConcurrency:
    """One-shot schedule actions vs concurrent in-flight operations."""

    def test_one_shot_action_fires_once_and_may_reenter(self):
        from repro.faults import FaultSchedule

        schedule = FaultSchedule(seed=0)
        fired = []

        def action():
            fired.append(1)
            # Actions fire outside the schedule lock, so an action that
            # walks back into the fabric (as crash/restart does) -- here
            # modelled by re-entering should_drop -- must not deadlock.
            schedule.should_drop(None, None, 0)

        schedule.at(50, action, "reentrant")
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(100):
                schedule.should_drop(None, None, 0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert fired == [1]
        assert schedule.pending_actions == []

    def test_crash_restart_races_inflight_ops(self):
        from repro.faults import FaultSchedule

        fabric, server = _hepnos_world()
        schedule = FaultSchedule(seed=3).crash_restart(
            server, crash_at=40, restart_at=80)
        datastore = DataStore.connect(
            fabric, [server],
            retry_policy=RetryPolicy(max_attempts=60, base_delay=0.001,
                                     max_delay=0.01, deadline=60.0,
                                     rpc_timeout=0.05))
        subrun = datastore.create_dataset("racy").create_run(1) \
                          .create_subrun(1)
        fabric.fault_model = schedule
        errors = []

        def writer(base):
            try:
                for i in range(25):
                    subrun.create_event(base + i)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in (0, 100, 200, 300)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        fabric.fault_model = FaultModel()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Both one-shot actions fired exactly once, and every write
        # issued concurrently with them landed.
        assert schedule.pending_actions == []
        assert [op for op, _ in schedule.log] == sorted(
            op for op, _ in schedule.log)
        expected = sorted(b + i for b in (0, 100, 200, 300)
                          for i in range(25))
        assert sorted(ev.number for ev in subrun) == expected
