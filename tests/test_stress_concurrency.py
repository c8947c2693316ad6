"""Concurrency stress: many MPI client threads against one service.

Exercises the thread-safety of the threaded fabric, pools, eventuals,
and the shared DataStore under mixed concurrent operations.
"""

import random
import threading

import pytest

from repro.errors import KeyNotFound
from repro.faults import (
    CorruptionFault,
    DropFault,
    FaultSchedule,
    LatencyFault,
    RetryPolicy,
)
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import WriteBatch, vector_of
from repro.mercury import Engine, Fabric
from repro.minimpi import SUM, mpirun
from repro.monitor import MetricRegistry
from repro.serial import serializable
from repro.yokan import MemoryBackend, YokanClient, YokanProvider


@serializable("stress.Item")
class Item:
    def __init__(self, value=0):
        self.value = value

    def serialize(self, ar):
        self.value = ar.io(self.value)

    def __eq__(self, other):
        return self.value == other.value


class TestConcurrentClients:
    def test_disjoint_writers(self, datastore):
        """Each rank owns a run; all write concurrently."""

        def body(comm):
            ds = datastore.create_dataset("stress/disjoint")
            with WriteBatch(datastore) as batch:
                subrun = ds.create_run(comm.rank, batch=batch) \
                           .create_subrun(0, batch=batch)
                for e in range(40):
                    event = subrun.create_event(e, batch=batch)
                    event.store(Item(comm.rank * 1000 + e), label="i",
                                batch=batch)
            return comm.rank

        mpirun(body, 6, timeout=300.0)
        ds = datastore["stress/disjoint"]
        assert [r.number for r in ds] == list(range(6))
        for run in ds:
            events = list(run[0])
            assert len(events) == 40
            assert events[7].load(Item, label="i") == Item(
                run.number * 1000 + 7
            )

    def test_concurrent_readers_one_writer(self, datastore):
        ds = datastore.create_dataset("stress/rw")
        with WriteBatch(datastore) as batch:
            subrun = ds.create_run(1, batch=batch).create_subrun(0,
                                                                 batch=batch)
            for e in range(50):
                subrun.create_event(e, batch=batch) \
                      .store(Item(e), label="i", batch=batch)

        def body(comm):
            if comm.rank == 0:
                # The writer appends a new subrun while readers scan.
                subrun2 = ds[1].create_subrun(1)
                for e in range(20):
                    subrun2.create_event(e)
                total = -1
            else:
                total = 0
                for event in ds[1][0]:
                    total += event.load(Item, label="i").value
            return comm.allreduce(1, op=SUM) and total

        results = mpirun(body, 5, timeout=300.0)
        expected = sum(range(50))
        assert all(r == expected for r in results[1:])
        assert sum(1 for _ in ds[1][1]) == 20

    def test_same_container_idempotent_creates(self, datastore):
        """All ranks create the SAME containers concurrently; creation
        is an idempotent key insert, so the result is one container."""

        def body(comm):
            ds = datastore.create_dataset("stress/same")
            run = ds.create_run(5)
            subrun = run.create_subrun(5)
            subrun.create_event(comm.rank)
            return ds.uuid

        results = mpirun(body, 8, timeout=300.0)
        assert len(set(results)) == 1  # one dataset identity
        events = [e.number for e in datastore["stress/same"][5][5]]
        assert events == list(range(8))

    def test_mixed_batched_and_direct(self, datastore):
        barrier = threading.Barrier(4)

        def body(comm):
            ds = datastore.create_dataset("stress/mixed")
            barrier.wait(timeout=60)
            if comm.rank % 2 == 0:
                with WriteBatch(datastore) as batch:
                    subrun = ds.create_run(comm.rank, batch=batch) \
                               .create_subrun(0, batch=batch)
                    for e in range(25):
                        subrun.create_event(e, batch=batch)
            else:
                subrun = ds.create_run(comm.rank).create_subrun(0)
                for e in range(25):
                    subrun.create_event(e)
            return sum(1 for _ in ds[comm.rank][0])

        results = mpirun(body, 4, timeout=300.0)
        assert results == [25, 25, 25, 25]

    def test_bulk_storm(self, datastore):
        """Concurrent large-value bulk transfers from several ranks."""

        def body(comm):
            ds = datastore.create_dataset("stress/bulk")
            subrun = ds.create_run(comm.rank).create_subrun(0)
            event = subrun.create_event(0)
            payload = bytes([comm.rank]) * 60_000
            event.store(payload, label="blob")
            return len(event.load(bytes, label="blob"))

        results = mpirun(body, 5, timeout=300.0)
        assert results == [60_000] * 5
        for rank in range(5):
            blob = datastore["stress/bulk"][rank][0][0].load(bytes,
                                                             label="blob")
            assert blob == bytes([rank]) * 60_000


class CountingFaults(FaultSchedule):
    """A seeded drop + corrupt + delay mix that tallies what it injects
    (under a lock: four clients and two xstreams call it at once)."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.add(DropFault(0.03, seed=seed))
        self.add(CorruptionFault(0.03, seed=seed + 1))
        self.add(LatencyFault(0.00002, dst="server0"))
        self._tally_lock = threading.Lock()
        self.tally = {"drop": 0, "request_drop": 0, "corrupt": 0, "delay": 0}

    def _count(self, kind: str) -> None:
        with self._tally_lock:
            self.tally[kind] += 1

    def should_drop(self, src, dst, nbytes) -> bool:
        dropped = super().should_drop(src, dst, nbytes)
        if dropped:
            self._count("drop")
            if src.node.startswith("client"):
                self._count("request_drop")
        return dropped

    def latency(self, src, dst, nbytes) -> float:
        delay = super().latency(src, dst, nbytes)
        if delay > 0.0:
            self._count("delay")
        return delay

    def corrupt(self, src, dst, payload):
        mutated = super().corrupt(src, dst, payload)
        if mutated is not None:
            self._count("corrupt")
        return mutated


class TestHandOffUnderFaults:
    CLIENTS, OPS, ATTEMPTS = 4, 500, 6

    def test_point_rpcs_from_four_threads_under_a_fault_mix(self):
        """The client-thread <-> xstream hand-off under fire: every call
        gives the right answer or a typed retryable error once the
        policy's attempts are spent, the fabric counted exactly the
        attempts made and the faults injected, and nobody stays blocked."""
        threads_before = threading.active_count()
        model = CountingFaults(seed=21)
        fabric = Fabric(threaded=True, fault_model=model)
        for i in range(2):
            YokanProvider(Engine(fabric, f"sm://server{i}/0"), provider_id=1,
                          databases={"db": MemoryBackend()})
        fabric.runtime.start()
        metrics = MetricRegistry()
        policy = RetryPolicy(max_attempts=self.ATTEMPTS, base_delay=0.0,
                             jitter=0.0)
        calls, gave_up, wrong = [0] * self.CLIENTS, [0] * self.CLIENTS, []

        def client(rank: int) -> None:
            rng = random.Random(rank)
            yokan = YokanClient(Engine(fabric, f"sm://client{rank}/0"),
                                retry_policy=policy, metrics=metrics)
            dbs = [yokan.database_handle(f"sm://server{i}/0", 1, "db")
                   for i in range(2)]
            # key -> the values it may hold: one, or two after a put whose
            # every answer was lost (the put itself may have landed)
            held: dict = {}
            for n in range(self.OPS):
                key = b"%d/%d" % (rank, rng.randrange(40))
                db, verb = dbs[key[-1] % 2], rng.choice(("put", "get", "exists"))
                calls[rank] += 1
                try:
                    if verb == "put":
                        value = b"%d:%d" % (rank, n)
                        held[key] = held.get(key, {None}) | {value}
                        db.put(key, value)
                        held[key] = {value}
                    elif verb == "exists":
                        got = db.exists(key)
                        if got not in {v is not None
                                       for v in held.get(key, {None})}:
                            wrong.append((verb, key, got))
                    else:
                        try:
                            got = db.get(key)
                        except KeyNotFound:
                            got = None
                        if got not in held.get(key, {None}):
                            wrong.append((verb, key, got))
                except RETRYABLE_ERRORS as exc:
                    gave_up[rank] += 1
                    if f"gave up after {self.ATTEMPTS} attempts" not in str(exc):
                        wrong.append((verb, key, exc))

        workers = [threading.Thread(target=client, args=(rank,))
                   for rank in range(self.CLIENTS)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(120.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            fabric.runtime.shutdown()
        assert threading.active_count() == threads_before
        assert wrong == []
        assert sum(calls) == self.CLIENTS * self.OPS
        retries = metrics.counter("yokan.client.retries").value
        assert metrics.counter("yokan.client.giveups").value == sum(gave_up)
        # An attempt is a first try or a retry; one the fabric dropped on
        # the way out never became an RPC, every other did.
        attempts = sum(calls) + retries
        stats, tally = fabric.stats, model.tally
        assert retries > 0 and tally["drop"] > 0 and tally["corrupt"] > 0
        assert stats.rpc_count == attempts - tally["request_drop"]
        assert dict(stats.failures) == {
            kind: tally[kind] for kind in ("drop", "corrupt", "delay")}
        assert (stats.dropped, stats.corrupted, stats.delayed) == (
            tally["drop"], tally["corrupt"], tally["delay"])
