"""AsyncEngine overlap: non-blocking prefetch vs blocking loads.

The paper's pipelining claim (section II-D): hiding store latency
behind per-event computation is where HEPnOS's speedup over file-based
processing comes from.  This bench builds the scenario the AsyncEngine
exists for -- a fabric with response latency (server -> client messages
sleep, as a congested NIC would) and a PEP whose handler does real
per-event work -- and measures one full pass three ways:

1. blocking loads (no AsyncEngine): every page's load plan stalls the
   reader for the injected latency;
2. pipelined loads (AsyncEngine): page N+1's per-shard requests are in
   flight while page N's events are processed, so latency hides behind
   compute (``PEPStatistics.overlap_seconds`` records how much);
3. blocking loads on a clean fabric with and without the async layer
   importable on the path -- the "you don't pay for what you don't
   use" check.

Acceptance: async/sync throughput ratio >= 1.25x under latency, <2%
overhead without an engine (asserted with noise headroom; printed
numbers are the real measurement).
"""

import time

import pytest

from repro.hepnos import (
    AsyncEngine,
    ParallelEventProcessor,
    PEPOptions,
    WriteBatch,
    vector_of,
)
from repro.mercury.fabric import FaultModel
from repro.serial import serializable

N_SUBRUNS = 4
N_EVENTS = 256  # total, spread over the subruns
INPUT_BATCH = 32
RESPONSE_LATENCY = 0.002  # seconds, server -> client messages only
COMPUTE_SECONDS = 80e-6  # per-event handler busy time


@serializable("bench.OverlapHit")
class OverlapHit:
    def __init__(self, e=0.0):
        self.e = e

    def serialize(self, ar):
        self.e = ar.io(self.e)


class ResponseLatency(FaultModel):
    """Delay only server -> client traffic.

    Request-path latency is paid synchronously at issue time (the
    client thread sleeps inside ``iforward``), so only the response leg
    models latency an asynchronous client can actually hide.
    """

    def __init__(self, server_nodes, delay):
        self.server_nodes = frozenset(server_nodes)
        self.delay = delay

    def latency(self, src, dst, nbytes):
        if src.node in self.server_nodes and dst.node not in self.server_nodes:
            return self.delay
        return 0.0


@pytest.fixture()
def dataset(datastore):
    ds = datastore.create_dataset("bench/async-overlap")
    with WriteBatch(datastore) as batch:
        run = ds.create_run(1, batch=batch)
        for s in range(N_SUBRUNS):
            subrun = run.create_subrun(s, batch=batch)
            for e in range(N_EVENTS // N_SUBRUNS):
                event = subrun.create_event(e, batch=batch)
                event.store([OverlapHit(float(e))], label="hits",
                            batch=batch)
    return ds


def _pep_pass(datastore, dataset, async_engine=None):
    pep = ParallelEventProcessor(
        datastore,
        options=PEPOptions(input_batch_size=INPUT_BATCH),
        products=[(vector_of(OverlapHit), "hits")],
        async_engine=async_engine,
    )
    count = {"n": 0}

    def handle(event):
        count["n"] += 1
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < COMPUTE_SECONDS:
            pass  # the analysis cut the latency should hide behind

    stats = pep.process(dataset, handle)
    assert count["n"] == N_EVENTS
    return stats


def _timed_pass(datastore, dataset, async_engine=None, rounds=3):
    best, stats = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        stats = _pep_pass(datastore, dataset, async_engine=async_engine)
        best = min(best, time.perf_counter() - t0)
    return best, stats


def test_async_pipeline_hides_response_latency(benchmark, fabric, datastore,
                                               dataset):
    """>= 1.25x PEP throughput with the AsyncEngine under latency."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _pep_pass(datastore, dataset)  # warm-up, clean fabric

    server_nodes = {a.node for a in fabric.addresses
                    if a.node.startswith("node")}
    fabric.fault_model = ResponseLatency(server_nodes, RESPONSE_LATENCY)
    try:
        sync_time, _ = _timed_pass(datastore, dataset)
        engine = AsyncEngine(max_inflight=8)
        async_time, stats = _timed_pass(datastore, dataset,
                                        async_engine=engine)
        engine.drain(raise_errors=True)
    finally:
        fabric.fault_model = FaultModel()

    speedup = sync_time / async_time
    print(f"\n[overlap] blocking: {sync_time * 1e3:.0f}ms/pass, "
          f"pipelined: {async_time * 1e3:.0f}ms/pass "
          f"({speedup:.2f}x, {stats.overlap_seconds * 1e3:.0f}ms of load "
          f"latency hidden, {stats.prefetch_wait_seconds * 1e3:.0f}ms "
          "still exposed)")
    assert stats.overlap_seconds > 0.0  # the pipeline actually overlapped
    assert speedup >= 1.25


def test_no_engine_overhead_is_noise(benchmark, datastore, dataset):
    """The async layer costs ~nothing when no AsyncEngine is attached.

    Target is <2%; asserted with generous noise headroom (same
    convention as bench_fault_overhead) so CI stays stable.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _pep_pass(datastore, dataset)  # warm-up

    with_options, _ = _timed_pass(datastore, dataset)

    def baseline_pass():
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=INPUT_BATCH),
            products=[(vector_of(OverlapHit), "hits")],
        )
        count = {"n": 0}

        def handle(event):
            count["n"] += 1
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < COMPUTE_SECONDS:
                pass

        pep.process(dataset, handle)
        assert count["n"] == N_EVENTS

    best_baseline = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        baseline_pass()
        best_baseline = min(best_baseline, time.perf_counter() - t0)

    overhead = with_options / best_baseline - 1
    print(f"\n[no-engine] baseline: {best_baseline * 1e3:.0f}ms/pass, "
          f"options path: {with_options * 1e3:.0f}ms/pass "
          f"(+{overhead * 100:.1f}%)")
    assert with_options < best_baseline * 1.25
