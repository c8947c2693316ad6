"""Parked on benchmark letter (d): AsyncEngine overlap, pipelined vs blocking loads.

The paper's pipelining claim (section II-D): hiding store latency
behind per-event computation is where HEPnOS's speedup over file-based
processing comes from.  This bench builds the scenario the AsyncEngine
exists for -- a fabric with response latency (server -> client messages
sleep, as a congested NIC would) and a PEP whose handler does real
per-event work -- and times one full pass two ways:

1. blocking loads (no AsyncEngine): every page's load plan stalls the
   reader for the injected latency;
2. pipelined loads (AsyncEngine): page N+1's per-shard requests are in
   flight while page N's events are processed, so latency hides behind
   compute (``PEPStatistics.overlap_seconds`` records how much).

The pipelined/blocking ratio is printed, not gated: whether the
AsyncEngine pays for itself is decided by the ``benchmark`` PR that
adds a response-latency workload to ``benchmarks/e2e`` (ROADMAP, letter
(d)), not by tuning this file's constants until a threshold passes.
That the loads go through the engine's window and overlap at all is
tier-1 (``test_pep_pass_goes_through_the_window`` in
``tests/test_async_engine.py``).
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


def _pep_pass(datastore, dataset):
    """One full pass; pipelined iff the datastore has an engine attached."""
    pep = ParallelEventProcessor(
        datastore,
        options=PEPOptions(input_batch_size=INPUT_BATCH),
        products=[(vector_of(OverlapHit), "hits")],
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


def _timed_pass(datastore, dataset, rounds=3):
    best, stats = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        stats = _pep_pass(datastore, dataset)
        best = min(best, time.perf_counter() - t0)
    return best, stats


def test_async_pipeline_overlaps_response_latency(benchmark, fabric,
                                                  datastore, dataset):
    """With an engine attached, page N+1 is on the wire during page N."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _pep_pass(datastore, dataset)  # warm-up, clean fabric

    server_nodes = {a.node for a in fabric.addresses
                    if a.node.startswith("node")}
    fabric.fault_model = ResponseLatency(server_nodes, RESPONSE_LATENCY)
    try:
        sync_time, _ = _timed_pass(datastore, dataset)
        engine = AsyncEngine(datastore, max_inflight=8)
        async_time, stats = _timed_pass(datastore, dataset)
        engine.drain(raise_errors=True)
    finally:
        fabric.fault_model = FaultModel()

    print(f"\n[overlap] blocking: {sync_time * 1e3:.0f}ms/pass, "
          f"pipelined: {async_time * 1e3:.0f}ms/pass "
          f"({sync_time / async_time:.2f}x, "
          f"{stats.overlap_seconds * 1e3:.0f}ms of load "
          f"latency hidden, {stats.prefetch_wait_seconds * 1e3:.0f}ms "
          "still exposed)")
