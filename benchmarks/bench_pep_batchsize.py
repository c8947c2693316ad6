"""Paper ablation (counts) + model study: A-pep, PEP batch-size tuning.

The paper's configuration (section IV-D) loads events in input batches
of 16384 ("fewer RPCs but with a large data transfer payload") and
shares them in dispatch batches of 64 ("fine-grain load-balancing").
This bench sweeps both knobs:

- on the real stack: RPC count vs input batch size;
- on the simulator: 256-node throughput vs dispatch batch size, showing
  the load-balance / overhead trade-off around the paper's 64.
"""

import pytest

from repro.hepnos import (
    ParallelEventProcessor,
    PEPOptions,
    WriteBatch,
    vector_of,
)
from repro.perf import HEPnOSModel, HEPnOSParams, LARGE
from repro.serial import serializable

N_EVENTS = 600


@serializable("bench.PepSlice")
class PepSlice:
    def __init__(self, sid=0):
        self.sid = sid

    def serialize(self, ar):
        self.sid = ar.io(self.sid)


@pytest.fixture()
def dataset(datastore):
    ds = datastore.create_dataset("bench/pep")
    with WriteBatch(datastore) as batch:
        run = ds.create_run(1, batch=batch)
        for s in range(4):
            subrun = run.create_subrun(s, batch=batch)
            for e in range(N_EVENTS // 4):
                event = subrun.create_event(e, batch=batch)
                event.store([PepSlice(s * 1000 + e)], label="s", batch=batch)
    return ds


@pytest.mark.parametrize("input_batch", [16, 64, 256])
def test_input_batch_size_rpcs(benchmark, datastore, fabric, dataset,
                               input_batch):
    def run():
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=input_batch),
            products=[(vector_of(PepSlice), "s")],
        )
        count = {"n": 0}
        pep.process(dataset, lambda ev: count.__setitem__("n", count["n"] + 1))
        return count["n"]

    fabric.stats.reset()
    processed = benchmark.pedantic(run, rounds=2, iterations=1)
    rpcs = fabric.stats.rpc_count / 2
    print(f"\n[input_batch={input_batch}] RPCs per pass: {rpcs:.0f} "
          f"({rpcs / N_EVENTS:.3f}/event)")
    assert processed == N_EVENTS


def test_bigger_input_batches_fewer_rpcs(benchmark, datastore, fabric, dataset):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    costs = {}
    for input_batch in (16, 256):
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=input_batch),
            products=[(vector_of(PepSlice), "s")],
        )
        fabric.stats.reset()
        pep.process(dataset, lambda ev: None)
        costs[input_batch] = fabric.stats.rpc_count
    print(f"\nRPCs: batch=16 -> {costs[16]}, batch=256 -> {costs[256]}")
    assert costs[256] < costs[16] / 3


@pytest.mark.parametrize("dispatch", [4, 64, 4096])
def test_dispatch_batch_throughput_sim(benchmark, dispatch):
    """Simulator: dispatch-batch sweep at 256 nodes (paper tuned to 64)."""

    def run():
        params = HEPnOSParams(dispatch_batch_size=dispatch)
        model = HEPnOSModel(params)
        return model.simulate(256, LARGE.scaled(0.25), backend="map")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[dispatch={dispatch}] simulated 256-node throughput: "
          f"{result.throughput:,.0f} slices/s")


def test_dispatch_sweet_spot_sim(benchmark):
    """Tiny dispatch batches pay queue overhead; huge ones imbalance."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    throughputs = {}
    for dispatch in (64, 16384):
        params = HEPnOSParams(dispatch_batch_size=dispatch)
        result = HEPnOSModel(params).simulate(256, LARGE.scaled(0.25),
                                              backend="map")
        throughputs[dispatch] = result.throughput
    print(f"\nsimulated throughput: dispatch=64 -> "
          f"{throughputs[64]:,.0f}, dispatch=16384 -> "
          f"{throughputs[16384]:,.0f}")
    # Whole-input-batch dispatch (16384) loses fine-grained balancing.
    assert throughputs[64] > throughputs[16384]
