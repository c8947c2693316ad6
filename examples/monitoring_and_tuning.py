#!/usr/bin/env python
"""Monitoring-driven optimization, then autotuning (paper section V).

Re-enacts the development story the paper tells: monitoring [5]
diagnosed early performance problems (per-item RPCs), which led to the
batching optimizations; autotuning [6] then selected the deployed
configuration.

1. run a *naive* ingest loop and let the diagnostics flag it;
2. apply the recommendation (WriteBatch) and show the report go clean;
3. autotune the service configuration on the simulator and compare
   against the paper's hand-tuned values.

The diagnostics read the fabric's traffic counters and the trace of
each phase.  The script exits non-zero unless the naive loop is flagged
``chatty-client`` and the WriteBatch loop is not.

Run:  python examples/monitoring_and_tuning.py
"""

import sys

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore, WriteBatch
from repro.mercury import Fabric
from repro.monitor import diagnose, trace_session
from repro.perf.workload import LARGE
from repro.serial import serializable
from repro.tuning import hepnos_objective, tune_hepnos
from repro.tuning.objective import PAPER_CONFIG


@serializable("mt.Sample")
class Sample:
    def __init__(self, value=0.0):
        self.value = value

    def serialize(self, ar):
        self.value = ar.io(self.value)


def main():
    fabric = Fabric()
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=4, event_databases=4,
        product_databases=4, run_databases=2, subrun_databases=2,
    ))
    datastore = DataStore.connect(fabric, [server])

    with trace_session() as tracer:
        # -- 1. the naive application --------------------------------------
        fabric.stats.reset()
        ds = datastore.create_dataset("mt/naive")
        subrun = ds.create_run(1).create_subrun(1)
        for e in range(400):
            event = subrun.create_event(e)          # one RPC
            event.store(Sample(float(e)), label="s")  # another RPC
        naive = diagnose(fabric.stats, tracer.collector)
        print("diagnostics after the naive ingest loop:")
        print(naive)

        # -- 2. apply the recommendation -----------------------------------
        fabric.stats.reset()
        tracer.collector.clear()
        ds2 = datastore.create_dataset("mt/batched")
        with WriteBatch(datastore) as batch:
            subrun = ds2.create_run(1, batch=batch).create_subrun(
                1, batch=batch)
            for e in range(400):
                event = subrun.create_event(e, batch=batch)
                event.store(Sample(float(e)), label="s", batch=batch)
        batched = diagnose(fabric.stats, tracer.collector)
        print("\ndiagnostics after switching to WriteBatch:")
        print(batched)
        stats = fabric.stats
        print(f"(bytes per RPC rose to "
              f"{stats.total_bytes / max(stats.rpc_count, 1):,.0f})")
    if not naive.has("chatty-client") or batched.has("chatty-client"):
        sys.exit("diagnose missed the chatty naive loop or flagged the "
                 "batched one")

    # -- 3. autotune the deployment -----------------------------------------
    print("\nautotuning 25 configurations at 64 simulated nodes...")
    dataset = LARGE.scaled(1 / 32)
    result = tune_hepnos(nodes=64, dataset=dataset, budget=25, seed=1)
    paper = hepnos_objective(PAPER_CONFIG, nodes=64, dataset=dataset)
    print(f"paper configuration: {paper:,.0f} slices/s (simulated)")
    print(f"tuned best:          {result.best_score:,.0f} slices/s "
          f"({result.best_score / paper - 1:+.1%})")
    for key, value in sorted(result.best_config.items()):
        note = "" if PAPER_CONFIG[key] == value else \
            f"   <- changed (paper: {PAPER_CONFIG[key]})"
        print(f"  {key} = {value}{note}")


if __name__ == "__main__":
    main()
