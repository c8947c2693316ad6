#!/usr/bin/env python
"""Model study: provider scaling curves under a sleep-based ServiceTimeModel.

Measures how ingest and read throughput grow as Yokan providers are
added (the paper's figures 2 and 6 shape, on the in-process service).
The loopback fabric serves RPCs on Python threads, so raw CPU work
cannot scale past the GIL; instead a :class:`ServiceTimeModel` charges
every server time proportional to the bytes it handles, *slept on the
server's own response path*.  Sleeps release the GIL, so the model
turns provider count into genuine parallel capacity and the curves
measure the client's ability to keep N shards busy:

- **ingest**: :class:`AsynchronousWriteBatch` fan-out -- one in-flight
  ``put_multi`` per shard;
- **read**: a :class:`ParallelEventProcessor` pass with packed loads --
  the datastore fans one ``load_prefix_packed`` per shard out of every
  event page (products place by event key, so a page spans shards).

Both phases also verify content: the read pass must see every ingested
event with identical payload digests across all provider counts.

Exit status is nonzero if a throughput curve fails the monotonic gate::

    PYTHONPATH=src python benchmarks/bench_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_scaling.py --providers 1,2,4,8
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Optional, Sequence

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import (
    AsynchronousWriteBatch,
    DataStore,
    ParallelEventProcessor,
    PEPOptions,
    ProductCacheOptions,
    vector_of,
)
from repro.mercury import Fabric
from repro.mercury.fabric import FaultModel
from repro.nova.datamodel import EventHeader, SliceData
from repro.nova.generator import COSMIC, NovaGenerator
from repro.serial import dumps

QUICK = dict(providers=(1, 2), events=256, subruns=8, rounds=1)
COMMITTED = dict(providers=(1, 2, 4), events=512, subruns=16, rounds=2)
FULL = dict(providers=(1, 2, 4, 8), events=1024, subruns=32, rounds=2)

#: modeled server cost: seconds per byte handled + per response sent.
PER_BYTE = 1e-6  # ~1 MB/s per provider: the model, not the machine
FLAT = 0.0002


class ServiceTimeModel(FaultModel):
    """Charge servers service time for the bytes they handle.

    Request bytes arriving at a server accumulate in a per-node inbox;
    when that server *sends* (its response, or a bulk push), the inbox
    drains and the send is delayed by ``flat + per_byte * (drained +
    sent)``.  The delay is slept by the sending server's own thread, so
    one node's work serializes on its threads while other nodes proceed
    -- provider count becomes real capacity despite the GIL.
    """

    def __init__(self, server_nodes, per_byte: float = PER_BYTE,
                 flat: float = FLAT):
        self.server_nodes = set(server_nodes)
        self.per_byte = per_byte
        self.flat = flat
        self._inbox: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def latency(self, src, dst, nbytes: int) -> float:
        server_src = src.node in self.server_nodes
        server_dst = dst.node in self.server_nodes
        if server_dst and not server_src:
            with self._lock:
                self._inbox[dst.node] += nbytes
            return 0.0
        if server_src and not server_dst:
            with self._lock:
                pending = self._inbox.pop(src.node, 0)
            return self.flat + (pending + nbytes) * self.per_byte
        return 0.0


def _deploy(fabric: Fabric, providers: int) -> list:
    """One server per simulated node, one database of each kind each."""
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://shard{i}/hepnos", num_providers=1, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
            dataset_databases=1,
        ))
        for i in range(providers)
    ]
    fabric.runtime.start()
    return servers


def _ingest(datastore: DataStore, events: int, subruns: int) -> float:
    """Timed: write ``events`` events (slices + header) across
    ``subruns`` subruns through an asynchronous batch."""
    generator = NovaGenerator(COSMIC)
    ds = datastore.create_dataset("bench/scaling")
    t0 = time.perf_counter()
    with AsynchronousWriteBatch(datastore, flush_threshold=128) as batch:
        run = ds.create_run(1, batch=batch)
        for s in range(subruns):
            subrun = run.create_subrun(s, batch=batch)
            for e in range(events // subruns):
                event = subrun.create_event(e, batch=batch)
                event.store(generator.slices_for_event(1, s, e), label="s",
                            batch=batch)
                event.store(generator.header_for_event(1, s, e), label="h",
                            batch=batch)
    return time.perf_counter() - t0


def _read_pass(datastore: DataStore) -> tuple[float, bytes]:
    """Timed PEP pass over the ingested dataset; returns (seconds,
    content digest) so runs are comparable across shard counts."""
    pep = ParallelEventProcessor(
        datastore,
        options=PEPOptions(input_batch_size=64, dispatch_batch_size=8,
                           packed_loads=True),
        products=[(vector_of(SliceData), "s"), (EventHeader, "h")],
    )
    seen: list = []

    def probe(event) -> None:
        slices = event.load(vector_of(SliceData), label="s")
        seen.append((event.triple(), len(slices)))

    t0 = time.perf_counter()
    pep.process(datastore["bench/scaling"], probe)
    elapsed = time.perf_counter() - t0
    return elapsed, dumps(sorted(seen))


def _one_topology(providers: int, events: int, subruns: int,
                  rounds: int) -> dict:
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric, providers)
    try:
        datastore = DataStore.connect(
            fabric, servers,
            product_cache=ProductCacheOptions(enabled=False),
        )
        fabric.fault_model = ServiceTimeModel(
            [server.address.node for server in servers])
        ingest_s = _ingest(datastore, events, subruns)
        best_read, digest = float("inf"), b""
        for _ in range(rounds):
            read_s, digest = _read_pass(datastore)
            best_read = min(best_read, read_s)
        shard_epoch = datastore.placement.epoch
    finally:
        fabric.fault_model = FaultModel()
        fabric.runtime.shutdown()
    return {
        "providers": providers,
        "ingest_s": ingest_s,
        "ingest_events_per_s": events / ingest_s,
        "read_s": best_read,
        "read_events_per_s": events / best_read,
        "events": events,
        "digest": digest,
        "epoch": shard_epoch,
    }


def run_scaling(params: dict,
                providers: Optional[Sequence[int]] = None) -> dict:
    """Strong scaling (fixed events) + weak scaling (events per
    provider fixed) across the provider counts."""
    counts = list(providers or params["providers"])
    strong, weak = [], []
    digests = set()
    for count in counts:
        point = _one_topology(count, params["events"], params["subruns"],
                              params["rounds"])
        digests.add(point.pop("digest"))
        print(f"[strong] {count} provider(s): "
              f"ingest {point['ingest_events_per_s']:.0f} ev/s, "
              f"read {point['read_events_per_s']:.0f} ev/s")
        strong.append(point)
    for count in counts:
        point = _one_topology(count, params["events"] * count,
                              params["subruns"] * count, params["rounds"])
        point.pop("digest")
        point["efficiency"] = (point["ingest_events_per_s"]
                               / max(strong[0]["ingest_events_per_s"], 1e-9)
                               / count)
        print(f"[weak]   {count} provider(s) x {params['events']} events: "
              f"ingest {point['ingest_events_per_s']:.0f} ev/s")
        weak.append(point)
    identical = len(digests) == 1
    print(f"[parity] read digests identical across "
          f"{counts} providers: {identical}")
    return {
        "providers": counts,
        "events": params["events"],
        "per_byte_model": PER_BYTE,
        "strong": strong,
        "weak": weak,
        "content_identical": identical,
    }


def evaluate_gates(results: dict) -> list:
    """Monotonic throughput up to 4 providers, identical content."""
    failures = []
    if not results["content_identical"]:
        failures.append("scaling: read content differs across shard counts")
    gated = [p for p in results["strong"] if p["providers"] <= 4]
    for metric in ("ingest_events_per_s", "read_events_per_s"):
        series = [(p["providers"], p[metric]) for p in gated]
        for (n0, v0), (n1, v1) in zip(series, series[1:]):
            if v1 <= v0:
                failures.append(
                    f"scaling/{metric}: {n1} providers ({v1:.0f} ev/s) "
                    f"not faster than {n0} ({v0:.0f} ev/s)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure ingest/read throughput scaling across "
                    "provider counts and gate on monotonic growth.")
    parser.add_argument("--quick", action="store_true",
                        help="2 provider counts, small corpus (CI smoke)")
    parser.add_argument("--full", action="store_true",
                        help="scale out to 8 providers")
    parser.add_argument("--providers", default=None,
                        help="comma-separated provider counts "
                             "(overrides the mode's default)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)

    params = QUICK if args.quick else (FULL if args.full else COMMITTED)
    providers = None
    if args.providers:
        providers = [int(part) for part in args.providers.split(",")]
    results = run_scaling(params, providers)
    failures = evaluate_gates(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("all scaling gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
