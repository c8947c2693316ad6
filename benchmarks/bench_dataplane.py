#!/usr/bin/env python
"""Data-plane fast-path benchmark and CI perf gate.

Compares the optimized data plane (compiled serializers, packed prefix
loads, client-side product cache) against the fallback path that
predates it (interpreted archive, per-key ``get_multi``, cache off).
Four measurements:

1. **Serialization micro**: encode+decode of a NOvA slice corpus with
   the compiled fast path vs the interpreted archive.
2. **PEP batch load**: a :class:`ParallelEventProcessor` pass over a
   slice dataset with a no-op user callback -- pure data plane
   (event listing, batch product loads, decode) -- fast configuration
   vs fallback configuration.
3. **Workflow identity** (untimed): full NOvA candidate selection
   (:class:`HEPnOSWorkflow`) under both configurations must accept the
   same candidates and serialize them to byte-identical output --
   fault-free AND under the seeded chaos schedule from the
   fault-injection subsystem.
4. **Product-cache disabled overhead**: repeated single-product load
   passes with the cache enabled (cleared per pass, so every probe
   misses) vs disabled; disabling the cache must cost <2% beyond
   measured run-to-run noise.

Exit status is nonzero if any gate fails, so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_dataplane.py --quick
    PYTHONPATH=src python benchmarks/bench_dataplane.py --json out.json

``--quick`` shrinks the corpus and gates speedups at 1.5x; the full
run gates at the 2x acceptance bound.  Printed numbers are the real
measurement either way (min over rounds).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Optional, Sequence

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.faults.chaos import (
    PEP_OPTIONS,
    STOCK_FAULTS,
    ChaosStage,
    build_schedule,
    chaos_client_policy,
    selection_bytes,
)
from repro.hepnos import (
    DataStore,
    ParallelEventProcessor,
    PEPOptions,
    ProductCacheOptions,
    WriteBatch,
    vector_of,
)
from repro.mercury import Fabric
from repro.nova.datamodel import EventHeader, SliceData
from repro.nova.files import generate_file_set
from repro.nova.generator import BEAM, COSMIC, GeneratorConfig, NovaGenerator
from repro.serial import dumps, fast_path, loads

QUICK = dict(serial_events=8, serial_rounds=3, pep_events=96, pep_rounds=2,
             cache_events=120, cache_rounds=6, wf_files=2, wf_events=24,
             speedup_gate=1.5)
FULL = dict(serial_events=48, serial_rounds=5, pep_events=256, pep_rounds=3,
            cache_events=300, cache_rounds=8, wf_files=3, wf_events=32,
            speedup_gate=2.0)
CACHE_OVERHEAD_GATE = 0.02


def _deploy(fabric: Fabric) -> list:
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        for i in range(2)
    ]
    fabric.runtime.start()
    return servers


def _slice_corpus(num_events: int) -> list:
    generator = NovaGenerator(BEAM)
    slices = []
    for e in range(num_events):
        slices.extend(generator.slices_for_event(1000, 0, e))
    return slices


def _fill_dataset(datastore: DataStore, path: str, num_events: int):
    """One subrun of ``num_events`` events, each holding a slice vector
    and a header (the ``rec.slc`` + ``rec.hdr`` pair a selection reads).

    Uses the cosmic stream (12x the beam slice rate) so product bytes,
    not container machinery, dominate the pass.
    """
    generator = NovaGenerator(COSMIC)
    ds = datastore.create_dataset(path)
    with WriteBatch(datastore) as batch:
        run = ds.create_run(1, batch=batch)
        subrun = run.create_subrun(0, batch=batch)
        for e in range(num_events):
            event = subrun.create_event(e, batch=batch)
            event.store(generator.slices_for_event(1, 0, e), label="s",
                        batch=batch)
            event.store(generator.header_for_event(1, 0, e), label="h",
                        batch=batch)
    return ds


# -- 1. serialization micro --------------------------------------------------


def bench_serialization(params: dict) -> dict:
    slices = _slice_corpus(params["serial_events"])
    blob_len = len(dumps(slices))

    def roundtrip() -> None:
        out = loads(dumps(slices))
        assert len(out) == len(slices)

    def timed(enabled: bool) -> float:
        best = float("inf")
        with fast_path(enabled):
            roundtrip()  # warm-up (and compile, on the fast side)
            for _ in range(params["serial_rounds"]):
                t0 = time.perf_counter()
                roundtrip()
                best = min(best, time.perf_counter() - t0)
        return best

    slow = timed(False)
    fast = timed(True)
    speedup = slow / fast
    print(f"[serialization] {len(slices)} slices, {blob_len} bytes/pass: "
          f"interpreted {slow * 1e3:.1f}ms, compiled {fast * 1e3:.1f}ms "
          f"({speedup:.2f}x)")
    return {
        "ops_per_s": len(slices) / fast,
        "bytes_per_s": 2 * blob_len / fast,  # encoded + decoded
        "fast_s": fast,
        "fallback_s": slow,
        "speedup": speedup,
        "objects": len(slices),
        "bytes_per_pass": blob_len,
    }


# -- 2. PEP batch load -------------------------------------------------------


def _pep_pass(datastore: DataStore, dataset, packed: bool) -> int:
    pep = ParallelEventProcessor(
        datastore,
        options=PEPOptions(input_batch_size=64, dispatch_batch_size=8,
                           packed_loads=packed),
        products=[(vector_of(SliceData), "s"), (EventHeader, "h")],
    )
    count = {"n": 0}
    pep.process(dataset, lambda ev: count.__setitem__("n", count["n"] + 1))
    return count["n"]


def bench_pep_batch_load(params: dict) -> dict:
    num_events = params["pep_events"]

    def timed(enabled: bool) -> tuple:
        fabric = Fabric(threaded=True)
        servers = _deploy(fabric)
        try:
            datastore = DataStore.connect(
                fabric, servers,
                product_cache=ProductCacheOptions(enabled=enabled),
            )
            with fast_path(enabled):
                dataset = _fill_dataset(datastore, "bench/pep", num_events)
                assert _pep_pass(datastore, dataset, packed=enabled) \
                    == num_events  # warm-up
                best, best_bytes = float("inf"), 0
                for _ in range(params["pep_rounds"]):
                    stats = fabric.stats
                    bytes0 = (stats.rpc_bytes + stats.response_bytes
                              + stats.bulk_bytes)
                    t0 = time.perf_counter()
                    processed = _pep_pass(datastore, dataset, packed=enabled)
                    elapsed = time.perf_counter() - t0
                    assert processed == num_events
                    moved = (stats.rpc_bytes + stats.response_bytes
                             + stats.bulk_bytes) - bytes0
                    if elapsed < best:
                        best, best_bytes = elapsed, moved
            return best, best_bytes
        finally:
            fabric.runtime.shutdown()

    slow, _ = timed(False)
    fast, fast_bytes = timed(True)
    speedup = slow / fast
    print(f"[pep-batch-load] {num_events} events: per-key/interpreted "
          f"{slow * 1e3:.1f}ms, packed/compiled {fast * 1e3:.1f}ms "
          f"({speedup:.2f}x, {fast_bytes / fast / 1e6:.1f} MB/s on the "
          f"wire)")
    return {
        "ops_per_s": num_events / fast,
        "bytes_per_s": fast_bytes / fast,
        "fast_s": fast,
        "fallback_s": slow,
        "speedup": speedup,
        "events": num_events,
    }


# -- 3. workflow identity (fault-free + chaos) -------------------------------


def _run_workflow(sample_paths: Sequence[str], enabled: bool,
                  chaos_seed: Optional[int] = None) -> bytes:
    """Ingest + select under one configuration; return the accepted-id
    blob serialized by that configuration's own archive path."""
    chaos = chaos_seed is not None
    with ChaosStage(
            sample_paths,
            retry_policy=chaos_client_policy() if chaos else None,
            pep_options=replace(PEP_OPTIONS, packed_loads=enabled),
            product_cache=ProductCacheOptions(enabled=enabled),
    ) as stage, fast_path(enabled):
        stage.ingest()
        with stage.faults(build_schedule(
                chaos_seed, stage.servers,
                **dict(STOCK_FAULTS, spike_window=(40, 44))
        )) if chaos else nullcontext():
            return selection_bytes(stage.select())


def check_workflow_identity(params: dict, seed: int, workdir: str) -> dict:
    sample = generate_file_set(
        f"{workdir}/files", num_files=params["wf_files"],
        mean_events_per_file=params["wf_events"],
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                               subruns_per_run=4),
    )
    blobs = {
        "fast": _run_workflow(sample.paths, enabled=True),
        "fallback": _run_workflow(sample.paths, enabled=False),
        "fast+chaos": _run_workflow(sample.paths, enabled=True,
                                    chaos_seed=seed),
        "fallback+chaos": _run_workflow(sample.paths, enabled=False,
                                        chaos_seed=seed),
    }
    accepted = loads(blobs["fast"])
    identical = len(set(blobs.values())) == 1
    print(f"[workflow-identity] {len(accepted)} candidates accepted; "
          f"outputs byte-identical across "
          f"{{fast, fallback}} x {{fault-free, chaos seed {seed}}}: "
          f"{identical}")
    return {
        "identical": identical,
        "accepted": len(accepted),
        "configurations": sorted(blobs),
        "chaos_seed": seed,
    }


# -- 4. product-cache disabled overhead --------------------------------------


def bench_cache_overhead(params: dict) -> dict:
    num_events = params["cache_events"]
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    try:
        enabled_store = DataStore.connect(fabric, servers)
        disabled_store = DataStore.connect(
            fabric, servers, product_cache=ProductCacheOptions(enabled=False))
        _fill_dataset(enabled_store, "bench/cache", num_events)

        def events_of(datastore: DataStore) -> list:
            return list(datastore["bench/cache"][1][0])

        spec = vector_of(SliceData)

        def one_pass(datastore: DataStore, events: list) -> float:
            cache = datastore._product_cache
            if cache is not None:
                cache.clear()  # every probe misses: pure probe cost
            gc.collect()  # keep collector pauses out of the timed region
            gc.disable()
            try:
                t0 = time.perf_counter()
                for event in events:
                    event.load(spec, label="s")
                return time.perf_counter() - t0
            finally:
                gc.enable()

        # Interleave the configurations round-by-round so drift (GC,
        # allocator state, machine load) hits both sides equally; take
        # the min of each series.  Two enabled series bracket the
        # disabled one and calibrate the noise floor.
        enabled_events = events_of(enabled_store)
        disabled_events = events_of(disabled_store)
        series = {"a": [], "d": [], "b": []}
        one_pass(enabled_store, enabled_events)    # warm-up
        one_pass(disabled_store, disabled_events)  # warm-up
        for _ in range(params["cache_rounds"]):
            series["a"].append(one_pass(enabled_store, enabled_events))
            series["d"].append(one_pass(disabled_store, disabled_events))
            series["b"].append(one_pass(enabled_store, enabled_events))
    finally:
        fabric.runtime.shutdown()
    enabled = min(min(series["a"]), min(series["b"]))
    disabled = min(series["d"])
    noise = abs(min(series["a"]) - min(series["b"])) / enabled
    overhead = disabled / enabled - 1
    print(f"[cache-overhead] {num_events} loads/pass: enabled(miss) "
          f"{enabled * 1e3:.1f}ms, disabled {disabled * 1e3:.1f}ms "
          f"({overhead * +100:.2f}% overhead, noise {noise * 100:.2f}%)")
    return {
        "ops_per_s": num_events / disabled,
        "bytes_per_s": 0.0,  # dominated by RPC count, not payload size
        "enabled_s": enabled,
        "disabled_s": disabled,
        "overhead": overhead,
        "noise": noise,
    }


# -- driver ------------------------------------------------------------------


def run_benches(quick: bool, seed: int, workdir: Optional[str] = None) -> dict:
    params = QUICK if quick else FULL
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-dataplane-")
    return {
        "quick": quick,
        "speedup_gate": params["speedup_gate"],
        "cache_overhead_gate": CACHE_OVERHEAD_GATE,
        "benches": {
            "serialization_roundtrip": bench_serialization(params),
            "pep_batch_load": bench_pep_batch_load(params),
            "workflow_identity": check_workflow_identity(params, seed,
                                                         workdir),
            "product_cache_overhead": bench_cache_overhead(params),
        },
    }


def evaluate_gates(results: dict) -> list:
    """Return a list of human-readable gate failures (empty == pass)."""
    gate = results["speedup_gate"]
    benches = results["benches"]
    failures = []
    for name in ("serialization_roundtrip", "pep_batch_load"):
        speedup = benches[name]["speedup"]
        if speedup < gate:
            failures.append(f"{name}: fast path {speedup:.2f}x fallback, "
                            f"gate is {gate:.1f}x")
    if not benches["workflow_identity"]["identical"]:
        failures.append("workflow_identity: candidate-selection outputs "
                        "differ across configurations")
    cache = benches["product_cache_overhead"]
    allowed = results["cache_overhead_gate"] + cache["noise"]
    if cache["overhead"] > allowed:
        failures.append(f"product_cache_overhead: disabled cache costs "
                        f"{cache['overhead'] * 100:.2f}%, gate is "
                        f"{allowed * 100:.2f}% (2% + measured noise)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the data-plane fast paths against the "
                    "interpreted/per-key fallback and gate the speedups.")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus, 1.5x gate (CI perf smoke)")
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos-schedule seed for the identity check "
                             "(default: 7)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)

    results = run_benches(quick=args.quick, seed=args.seed)
    failures = evaluate_gates(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("all data-plane gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
