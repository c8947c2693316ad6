#!/usr/bin/env python
"""Columnar data-plane benchmark and CI perf gate.

Compares the vectorized analysis path (server-side ``scan_columns``
projection + numpy Cut evaluation over :class:`ColumnBlock` arrays)
against the per-event fast path it accelerates.  Three measurements:

1. **Candidate-selection speedup**: the selection kernel -- load the
   slices of every event and evaluate the NOvA nue candidate cut --
   per-event (packed whole-object load + python Cut over each slice)
   vs columnar (``load_products_columnar`` + one numpy mask), client
   product cache disabled so every round pays the wire and the decode.
   The ratio is reported, not gated: ingested products are stored as
   typed tables, which made the per-event kernel it divides by about
   twice as fast (the speed of record is ``select_columnar`` against
   ``select_rowwise`` in ``benchmarks/e2e``).  Gated: the accepted
   ``(event, slice)`` sets are byte-identical.  The end-to-end
   :class:`HEPnOSWorkflow` selection speedup (which also pays event
   listing and dispatch machinery) is reported likewise.
2. **Projection bytes**: fabric bytes moved by a 3-field
   ``load_products_columnar`` vs whole-object packed loads of the same
   events.  Gated at <= 25%.
3. **Selection identity** (untimed): vectorized selection fault-free,
   under the seeded chaos schedule, and concurrent with a live
   1 -> 4 shard rescale must accept the byte-identical event set of
   the quiet per-event run.

Exit status is nonzero if any gate fails, so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_columnar.py --quick
    PYTHONPATH=src python benchmarks/bench_columnar.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.faults.chaos import (
    LAYOUT,
    PEP_OPTIONS,
    SINGLE_SHARD,
    STOCK_FAULTS,
    ChaosStage,
    build_schedule,
    chaos_client_policy,
    selection_bytes,
)
from repro.hepnos import (
    DataStore,
    PEPOptions,
    ProductCacheOptions,
    vector_of,
)
from repro.mercury import Fabric
from repro.nova.datamodel import SliceData
from repro.nova.files import generate_file_set
from repro.nova.generator import GeneratorConfig
from repro.serial import dumps
from repro.workflows.hepnos import HEPnOSWorkflow

QUICK = dict(files=2, mean_events=64, select_rounds=3,
             bytes_events=48, id_files=2, id_events=24)
FULL = dict(files=4, mean_events=192, select_rounds=5,
            bytes_events=128, id_files=2, id_events=24)
BYTES_GATE = 0.25
PROJECTED_FIELDS = ["nhit", "cal_e", "cvn_e"]


def _deploy(fabric: Fabric) -> list:
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", **LAYOUT,
        ))
        for i in range(2)
    ]
    fabric.runtime.start()
    return servers


def _sample(params: dict, workdir: str, tag: str = "files"):
    return generate_file_set(
        f"{workdir}/{tag}", num_files=params["files"],
        mean_events_per_file=params["mean_events"],
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=32,
                               subruns_per_run=8),
    )


def _workflow(datastore, columnar: bool) -> HEPnOSWorkflow:
    return HEPnOSWorkflow(
        datastore, "nova/columnar",
        pep_options=PEPOptions(input_batch_size=1024,
                               dispatch_batch_size=256,
                               columnar_loads=columnar),
    )


# -- 1. candidate-selection speedup ------------------------------------------


def bench_selection_speedup(params: dict, workdir: str) -> dict:
    import numpy as np

    from repro.nova.cafana import nue_candidate_cut
    from repro.serial.archive import registered_type

    sample = _sample(params, workdir)
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    try:
        # Cache off: every round pays the wire; the comparison is the
        # data plane plus the cut evaluation, not the client LRU.
        datastore = DataStore.connect(
            fabric, servers,
            product_cache=ProductCacheOptions(enabled=False))
        _workflow(datastore, columnar=False).ingest(sample.paths,
                                                    num_ranks=1)
        # Ingest registers the generated slice class under its file
        # type name; look it up rather than assuming the SDK class.
        slc = registered_type("rec.slc")
        spec = vector_of(slc)
        dataset = datastore["nova/columnar"]
        keys = [ev.key for run in dataset.runs()
                for sr in run.subruns() for ev in sr.events()]
        cut = nue_candidate_cut
        columns = sorted(set(cut.columns) | {"slice_id"})
        from repro.hepnos.product import product_type_name
        packed_spec = (product_type_name(spec), "")

        def per_event_kernel() -> list:
            products = datastore.load_products_packed(
                keys, [(spec, "")])[packed_spec]
            accepted = []
            for key, slices in zip(keys, products):
                if slices is None:
                    continue
                for s in slices:
                    if cut(s):
                        accepted.append((key, int(s.slice_id)))
            return accepted

        def columnar_kernel() -> list:
            block = datastore.load_products_columnar(
                keys, spec, columns, label="")
            mask = cut.mask(block.table)
            ids = block.column("slice_id")[mask]
            row_event = np.repeat(np.arange(len(block)),
                                  np.diff(block.offsets))
            accepted = [(keys[e], int(s))
                        for e, s in zip(row_event[mask], ids)]
            for i, slices in block.raw.items():
                for s in slices:
                    if cut(s):
                        accepted.append((keys[i], int(s.slice_id)))
            return accepted

        def timed(kernel) -> tuple:
            blob = dumps(sorted(kernel()))  # warm-up
            best = float("inf")
            for _ in range(params["select_rounds"]):
                t0 = time.perf_counter()
                accepted = kernel()
                best = min(best, time.perf_counter() - t0)
                assert dumps(sorted(accepted)) == blob
            return best, blob

        slow, slow_blob = timed(per_event_kernel)
        fast, fast_blob = timed(columnar_kernel)

        # End-to-end workflow selection (listing + PEP dispatch +
        # kernel): reported for context, not gated -- the shared
        # per-event machinery bounds it well below the kernel ratio.
        def select_s(columnar: bool) -> float:
            workflow = _workflow(datastore, columnar)
            workflow.select(num_ranks=1)  # warm-up
            t0 = time.perf_counter()
            result = workflow.select(num_ranks=1)
            return time.perf_counter() - t0, result

        e2e_slow, _ = select_s(False)
        e2e_fast, result = select_s(True)
    finally:
        fabric.runtime.shutdown()
    speedup = slow / fast
    identical = slow_blob == fast_blob
    print(f"[columnar-selection] {len(keys)} events, "
          f"{result.slices_examined} slices: per-event kernel "
          f"{slow * 1e3:.2f}ms, columnar kernel {fast * 1e3:.2f}ms "
          f"({speedup:.2f}x, identical={identical}); end-to-end "
          f"{e2e_slow * 1e3:.1f}ms -> {e2e_fast * 1e3:.1f}ms "
          f"({e2e_slow / e2e_fast:.2f}x)")
    return {
        "ops_per_s": len(keys) / fast,
        "bytes_per_s": 0.0,
        "fast_s": fast,
        "fallback_s": slow,
        "speedup": speedup,
        "identical": identical,
        "events": len(keys),
        "slices": result.slices_examined,
        "accepted": len(result.accepted_ids),
        "end_to_end_speedup": e2e_slow / e2e_fast,
    }


# -- 2. projection bytes ------------------------------------------------------


def bench_projection_bytes(params: dict) -> dict:
    from repro.nova.generator import NovaGenerator

    num_events = params["bytes_events"]
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    try:
        datastore = DataStore.connect(
            fabric, servers,
            product_cache=ProductCacheOptions(enabled=False))
        subrun = (datastore.create_dataset("bench/colbytes")
                  .create_run(1).create_subrun(1))
        gen = NovaGenerator()
        keys = []
        total_slices = 0
        for i in range(num_events):
            slices = gen.slices_for_event(1, 1, i)
            subrun.create_event(i).store(slices, label="")
            keys.append(subrun.event(i).key)
            total_slices += len(slices)
        spec = (vector_of(SliceData), "")
        stats = fabric.stats

        def moved(fn) -> tuple:
            fn()  # warm the scan path
            best_s, best_b = float("inf"), 0
            for _ in range(3):
                before = stats.total_bytes
                t0 = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - t0
                delta = stats.total_bytes - before
                if elapsed < best_s:
                    best_s, best_b = elapsed, delta
            return best_b, best_s

        packed_bytes, packed_s = moved(
            lambda: datastore.load_products_packed(keys, [spec]))
        projected_bytes, projected_s = moved(
            lambda: datastore.load_products_columnar(
                keys, vector_of(SliceData), PROJECTED_FIELDS, label=""))
    finally:
        fabric.runtime.shutdown()
    ratio = projected_bytes / packed_bytes
    print(f"[columnar-bytes] {num_events} events, {total_slices} slices, "
          f"{len(PROJECTED_FIELDS)} fields: projected "
          f"{projected_bytes} B vs packed {packed_bytes} B "
          f"({100 * ratio:.1f}% on the wire)")
    return {
        "ops_per_s": num_events / projected_s,
        "bytes_per_s": projected_bytes / projected_s,
        "projected_bytes": projected_bytes,
        "packed_bytes": packed_bytes,
        "ratio": ratio,
        "events": num_events,
        "fields": list(PROJECTED_FIELDS),
    }


# -- 3. selection identity (fault-free, chaos, live rescale) ------------------


def check_selection_identity(params: dict, seed: int, workdir: str) -> dict:
    id_params = dict(params, files=params["id_files"],
                     mean_events=params["id_events"])
    sample = _sample(id_params, workdir, tag="identity")

    def stage(columnar: bool, **deployment) -> ChaosStage:
        return ChaosStage(
            sample.paths, retry_policy=chaos_client_policy(),
            pep_options=replace(PEP_OPTIONS, columnar_loads=columnar),
            **deployment)

    blobs = {}
    with stage(columnar=False) as quiet:
        quiet.ingest()
        blobs["per-event"] = selection_bytes(quiet.select())
    with stage(columnar=True) as quiet:
        quiet.ingest()
        blobs["columnar"] = selection_bytes(quiet.select())
    with stage(columnar=True) as chaos:
        chaos.ingest()
        with chaos.faults(build_schedule(
                seed, chaos.servers,
                **dict(STOCK_FAULTS, spike_window=(40, 44)))):
            blobs["columnar+chaos"] = selection_bytes(chaos.select())
    with stage(columnar=True, layout=SINGLE_SHARD, num_servers=1) as grown:
        grown.ingest()
        with grown.live_grow(num_providers=3, event_databases=3,
                             product_databases=3):
            blobs["columnar+rescale"] = selection_bytes(grown.select())
    identical = len(set(blobs.values())) == 1
    print(f"[columnar-identity] selected-event sets byte-identical across "
          f"{sorted(blobs)}: {identical}")
    return {"identical": identical, "configurations": sorted(blobs),
            "chaos_seed": seed}


# -- harness ------------------------------------------------------------------


def run_benches(quick: bool, seed: int,
                workdir: Optional[str] = None) -> dict:
    params = QUICK if quick else FULL
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="bench-columnar-")
    return {
        "quick": quick,
        "bytes_gate": BYTES_GATE,
        "benches": {
            "columnar_selection": bench_selection_speedup(params, workdir),
            "columnar_bytes": bench_projection_bytes(params),
            "columnar_identity": check_selection_identity(
                params, seed, workdir),
        },
    }


def evaluate_gates(results: dict) -> list:
    failures = []
    benches = results["benches"]
    if not benches["columnar_selection"]["identical"]:
        failures.append("columnar selection accepted a different event set")
    ratio = benches["columnar_bytes"]["ratio"]
    if ratio > results["bytes_gate"]:
        failures.append(
            f"3-field projection shipped {100 * ratio:.1f}% of packed "
            f"bytes > {100 * results['bytes_gate']:.0f}%")
    if not benches["columnar_identity"]["identical"]:
        failures.append(
            "vectorized selection diverged under chaos or live rescale")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the columnar analysis path against the "
                    "per-event fast path: report the speedup, gate the "
                    "projection bytes and the selection identity.")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI perf smoke)")
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
        print("all columnar gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
