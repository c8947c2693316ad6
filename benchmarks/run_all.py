#!/usr/bin/env python
"""Run the bench suite and write the ``BENCH_PR10.json`` baseline.

Every entry under ``benches`` reports at least ``ops_per_s`` and
``bytes_per_s`` so successive baselines (``BENCH_*.json``) can be
diffed mechanically; the format is documented in ``EXPERIMENTS.md``.
The suite is the gated :mod:`bench_dataplane` measurements, the gated
:mod:`bench_scaling` provider curves, the gated :mod:`bench_columnar`
projection/selection measurements, the gated :mod:`bench_fault_overhead`
fault-path costs, the gated :mod:`bench_recovery` durability timings
(WAL replay, failover reads, fault-free WAL overhead), the gated
:mod:`bench_multitenant` isolation and broker-idle measurements, the
gated :mod:`bench_yokan_backends` storage-engine suite (sustained-write
throughput, point-read p99s, write/read amplification, block-cache
warm-vs-cold), and two micro-benchmarks of the wire-level codecs::

    PYTHONPATH=src python benchmarks/run_all.py              # quick, writes BENCH_PR10.json
    PYTHONPATH=src python benchmarks/run_all.py --full -o /tmp/bench.json

Exits nonzero if any gate fails, so the baseline can never be
regenerated from a regressed tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

import bench_columnar
import bench_dataplane
import bench_fault_overhead
import bench_multitenant
import bench_recovery
import bench_scaling
import bench_yokan_backends
from repro.yokan import packed, wire

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_PR10.json")


def _best_of(fn, rounds: int = 5) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_packed_codec() -> dict:
    """Pack + unpack of a typical prefix-scan result set."""
    groups = [
        [(b"ev%04d#slices" % g, bytes(range(256)) * 2),
         (b"ev%04d#header" % g, bytes(64))]
        for g in range(64)
    ]
    nbytes = len(packed.pack_groups(groups))
    npairs = sum(len(g) for g in groups)

    def roundtrip() -> None:
        buf = packed.pack_groups(groups)
        out = packed.unpack_groups(memoryview(buf), len(groups))
        assert len(out) == len(groups)

    best = _best_of(roundtrip)
    print(f"[packed-codec] {npairs} pairs, {nbytes} bytes: "
          f"{best * 1e3:.2f}ms/roundtrip")
    return {"ops_per_s": npairs / best, "bytes_per_s": 2 * nbytes / best,
            "pairs": npairs, "bytes_per_pass": nbytes}


def bench_wire_seal_unseal() -> dict:
    """One sealed (checksummed) envelope round trip on a 4 KiB body."""
    body = bytes(range(256)) * 16

    def roundtrip() -> None:
        assert wire.unseal(wire.seal(body)) == body

    def hundred() -> None:
        for _ in range(100):
            roundtrip()

    best = _best_of(hundred) / 100
    print(f"[wire-seal] {len(body)} bytes: {best * 1e6:.1f}us/roundtrip")
    return {"ops_per_s": 1 / best, "bytes_per_s": 2 * len(body) / best,
            "bytes_per_pass": len(body)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the bench suite and emit the "
                    f"{os.path.basename(DEFAULT_OUTPUT)} perf baseline.")
    parser.add_argument("--full", action="store_true",
                        help="full corpus and the 2x acceptance gates "
                             "(default: quick)")
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos seed for the identity check")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help="output path (default: %(default)s)")
    args = parser.parse_args(argv)

    results = bench_dataplane.run_benches(quick=not args.full,
                                          seed=args.seed)
    failures = bench_dataplane.evaluate_gates(results)
    scaling_params = bench_scaling.FULL if args.full \
        else bench_scaling.COMMITTED
    scaling = bench_scaling.run_scaling(scaling_params)
    failures += bench_scaling.evaluate_gates(scaling)
    columnar = bench_columnar.run_benches(quick=not args.full,
                                          seed=args.seed)
    failures += bench_columnar.evaluate_gates(columnar)
    fault = bench_fault_overhead.run_benches()
    failures += bench_fault_overhead.evaluate_gates(fault)
    recovery = bench_recovery.run_benches(quick=not args.full)
    failures += bench_recovery.evaluate_gates(recovery)
    multitenant = bench_multitenant.run_benches(quick=not args.full,
                                                seed=args.seed)
    failures += bench_multitenant.evaluate_gates(multitenant)
    backends = bench_yokan_backends.run_benches(quick=not args.full,
                                                seed=args.seed)
    failures += bench_yokan_backends.evaluate_gates(backends)
    benches = {name: data
               for name, data in results["benches"].items()
               if name != "workflow_identity"}
    for name, data in columnar["benches"].items():
        if name != "columnar_identity":
            benches[name] = data
    benches.update(fault["benches"])
    benches.update(recovery["benches"])
    benches.update(multitenant["benches"])
    benches.update(backends["benches"])
    benches["packed_codec"] = bench_packed_codec()
    benches["wire_seal_unseal"] = bench_wire_seal_unseal()
    doc = {
        "schema": "hepnos-bench/v1",
        "baseline": "PR10",
        "generated_by": "benchmarks/run_all.py"
                        + (" --full" if args.full else ""),
        "quick": not args.full,
        "speedup_gate": results["speedup_gate"],
        "cache_overhead_gate": results["cache_overhead_gate"],
        "columnar_bytes_gate": columnar["bytes_gate"],
        "fault_overhead_gate": fault["fault_overhead_gate"],
        "wal_overhead_gate": recovery["wal_overhead_gate"],
        "isolation_gate": multitenant["isolation_gate"],
        "idle_overhead_gate": multitenant["idle_overhead_gate"],
        "backend_warm_p99_us": backends["warm_p99_us"],
        "backend_nocache_p99_us": backends["nocache_p99_us"],
        "gates_passed": not failures,
        "benches": benches,
        "scaling": scaling,
        "checks": {"workflow_identity":
                   results["benches"]["workflow_identity"],
                   "columnar_identity":
                   columnar["benches"]["columnar_identity"]},
    }
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {args.output}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
