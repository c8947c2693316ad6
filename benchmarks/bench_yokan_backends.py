#!/usr/bin/env python
"""A-backend ablation: Yokan storage backends head-to-head.

Two layers:

1. **pytest-benchmark micro-tests** (run under pytest): put / get /
   ordered-scan / prefix-listing rates of the in-memory map and the
   LSM tree (RocksDB stand-in) -- the backend choice behind Figure 2's
   mem-vs-RocksDB pair.

2. **The gated write/read-amplification suite** (``run_benches`` /
   ``evaluate_gates``, wired into ``run_all.py``): a fill ->
   point-read -> scan pipeline per backend, reporting sustained-write
   throughput, point-read p50/p99, write-amp and read-amp factors, and
   block-cache hit rates.  One gate: warm-block-cache point-read p99
   must beat the same table layout read with the cache disabled (and
   the hit rate must show the warm pass really ran from the cache).
   The engine's write/read amplification under the real workflow is
   ``lsm.write_amp`` / ``lsm.read_amp`` on ``select_durable_lsm`` in
   ``benchmarks/e2e``.

Run directly or through ``run_all.py``::

    PYTHONPATH=src python benchmarks/bench_yokan_backends.py --quick
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from typing import Optional, Sequence

import pytest

from repro.yokan import LSMBackend, MemoryBackend

N_ITEMS = 2000

QUICK = {
    "n_items": 12_000,
    "value_bytes": 256,
    "reads": 2_000,
    "warm_rounds": 3,
}
FULL = {
    "n_items": 20_000,
    "value_bytes": 256,
    "reads": 8_000,
    "warm_rounds": 3,
}

#: the engine under test -- small memtable so the fill phase
#: exercises many rotations
LSM_TUNING = dict(memtable_bytes=64 * 1024, compaction_trigger=4,
                  max_immutables=8, block_cache_bytes=8 * 1024 * 1024,
                  bits_per_key=10)


def make_backend(kind: str, tmp_path):
    if kind == "map":
        return MemoryBackend()
    return LSMBackend(str(tmp_path / "lsm"), memtable_bytes=1 << 20)


def fill(backend, n=N_ITEMS):
    for i in range(n):
        backend.put(f"key-{i:08d}".encode(), b"v" * 100)
    return backend


@pytest.mark.parametrize("kind", ["map", "lsm"])
def test_put_rate(benchmark, kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    counter = {"i": 0}

    def put_one():
        i = counter["i"]
        counter["i"] += 1
        backend.put(f"key-{i:012d}".encode(), b"v" * 100)

    benchmark(put_one)
    backend.close()


@pytest.mark.parametrize("kind", ["map", "lsm"])
def test_get_rate(benchmark, kind, tmp_path):
    backend = fill(make_backend(kind, tmp_path))
    if kind == "lsm":
        backend.flush_memtable()  # measure the SSTable read path
    counter = {"i": 0}

    def get_one():
        i = counter["i"] % N_ITEMS
        counter["i"] += 1
        return backend.get(f"key-{i:08d}".encode())

    benchmark(get_one)
    backend.close()


@pytest.mark.parametrize("kind", ["map", "lsm"])
def test_ordered_scan(benchmark, kind, tmp_path):
    backend = fill(make_backend(kind, tmp_path))

    def scan_all():
        return sum(1 for _ in backend.scan())

    count = benchmark(scan_all)
    assert count == N_ITEMS
    backend.close()


@pytest.mark.parametrize("kind", ["map", "lsm"])
def test_prefix_listing(benchmark, kind, tmp_path):
    """The container-iteration primitive HEPnOS uses."""
    backend = make_backend(kind, tmp_path)
    for subrun in range(10):
        for event in range(200):
            backend.put(f"sr{subrun:02d}/ev{event:06d}".encode(), b"")

    def list_one_subrun():
        return backend.list_keys(prefix=b"sr05/")

    keys = benchmark(list_one_subrun)
    assert len(keys) == 200
    backend.close()


# -- the gated write/read-amplification suite --------------------------------


def _percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _open_backend(kind: str, workdir: str, name: str):
    if kind == "map":
        return MemoryBackend()
    if kind == "lsm":
        return LSMBackend(f"{workdir}/{name}", **LSM_TUNING)
    raise ValueError(kind)


def _quiesce(backend) -> float:
    """Flush + drain an LSM backend; returns the time spent waiting."""
    t0 = time.perf_counter()
    if hasattr(backend, "flush_memtable"):
        backend.flush_memtable()
        backend.drain()
    return time.perf_counter() - t0


def _fill_phase(backend, keys: list, value: bytes) -> dict:
    """Sustained single-put writes; throughput counts acknowledged
    puts (the background engine keeps flushing after the last ack --
    that drain is reported separately, not hidden)."""
    t0 = time.perf_counter()
    for key in keys:
        backend.put(key, value)
    wall = time.perf_counter() - t0
    drain_s = _quiesce(backend)
    nbytes = sum(len(k) for k in keys) + len(value) * len(keys)
    out = {
        "ops_per_s": len(keys) / wall,
        "bytes_per_s": nbytes / wall,
        "wall_s": round(wall, 4),
        "drain_s": round(drain_s, 4),
        "items": len(keys),
    }
    stats = getattr(backend, "stats", None)
    if stats is not None and hasattr(stats, "write_amplification"):
        out["write_amplification"] = round(stats.write_amplification, 3)
        out["flushes"] = stats.flushes
        out["compactions"] = stats.compactions
        out["throttle_waits"] = stats.throttle_waits
        out["backpressure_waits"] = stats.backpressure_waits
    return out


def _read_phase(backend, sample: list, value_bytes: int,
                warm_rounds: int) -> dict:
    """Point reads: one cold pass (populates any cache), then
    ``warm_rounds`` measured passes; percentiles come from the best
    warm pass."""

    def one_pass() -> list:
        latencies = []
        for key in sample:
            t0 = time.perf_counter()
            backend.get(key)
            latencies.append(time.perf_counter() - t0)
        return latencies

    cold = one_pass()
    best_wall = float("inf")
    best: list = cold
    for _ in range(warm_rounds):
        latencies = one_pass()
        wall = sum(latencies)
        if wall < best_wall:
            best_wall, best = wall, latencies
    wall = sum(best)
    out = {
        "ops_per_s": len(sample) / wall,
        "bytes_per_s": len(sample) * value_bytes / wall,
        "p50_us": round(_percentile(best, 0.50) * 1e6, 3),
        "p99_us": round(_percentile(best, 0.99) * 1e6, 3),
        "p99_cold_us": round(_percentile(cold, 0.99) * 1e6, 3),
        "reads": len(sample),
    }
    stats = getattr(backend, "stats", None)
    if stats is not None and hasattr(stats, "read_amplification"):
        out["read_amplification"] = round(stats.read_amplification, 3)
        out["block_cache_hit_rate"] = round(stats.block_cache_hit_rate, 4)
        out["bloom_skips"] = stats.bloom_skips
        out["sstable_reads"] = stats.sstable_reads
    return out


def _scan_phase(backend, n_items: int, value_bytes: int) -> dict:
    t0 = time.perf_counter()
    count = sum(1 for _ in backend.scan())
    wall = time.perf_counter() - t0
    assert count == n_items, f"scan saw {count} of {n_items} keys"
    return {
        "ops_per_s": count / wall,
        "bytes_per_s": count * value_bytes / wall,
        "entries": count,
    }


def run_benches(quick: bool, seed: int = 7,
                workdir: Optional[str] = None) -> dict:
    params = QUICK if quick else FULL
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-backends-")
    rng = random.Random(seed)
    n = params["n_items"]
    value = bytes(range(256)) * (params["value_bytes"] // 256 + 1)
    value = value[:params["value_bytes"]]
    keys = [f"key-{i:08d}".encode() for i in range(n)]
    sample = [keys[rng.randrange(n)] for _ in range(params["reads"])]

    benches: dict = {}
    backends: dict = {}
    for kind in ("map", "lsm"):
        backend = _open_backend(kind, workdir, kind)
        fill_result = _fill_phase(backend, keys, value)
        print(f"[fill:{kind}] {fill_result['ops_per_s']:,.0f} puts/s"
              + (f", write_amp={fill_result['write_amplification']}"
                 if "write_amplification" in fill_result else ""))
        benches[f"backend_fill_{kind}"] = fill_result
        backends[kind] = backend

    for kind, backend in backends.items():
        read_result = _read_phase(backend, sample, params["value_bytes"],
                                  params["warm_rounds"])
        print(f"[read:{kind}] p50={read_result['p50_us']}us "
              f"p99={read_result['p99_us']}us"
              + (f", cache_hit={read_result['block_cache_hit_rate']:.1%}"
                 if "block_cache_hit_rate" in read_result else ""))
        benches[f"backend_point_read_{kind}"] = read_result
        scan_result = _scan_phase(backend, n, params["value_bytes"])
        print(f"[scan:{kind}] {scan_result['ops_per_s']:,.0f} entries/s")
        benches[f"backend_scan_{kind}"] = scan_result

    # The warm-cache comparison: the exact same table layout, reopened
    # with the block cache disabled -- every point read decodes its
    # block from the mmap.
    backends["lsm"].close()
    nocache = LSMBackend(f"{workdir}/lsm",
                         **{**LSM_TUNING, "block_cache_bytes": 0})
    nocache_result = _read_phase(nocache, sample, params["value_bytes"],
                                 params["warm_rounds"])
    print(f"[read:lsm-nocache] p50={nocache_result['p50_us']}us "
          f"p99={nocache_result['p99_us']}us")
    benches["backend_point_read_lsm_nocache"] = nocache_result
    nocache.close()
    for kind, backend in backends.items():
        if kind != "lsm":
            backend.close()

    warm = benches["backend_point_read_lsm"]
    print(f"[read-gate] warm p99 {warm['p99_us']}us vs nocache "
          f"{nocache_result['p99_us']}us")
    return {
        "quick": quick,
        "seed": seed,
        "benches": benches,
        "warm_p99_us": warm["p99_us"],
        "nocache_p99_us": nocache_result["p99_us"],
    }


def evaluate_gates(results: dict) -> list:
    """Return human-readable gate failures (empty == pass)."""
    failures = []
    if results["warm_p99_us"] >= results["nocache_p99_us"]:
        failures.append(
            f"backend_point_read: warm-cache p99 "
            f"({results['warm_p99_us']}us) is not better than the "
            f"cache-disabled p99 ({results['nocache_p99_us']}us)")
    warm = results["benches"]["backend_point_read_lsm"]
    if warm.get("block_cache_hit_rate", 0) <= 0.5:
        failures.append(
            f"backend_point_read: block cache hit rate "
            f"{warm.get('block_cache_hit_rate', 0):.1%} leaves the warm "
            "p99 measuring the uncached path")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the Yokan backends: sustained-write "
                    "throughput, point-read p99s, write/read "
                    "amplification, and the block-cache gate.")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)
    results = run_benches(quick=args.quick, seed=args.seed)
    failures = evaluate_gates(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
