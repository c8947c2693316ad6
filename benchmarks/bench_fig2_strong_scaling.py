"""Model study: Figure 2, strong scaling of the three workflows (section IV-E).

Regenerates: throughput (slices/s) vs nodes in {16, 32, 64, 128, 256}
on the 7716-file / 17,437,656-event sample, for the traditional
file-based workflow and HEPnOS with in-memory and RocksDB-like (LSM)
backends.

Shape claims asserted (absolute numbers are simulator-scale, not
Theta-scale):

1. both HEPnOS variants beat the file-based workflow at every node count;
2. LSM matches in-memory at <= 32 nodes, then the gap opens, reaching
   ~2x at 256 nodes;
3. in-memory strong-scaling efficiency at 128 nodes is ~85%;
4. the file-based workflow flattens once cores outnumber files.
"""

from conftest import bench_repeats

from repro.perf import (
    check_figure2_shape,
    format_records,
    run_strong_scaling,
)


def run_figure2():
    records = run_strong_scaling(repeats=bench_repeats())
    checks = check_figure2_shape(records)
    return records, checks


def test_fig2_strong_scaling(benchmark):
    records, checks = benchmark.pedantic(run_figure2, rounds=1, iterations=1)
    print("\n== Figure 2: throughput vs nodes (17.44M-event sample) ==")
    print(format_records(records))
    # Mechanism: where the time goes for each backend at both ends.
    from repro.perf import HEPnOSModel, LARGE

    model = HEPnOSModel()
    print("\nresource utilization (who binds):")
    for nodes in (16, 256):
        for backend in ("map", "lsm"):
            result = model.simulate(nodes, LARGE, backend=backend)
            util = ", ".join(
                f"{k}={v:.0%}" for k, v in result.utilization.items()
            )
            print(f"  {result.system:<11} @{nodes:>3} nodes: {util}")
    print("\nshape checks:")
    for name, value in checks.items():
        print(f"  {name}: {value}")
    failed = [k for k, v in checks.items()
              if not isinstance(v, float) and not bool(v)]
    assert not failed, f"figure 2 shape checks failed: {failed}"
