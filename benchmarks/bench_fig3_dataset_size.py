"""Model study: Figure 3, throughput vs dataset size at 128 nodes (section IV-E).

Regenerates: throughput for the {1929, 3858, 7716}-file samples
({4.36M, 8.72M, 17.44M} events) on a fixed 128-node allocation.

Shape claims asserted:

1. the file-based workflow is especially poor on the smaller datasets
   (with 1929 files only ~24% of the 8192 cores can be busy);
2. the effect is greatly lessened for HEPnOS;
3. HEPnOS wins at every dataset size.
"""

from conftest import bench_repeats

from repro.perf import (
    check_figure3_shape,
    format_records,
    run_dataset_sweep,
)
from repro.perf.filebased import FileBasedModel
from repro.perf.workload import SMALL


def run_figure3():
    records = run_dataset_sweep(nodes=128, repeats=bench_repeats())
    checks = check_figure3_shape(records)
    starvation = FileBasedModel().simulate(128, SMALL)
    return records, checks, starvation


def test_fig3_dataset_size(benchmark):
    records, checks, starvation = benchmark.pedantic(
        run_figure3, rounds=1, iterations=1
    )
    print("\n== Figure 3: throughput vs dataset size at 128 nodes ==")
    print(format_records(records, group_by_dataset=True))
    print(f"\nfile-based core utilization on the 1929-file sample: "
          f"{starvation.core_utilization:.0%} (paper: ~24%)")
    print("\nshape checks:")
    for name, value in checks.items():
        print(f"  {name}: {value}")
    failed = [k for k, v in checks.items()
              if not isinstance(v, float) and not bool(v)]
    assert not failed, f"figure 3 shape checks failed: {failed}"
    # The paper's 24%-of-cores-busy observation for the small sample.
    assert 0.1 < starvation.core_utilization < 0.35
