"""Model study: A-weak ablation, weak scaling of the HEPnOS workflows.

The paper claims both weak and strong scalability (sections I and IV).
Here the per-node dataset share is fixed while the allocation grows;
throughput per node should stay roughly constant for the in-memory
backend.
"""

from collections import defaultdict

from repro.perf import format_records, run_weak_scaling
from repro.perf.workload import LARGE


def run_weak():
    return run_weak_scaling(
        node_counts=(16, 32, 64, 128),
        events_per_node=LARGE.total_events // 128,
        systems=("hepnos-mem", "hepnos-lsm"),
    )


def test_weak_scaling(benchmark):
    records = benchmark.pedantic(run_weak, rounds=1, iterations=1)
    print("\n== A-weak: weak scaling (fixed events per node) ==")
    print(format_records(records))
    per_node = defaultdict(dict)
    for r in records:
        per_node[r.system][r.nodes] = r.throughput / r.nodes
    print("\nper-node throughput (slices/s/node):")
    for system, values in sorted(per_node.items()):
        row = "  ".join(f"{n}:{v:,.0f}" for n, v in sorted(values.items()))
        print(f"  {system:<12} {row}")
    mem = per_node["hepnos-mem"]
    assert mem[128] > 0.75 * mem[16], "weak scaling efficiency below 75%"
