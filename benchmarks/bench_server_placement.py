"""Model study: A-placement-topo ablation, where to put the service nodes.

The paper deploys one HEPnOS server per 8 nodes.  With the dragonfly
topology modeled explicitly, the *location* of those server nodes
matters once bulk traffic approaches fabric limits: spreading servers
across groups uses every group's global links, while packing them into
few groups funnels all traffic through those groups' links.  Adaptive
(UGAL) routing partially rescues the packed layout.

This regime uses heavier slices (20 kB) and slower global links so the
fabric, not the client CPUs, is the binding resource.
"""

import pytest

from repro.perf import HEPnOSModel, LARGE
from repro.perf.workload import CostModel
from repro.sim.network import DragonflyConfig

TOPOLOGY = DragonflyConfig(groups=8, routers_per_group=4, nodes_per_router=2,
                           injection_bandwidth=8e9, local_bandwidth=5e9,
                           global_bandwidth=2e9)
COSTS = CostModel(t_select=0.2e-3, bytes_per_slice=20000)
DATASET = LARGE.scaled(1 / 16)
NODES = 64


def simulate(placement: str, adaptive: bool = True):
    model = HEPnOSModel(costs=COSTS)
    return model.simulate(NODES, DATASET, backend="map", topology=TOPOLOGY,
                          server_placement=placement,
                          adaptive_routing=adaptive)


@pytest.mark.parametrize("placement", ["spread", "packed"])
def test_placement_throughput(benchmark, placement):
    result = benchmark.pedantic(simulate, args=(placement,),
                                rounds=1, iterations=1)
    print(f"\n[{placement}] {result.throughput:,.0f} slices/s")


def test_spread_beats_packed(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    spread = simulate("spread").throughput
    packed = simulate("packed").throughput
    print(f"\nspread {spread:,.0f} vs packed {packed:,.0f} "
          f"({spread / packed:.2f}x)")
    assert spread > 1.5 * packed


def test_adaptive_routing_rescues_packed(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_adaptive = simulate("packed", adaptive=True).throughput
    minimal_only = simulate("packed", adaptive=False).throughput
    print(f"\npacked: adaptive {with_adaptive:,.0f} vs minimal "
          f"{minimal_only:,.0f} (+{with_adaptive / minimal_only - 1:.0%})")
    assert with_adaptive >= minimal_only


def test_flat_model_close_to_spread_when_cpu_bound(benchmark):
    """With the paper's parameters (CPU-bound), the flat NIC model and
    the full dragonfly agree -- justifying the flat default in the
    figure sweeps."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    topo = DragonflyConfig(groups=8, routers_per_group=4, nodes_per_router=2)
    model = HEPnOSModel()
    flat = model.simulate(NODES, DATASET, backend="map").throughput
    dragonfly = model.simulate(NODES, DATASET, backend="map", topology=topo,
                               server_placement="spread").throughput
    print(f"\nflat {flat:,.0f} vs dragonfly {dragonfly:,.0f} "
          f"({abs(flat - dragonfly) / flat:.1%} apart)")
    assert abs(flat - dragonfly) / flat < 0.1
