"""Model study: A-fabric ablation, dragonfly interconnect behaviour.

The service traffic pattern -- many client nodes pulling bulk data from
few server nodes -- concentrates load on a few global links of the
dragonfly (the Aries topology Theta uses).  This bench measures that
concentration and the benefit of adaptive (UGAL-style) routing, plus
the failure mode the paper hit: injection saturation at the servers.
"""

import pytest

from repro.sim import Simulator
from repro.sim.network import DragonflyConfig, DragonflyNetwork

CONFIG = DragonflyConfig(groups=4, routers_per_group=4, nodes_per_router=4,
                         hop_latency=1e-6)


def run_traffic(pattern: str, adaptive: bool) -> tuple[float, dict]:
    """Simulate one traffic pattern; returns (makespan, link loads)."""
    sim = Simulator()
    network = DragonflyNetwork(sim, CONFIG, seed=11)
    nodes = CONFIG.total_nodes
    message = 50e6  # 50 MB bulk transfers

    flows = []
    if pattern == "uniform":
        # every node sends to a node in another group, spread evenly
        for src in range(nodes):
            dst = (src + nodes // 2 + 1) % nodes
            flows.append((src, dst))
    elif pattern == "hepnos":
        # 1-in-8 nodes are servers; every client pulls from its server
        servers = [n for n in range(nodes) if n % 8 == 0]
        for src in range(nodes):
            if src in servers:
                continue
            flows.append((servers[src % len(servers)], src))
    else:
        raise ValueError(pattern)

    def flow(src, dst):
        yield from network.send(src, dst, message, adaptive=adaptive)

    for src, dst in flows:
        sim.process(flow(src, dst))
    wall = sim.run()
    return wall, network.link_loads()


@pytest.mark.parametrize("pattern", ["uniform", "hepnos"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_traffic_pattern(benchmark, pattern, adaptive):
    wall, loads = benchmark.pedantic(run_traffic, args=(pattern, adaptive),
                                     rounds=1, iterations=1)
    global_loads = [v for k, v in loads.items() if k.startswith("glb")]
    imbalance = max(global_loads) / (sum(global_loads) / len(global_loads))
    print(f"\n[{pattern}, adaptive={adaptive}] makespan={wall * 1e3:.1f} ms, "
          f"global-link imbalance={imbalance:.2f}x")


def test_hepnos_pattern_concentrates_injection(benchmark):
    """Server-centric traffic hammers the few server NICs: the hottest
    injection link carries many times the uniform pattern's -- exactly
    the oversaturation failure mode the paper reports (section IV-E)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, uniform_loads = run_traffic("uniform", adaptive=False)
    _, hepnos_loads = run_traffic("hepnos", adaptive=False)

    def hottest_injection(loads):
        return max(v for k, v in loads.items() if k.startswith("inj"))

    u, h = hottest_injection(uniform_loads), hottest_injection(hepnos_loads)
    print(f"\nhottest injection link: uniform {u / 1e6:.0f} MB vs "
          f"hepnos {h / 1e6:.0f} MB ({h / u:.1f}x)")
    assert h > 4 * u  # 7 clients per server NIC vs 1-to-1 uniform


def test_adaptive_routing_helps_hotspots(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    wall_min, _ = run_traffic("hepnos", adaptive=False)
    wall_ada, _ = run_traffic("hepnos", adaptive=True)
    print(f"\nhepnos-pattern makespan: minimal {wall_min * 1e3:.1f} ms, "
          f"adaptive {wall_ada * 1e3:.1f} ms")
    assert wall_ada <= wall_min * 1.05  # adaptive never much worse
