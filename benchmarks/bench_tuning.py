"""Model study: A-tune ablation, configuration autotuning over the simulator.

The paper used ML-based autotuning [6] to pick the deployed
configuration (databases, batch sizes).  This bench compares tuners on
the simulated-throughput objective and reports what they find relative
to the paper's hand-tuned configuration.
"""

import pytest

from repro.perf.workload import LARGE
from repro.tuning import (
    EvolutionTuner,
    HEPNOS_SPACE,
    HillClimb,
    RandomSearch,
    hepnos_objective,
)
from repro.tuning.objective import PAPER_CONFIG

DATASET = LARGE.scaled(1 / 64)
NODES = 64


def objective(config):
    return hepnos_objective(config, nodes=NODES, dataset=DATASET)


@pytest.mark.parametrize("tuner_cls", [RandomSearch, HillClimb,
                                       EvolutionTuner])
def test_tuner_comparison(benchmark, tuner_cls):
    def run():
        tuner = tuner_cls(HEPNOS_SPACE, objective, budget=20, seed=3)
        return tuner.run(initial=dict(PAPER_CONFIG))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    paper = objective(PAPER_CONFIG)
    print(f"\n[{tuner_cls.__name__}] best {result.best_score:,.0f} slices/s "
          f"in {result.evaluations} evaluations "
          f"(paper config: {paper:,.0f}; "
          f"ratio {result.best_score / paper:.3f})")
    assert result.best_score >= paper * 0.999  # seeded with the paper config


def test_paper_config_is_near_optimal(benchmark):
    """Sanity: the paper's hand-tuned values sit close to what a longer
    search finds — the model agrees the deployed config was good."""
    def run():
        tuner = EvolutionTuner(HEPNOS_SPACE, objective, budget=40, seed=0)
        return tuner.run(initial=dict(PAPER_CONFIG))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    paper = objective(PAPER_CONFIG)
    print(f"\ntuned best: {result.best_score:,.0f}; paper config: "
          f"{paper:,.0f}; headroom {result.best_score / paper - 1:.1%}")
    print(f"tuned config: {result.best_config}")
    assert result.best_score < paper * 1.5  # no silly 10x left on the table
