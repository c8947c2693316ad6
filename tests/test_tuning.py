"""Tests for the autotuning component."""

import pytest

from repro.errors import ConfigError
from repro.tuning import (
    EvolutionTuner,
    HEPNOS_SPACE,
    HillClimb,
    Parameter,
    RandomSearch,
    SearchSpace,
    hepnos_objective,
    tune_hepnos,
)
from repro.tuning.objective import PAPER_CONFIG


def quad_space():
    return SearchSpace([
        Parameter("x", tuple(range(11))),
        Parameter("y", tuple(range(11))),
    ])


def quad_objective(config):
    """Max 100 at (7, 3)."""
    return 100.0 - (config["x"] - 7) ** 2 - (config["y"] - 3) ** 2


class TestSpace:
    def test_size(self):
        assert len(quad_space()) == 121

    def test_validation(self):
        space = quad_space()
        space.validate({"x": 3, "y": 4})
        with pytest.raises(ConfigError):
            space.validate({"x": 3})
        with pytest.raises(ConfigError):
            space.validate({"x": 99, "y": 4})

    def test_parameter_constraints(self):
        with pytest.raises(ConfigError):
            Parameter("p", ())
        with pytest.raises(ConfigError):
            Parameter("p", (1, 1))

    def test_duplicate_names(self):
        with pytest.raises(ConfigError):
            SearchSpace([Parameter("a", (1,)), Parameter("a", (2,))])

    def test_empty_space(self):
        with pytest.raises(ConfigError):
            SearchSpace([])

    def test_neighbors_edges(self):
        space = quad_space()
        corner = space.neighbors({"x": 0, "y": 0})
        assert len(corner) == 2
        middle = space.neighbors({"x": 5, "y": 5})
        assert len(middle) == 4

    def test_sample_and_default(self):
        import random

        space = quad_space()
        config = space.sample(random.Random(0))
        space.validate(config)
        assert space.default() == {"x": 5, "y": 5}

    def test_mutate_stays_valid(self):
        import random

        space = quad_space()
        rng = random.Random(0)
        config = {"x": 0, "y": 10}
        for _ in range(50):
            config = space.mutate(config, rng, rate=1.0)
            space.validate(config)

    def test_crossover_mixes(self):
        import random

        space = quad_space()
        a = {"x": 0, "y": 0}
        b = {"x": 10, "y": 10}
        child = space.crossover(a, b, random.Random(0))
        assert child["x"] in (0, 10) and child["y"] in (0, 10)


class TestTuners:
    @pytest.mark.parametrize("tuner_cls", [RandomSearch, HillClimb,
                                           EvolutionTuner])
    def test_respects_budget(self, tuner_cls):
        result = tuner_cls(quad_space(), quad_objective, budget=20,
                           seed=1).run()
        assert result.evaluations <= 20

    def test_hill_climb_finds_optimum(self):
        result = HillClimb(quad_space(), quad_objective, budget=80,
                           seed=0).run()
        assert result.best_score == 100.0
        assert result.best_config == {"x": 7, "y": 3}

    def test_evolution_beats_default(self):
        result = EvolutionTuner(quad_space(), quad_objective, budget=60,
                                seed=0).run(initial={"x": 0, "y": 10})
        assert result.best_score > quad_objective({"x": 0, "y": 10})

    def test_random_search_deterministic(self):
        r1 = RandomSearch(quad_space(), quad_objective, budget=15, seed=5).run()
        r2 = RandomSearch(quad_space(), quad_objective, budget=15, seed=5).run()
        assert r1.best_config == r2.best_config
        assert [t.config for t in r1.trials] == [t.config for t in r2.trials]

    def test_memoization_saves_budget(self):
        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return quad_objective(config)

        HillClimb(quad_space(), counting, budget=60, seed=0).run()
        # Every objective call corresponds to a distinct configuration.
        assert calls["n"] <= 60

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError):
            RandomSearch(quad_space(), quad_objective, budget=0)

    def test_trials_recorded(self):
        result = RandomSearch(quad_space(), quad_objective, budget=10,
                              seed=2).run()
        assert len(result.trials) == 10
        assert result.trials[0].trial == 0

    def test_population_validation(self):
        with pytest.raises(ConfigError):
            EvolutionTuner(quad_space(), quad_objective, population=1)


class TestHEPnOSObjective:
    DS = None  # set below: a small dataset keeps simulations fast

    @classmethod
    def setup_class(cls):
        from repro.perf.workload import LARGE

        cls.DS = LARGE.scaled(1 / 64)

    def test_paper_config_evaluable(self):
        score = hepnos_objective(PAPER_CONFIG, nodes=32, dataset=self.DS)
        assert score > 0

    def test_dispatch_clamped_to_input(self):
        config = dict(PAPER_CONFIG)
        config["input_batch_size"] = 256
        config["dispatch_batch_size"] = 1024
        assert hepnos_objective(config, nodes=32, dataset=self.DS) > 0

    def test_space_matches_paper_config(self):
        HEPNOS_SPACE.validate(PAPER_CONFIG)

    def test_tune_hepnos_improves_or_matches_paper(self):
        result = tune_hepnos(nodes=32, budget=12, seed=0, dataset=self.DS)
        paper_score = hepnos_objective(PAPER_CONFIG, nodes=32,
                                       dataset=self.DS)
        assert result.best_score >= paper_score * 0.999
        HEPNOS_SPACE.validate(result.best_config)
