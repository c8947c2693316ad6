"""Tuners: random search, hill climbing with restarts, and evolution.

All tuners maximize the objective, share a trial budget, memoize
repeated configurations (simulations are deterministic), and record
every trial for post-hoc analysis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.tuning.space import SearchSpace

Objective = Callable[[dict], float]


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    config: dict
    score: float


@dataclass
class TuningResult:
    best_config: dict
    best_score: float
    trials: list = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return len(self.trials)


class _Base:
    def __init__(self, space: SearchSpace, objective: Objective,
                 budget: int = 50, seed: int = 0):
        if budget <= 0:
            raise ConfigError("tuning budget must be positive")
        self.space = space
        self.objective = objective
        self.budget = budget
        self.rng = random.Random(seed)
        self._cache: dict[tuple, float] = {}
        self._trials: list[TrialRecord] = []
        # Cached (repeat) evaluations don't consume budget, so a
        # converged search could spin forever on memoized configs; this
        # guard bounds total proposals.
        self._iterations = 0
        self._max_iterations = budget * 50

    def _key(self, config: dict) -> tuple:
        return tuple(sorted(config.items()))

    def _evaluate(self, config: dict) -> float:
        self._iterations += 1
        if self._iterations > self._max_iterations:
            raise _BudgetExhausted()
        key = self._key(config)
        if key in self._cache:
            return self._cache[key]
        if len(self._trials) >= self.budget:
            raise _BudgetExhausted()
        score = self.objective(config)
        self._cache[key] = score
        self._trials.append(TrialRecord(len(self._trials), dict(config), score))
        return score

    def _result(self) -> TuningResult:
        if not self._trials:
            raise ConfigError("no trials executed")
        best = max(self._trials, key=lambda t: t.score)
        return TuningResult(best_config=dict(best.config),
                            best_score=best.score,
                            trials=list(self._trials))


class _BudgetExhausted(Exception):
    pass


class RandomSearch(_Base):
    """Uniform random sampling: the baseline every tuner must beat."""

    def run(self, initial: Optional[dict] = None) -> TuningResult:
        try:
            if initial is not None:
                self._evaluate(initial)
            while True:
                self._evaluate(self.space.sample(self.rng))
        except _BudgetExhausted:
            pass
        return self._result()


class HillClimb(_Base):
    """Steepest-ascent local search with random restarts."""

    def run(self, initial: Optional[dict] = None) -> TuningResult:
        current = dict(initial) if initial else self.space.default()
        try:
            current_score = self._evaluate(current)
            while True:
                best_neighbor, best_score = None, current_score
                for neighbor in self.space.neighbors(current):
                    score = self._evaluate(neighbor)
                    if score > best_score:
                        best_neighbor, best_score = neighbor, score
                if best_neighbor is None:
                    # Local optimum: restart from a random point.
                    current = self.space.sample(self.rng)
                    current_score = self._evaluate(current)
                else:
                    current, current_score = best_neighbor, best_score
        except _BudgetExhausted:
            pass
        return self._result()


class EvolutionTuner(_Base):
    """(mu + lambda) evolution: crossover + ordinal mutation.

    The inexpensive stand-in for the paper's asynchronous Bayesian
    optimizer: a population provides the exploration/exploitation
    balance without a surrogate model.
    """

    def __init__(self, space: SearchSpace, objective: Objective,
                 budget: int = 50, seed: int = 0,
                 population: int = 8, mutation_rate: float = 0.3):
        super().__init__(space, objective, budget, seed)
        if population < 2:
            raise ConfigError("population must be at least 2")
        self.population_size = population
        self.mutation_rate = mutation_rate

    def run(self, initial: Optional[dict] = None) -> TuningResult:
        population: list[tuple[float, dict]] = []
        try:
            seeds = [initial] if initial else []
            while len(seeds) < self.population_size:
                seeds.append(self.space.sample(self.rng))
            for config in seeds:
                population.append((self._evaluate(config), config))
            while True:
                population.sort(key=lambda sc: sc[0], reverse=True)
                parents = population[: max(2, self.population_size // 2)]
                a = self.rng.choice(parents)[1]
                b = self.rng.choice(parents)[1]
                child = self.space.mutate(
                    self.space.crossover(a, b, self.rng),
                    self.rng, self.mutation_rate,
                )
                score = self._evaluate(child)
                population.append((score, child))
                population = population[: self.population_size * 2]
        except _BudgetExhausted:
            pass
        return self._result()
