"""Simulated-annealing threshold searcher (Figure 11 comparator, "SAA").

Starts from the incumbent thresholds and explores neighbouring genomes; a
worse neighbour is accepted with probability ``exp(delta / T)``, with the
temperature ``T`` decaying geometrically.  Shares the fitness objective
and evaluation budget convention with the genetic learner so the Figure 11
comparison is apples-to-apples.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig, LEARNING_RATE
from repro.tuning.genetic import SearchTrace
from repro.tuning.genome import ThresholdGenome
from repro.tuning.objective import ReplayObjective
from repro.tuning.vectorized import VectorizedObjective

__all__ = ["AnnealingThresholdLearner"]


class AnnealingThresholdLearner:
    """Simulated annealing over threshold genomes.

    Parameters
    ----------
    n_iterations:
        Number of annealing steps (one fitness evaluation each).
    initial_temperature:
        Starting temperature for the acceptance rule.
    cooling:
        Geometric decay factor per step, in ``(0, 1)``.
    step_scale:
        Standard deviation of the Gaussian neighbourhood move.
    seed:
        Seed for the search's random generator.
    """

    name = "SAA"

    def __init__(
        self,
        n_iterations: int = 160,
        initial_temperature: float = 0.1,
        cooling: float = 0.95,
        step_scale: float = LEARNING_RATE,
        seed: Optional[int] = None,
    ):
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if initial_temperature <= 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must lie in (0, 1)")
        self.n_iterations = n_iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.step_scale = step_scale
        self._seed = seed
        self.last_trace: Optional[SearchTrace] = None

    def __call__(
        self,
        config: DBCatcherConfig,
        values: np.ndarray,
        labels: np.ndarray,
    ) -> DBCatcherConfig:
        genome, _ = self.search(VectorizedObjective(config, values, labels))
        return genome.apply_to(config)

    def search(self, objective: ReplayObjective) -> Tuple[ThresholdGenome, float]:
        """Run the annealing schedule; return the best genome visited."""
        rng = np.random.default_rng(self._seed)
        current = ThresholdGenome.from_config(objective.config)
        current_fitness = objective(current)
        best, best_fitness = current, current_fitness
        temperature = self.initial_temperature
        trace: List[float] = []

        for _ in range(self.n_iterations):
            neighbour = current.perturb(rng, self.step_scale)
            neighbour_fitness = objective(neighbour)
            delta = neighbour_fitness - current_fitness
            if delta >= 0.0 or rng.random() < math.exp(delta / max(temperature, 1e-9)):
                current, current_fitness = neighbour, neighbour_fitness
            if current_fitness > best_fitness:
                best, best_fitness = current, current_fitness
            temperature *= self.cooling
            trace.append(best_fitness)

        self.last_trace = SearchTrace(best_fitness=tuple(trace))
        return best, best_fitness
