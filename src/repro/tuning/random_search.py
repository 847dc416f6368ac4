"""Random-search threshold searcher (Figure 11 comparator, "Random").

Samples genomes uniformly inside the paper's initial ranges and keeps the
best.  The simplest possible baseline: no exploitation of structure at
all, which is exactly why the genetic algorithm should beat it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.tuning.genetic import SearchTrace
from repro.tuning.genome import ThresholdGenome
from repro.tuning.objective import ReplayObjective
from repro.tuning.vectorized import VectorizedObjective

__all__ = ["RandomThresholdLearner"]


class RandomThresholdLearner:
    """Uniform random search over threshold genomes.

    Parameters
    ----------
    n_iterations:
        Number of random genomes to evaluate.
    seed:
        Seed for the search's random generator.
    """

    name = "Random"

    def __init__(self, n_iterations: int = 160, seed: Optional[int] = None):
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self.n_iterations = n_iterations
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
        """Evaluate random genomes; return the best one seen."""
        rng = np.random.default_rng(self._seed)
        best = ThresholdGenome.from_config(objective.config)
        best_fitness = objective(best)
        trace: List[float] = []
        for _ in range(self.n_iterations):
            candidate = ThresholdGenome.random(objective.n_kpis, rng)
            fitness = objective(candidate)
            if fitness > best_fitness:
                best, best_fitness = candidate, fitness
            trace.append(best_fitness)
        self.last_trace = SearchTrace(best_fitness=tuple(trace))
        return best, best_fitness
