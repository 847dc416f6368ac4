"""Genetic threshold learner (Algorithm 2).

The population evolves for ``n_iterations`` generations.  Each generation:

1. every individual's detection performance is computed (fitness);
2. the historically best genome is saved (elitism);
3. the worst-performing fraction is evicted;
4. survivors are selected with probability proportional to fitness
   (Eq. 6), crossed over, and mutated with probability ``beta`` to refill
   the population to its constant size.

Fitness evaluation is pluggable along two axes, both preserving the
exact serial search trajectory:

* objectives exposing ``evaluate_population`` (the vectorized objective)
  are scored a whole population per call instead of genome-by-genome;
* ``jobs > 1`` fans un-memoized genomes out over a process pool.  The GA
  generator never leaves the parent process and pool results come back
  in submission order, so the evolved population — and therefore the
  best genome — is identical for every ``jobs`` value.

Long searches can snapshot to a :class:`~repro.tuning.checkpoint.\
TuningCheckpoint` every ``checkpoint_every`` generations and resume
mid-run; the RNG state rides along, so a split run is bit-identical to
an uninterrupted one.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig, LEARNING_RATE
from repro.obs import runtime as obs
from repro.tuning.checkpoint import TuningCheckpoint
from repro.tuning.genome import ThresholdGenome
from repro.tuning.vectorized import VectorizedObjective

__all__ = ["GeneticThresholdLearner", "PopulationEvaluator", "SearchTrace"]


class Objective(Protocol):
    """Fitness callable for a single genome over a labelled replay window.

    ``config`` is the incumbent the searches start from; both the
    vectorized objective and the replay objective satisfy this.
    """

    @property
    def config(self) -> DBCatcherConfig: ...

    @property
    def n_kpis(self) -> int: ...

    def __call__(self, genome: ThresholdGenome) -> float: ...

# Per-process objective installed by the pool initializer.  Workers are
# forked (or receive the objective through initargs under spawn), so the
# parent's objective — including a vectorized objective's precomputed
# score lattice — is shared without re-serializing it per task.
_WORKER_OBJECTIVE: Optional[Objective] = None


def _init_worker(objective: Objective) -> None:
    global _WORKER_OBJECTIVE
    _WORKER_OBJECTIVE = objective


def _evaluate_chunk(genomes: Sequence[ThresholdGenome]) -> List[float]:
    objective = _WORKER_OBJECTIVE
    assert objective is not None, "worker pool initializer did not run"
    return _run_objective(objective, list(genomes))


def _genome_key(genome: ThresholdGenome) -> Tuple:
    # Mirrors the objectives' internal memo key so the evaluator's
    # parent-side cache and an objective's own cache agree on identity.
    return (genome.alphas, round(genome.theta, 6), genome.tolerance)


class PopulationEvaluator:
    """Order-preserving population fitness with an optional process pool.

    The parent keeps a fitness memo; only genomes never seen before are
    (re-)evaluated.  With ``jobs > 1`` the unseen genomes are split into
    contiguous chunks and mapped over a pool whose workers each hold one
    copy of the objective — ``pool.map`` returns chunks in submission
    order, so results are deterministic regardless of worker scheduling.
    """

    def __init__(self, objective: Objective, jobs: int = 1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._objective = objective
        self._jobs = jobs
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._cache: Dict[Tuple, float] = {}

    def __enter__(self) -> "PopulationEvaluator":
        if self._jobs > 1:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            context = multiprocessing.get_context(method)
            self._pool = context.Pool(
                processes=self._jobs,
                initializer=_init_worker,
                initargs=(self._objective,),
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __call__(self, population: Sequence[ThresholdGenome]) -> List[float]:
        missing: List[ThresholdGenome] = []
        missing_keys = set()
        for genome in population:
            key = _genome_key(genome)
            if key not in self._cache and key not in missing_keys:
                missing_keys.add(key)
                missing.append(genome)
        if missing:
            for genome, fitness in zip(missing, self._evaluate(missing)):
                self._cache[_genome_key(genome)] = fitness
        return [self._cache[_genome_key(genome)] for genome in population]

    def _evaluate(self, genomes: List[ThresholdGenome]) -> List[float]:
        if self._pool is None:
            return _run_objective(self._objective, genomes)
        n_chunks = min(self._jobs, len(genomes))
        bounds = np.linspace(0, len(genomes), n_chunks + 1).astype(int)
        chunks = [
            genomes[bounds[i] : bounds[i + 1]]
            for i in range(n_chunks)
            if bounds[i] < bounds[i + 1]
        ]
        results: List[float] = []
        for chunk_result in self._pool.map(_evaluate_chunk, chunks):
            results.extend(chunk_result)
        return results


def _run_objective(objective: Objective, genomes: List[ThresholdGenome]) -> List[float]:
    if isinstance(objective, VectorizedObjective):
        return [float(f) for f in objective.evaluate_population(genomes)]
    return [float(objective(genome)) for genome in genomes]


@dataclass(frozen=True)
class SearchTrace:
    """Best-fitness-so-far after each iteration of a threshold search."""

    best_fitness: Tuple[float, ...]

    @property
    def final(self) -> float:
        return self.best_fitness[-1] if self.best_fitness else 0.0


def _roulette_pick(fitness: np.ndarray, rng: np.random.Generator) -> int:
    """Fitness-proportional selection (Eq. 6).

    Falls back to uniform choice when every individual has zero fitness
    (e.g. no anomalies were caught yet by anyone).
    """
    total = float(fitness.sum())
    if total <= 0.0:
        return int(rng.integers(0, fitness.size))
    return int(rng.choice(fitness.size, p=fitness / total))


class GeneticThresholdLearner:
    """Adaptive threshold learning policy of DBCatcher.

    Parameters
    ----------
    population_size:
        Constant number of individuals ``M``.
    n_iterations:
        Number of generations ``N``.
    eviction_fraction:
        Fraction of the population evicted each generation.
    mutation_probability:
        Per-child mutation probability ``beta``.
    learning_rate:
        Mutation step ``Delta`` (0.1 in the paper).
    seed:
        Seed for the search's random generator.
    jobs:
        Fitness-evaluation worker processes; ``1`` evaluates in-process.
        The search result is identical for every value.
    checkpoint_path:
        When set, the search snapshots its full state here (atomically)
        every ``checkpoint_every`` generations and after the final one.
    checkpoint_every:
        Generations between snapshots (``1`` = after every generation).
    resume:
        When true and ``checkpoint_path`` exists, continue that run
        instead of starting fresh.

    The instance is callable with the :data:`repro.core.feedback`
    ``ThresholdLearner`` signature, so it can be handed directly to
    :meth:`repro.core.feedback.OnlineFeedback.maybe_retrain`.
    """

    name = "GA"

    def __init__(
        self,
        population_size: int = 16,
        n_iterations: int = 10,
        eviction_fraction: float = 0.5,
        mutation_probability: float = 0.2,
        learning_rate: float = LEARNING_RATE,
        seed: Optional[int] = None,
        jobs: int = 1,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ):
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not 0.0 < eviction_fraction < 1.0:
            raise ValueError("eviction_fraction must lie in (0, 1)")
        if not 0.0 <= mutation_probability <= 1.0:
            raise ValueError("mutation_probability must lie in [0, 1]")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.population_size = population_size
        self.n_iterations = n_iterations
        self.eviction_fraction = eviction_fraction
        self.mutation_probability = mutation_probability
        self.learning_rate = learning_rate
        self.jobs = jobs
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self._seed = seed
        self.last_trace: Optional[SearchTrace] = None

    def __call__(
        self,
        config: DBCatcherConfig,
        values: np.ndarray,
        labels: np.ndarray,
    ) -> DBCatcherConfig:
        """Learn thresholds over a replay window; return the tuned config."""
        genome, _ = self.search(VectorizedObjective(config, values, labels))
        return genome.apply_to(config)

    def search(self, objective: Objective) -> Tuple[ThresholdGenome, float]:
        """Run Algorithm 2 and return the historically best genome."""
        with PopulationEvaluator(objective, jobs=self.jobs) as evaluate:
            with obs.span("tuning.search"):
                return self._search(objective, evaluate)

    def _search(
        self, objective: Objective, evaluate: PopulationEvaluator
    ) -> Tuple[ThresholdGenome, float]:
        state = self._load_checkpoint()
        if state is not None:
            population = list(state.population)
            rng = state.restore_rng()
            best_genome = state.best_genome
            best_fitness = state.best_fitness
            trace = list(state.trace)
            start_generation = state.generation
        else:
            rng = np.random.default_rng(self._seed)
            population = [
                ThresholdGenome.random(objective.n_kpis, rng)
                for _ in range(self.population_size)
            ]
            # Seed the current thresholds into the initial population so
            # learning can never do worse than the incumbent configuration.
            population[0] = ThresholdGenome.from_config(objective.config)
            best_genome = population[0]
            best_fitness = evaluate([best_genome])[0]
            trace = []
            start_generation = 0

        for generation in range(start_generation, self.n_iterations):
            fitness = np.array(evaluate(population))
            top = int(np.argmax(fitness))
            if fitness[top] > best_fitness:
                best_fitness = float(fitness[top])
                best_genome = population[top]
            trace.append(best_fitness)
            obs.counter("tuning.generations").increment()
            obs.gauge("tuning.best_fitness").set(best_fitness)

            # Evict the poor performers.
            n_survivors = max(
                2, int(round(self.population_size * (1.0 - self.eviction_fraction)))
            )
            order = np.argsort(fitness)[::-1]
            survivors = [population[i] for i in order[:n_survivors]]
            survivor_fitness = fitness[order[:n_survivors]]

            # Refill via selection + crossover + mutation.
            children: List[ThresholdGenome] = []
            while len(survivors) + len(children) < self.population_size:
                i = _roulette_pick(survivor_fitness, rng)
                j = _roulette_pick(survivor_fitness, rng)
                first, second = survivors[i].crossover(survivors[j], rng)
                for child in (first, second):
                    if rng.random() < self.mutation_probability:
                        child = child.mutate(rng, self.learning_rate)
                    children.append(child)
            population = survivors + children[: self.population_size - n_survivors]

            completed = generation + 1
            if self.checkpoint_path is not None and (
                completed % self.checkpoint_every == 0
                or completed == self.n_iterations
            ):
                TuningCheckpoint.capture(
                    generation=completed,
                    population=tuple(population),
                    best_genome=best_genome,
                    best_fitness=best_fitness,
                    trace=tuple(trace),
                    rng=rng,
                ).save(self.checkpoint_path)
                obs.counter("tuning.checkpoints_written").increment()

        self.last_trace = SearchTrace(best_fitness=tuple(trace))
        return best_genome, best_fitness

    def _load_checkpoint(self) -> Optional[TuningCheckpoint]:
        if not self.resume or self.checkpoint_path is None:
            return None
        import os

        if not os.path.exists(self.checkpoint_path):
            return None
        state = TuningCheckpoint.load(self.checkpoint_path)
        if state.population_size != self.population_size:
            raise ValueError(
                f"checkpoint population size {state.population_size} does not "
                f"match learner population size {self.population_size}"
            )
        if state.generation > self.n_iterations:
            raise ValueError(
                f"checkpoint already ran {state.generation} generations but "
                f"this search stops at {self.n_iterations}"
            )
        obs.counter("tuning.resumes").increment()
        return state
