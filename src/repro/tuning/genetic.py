"""Genetic threshold learner (Algorithm 2).

The population evolves for ``n_iterations`` generations.  Each generation:

1. every individual's detection performance is computed (fitness);
2. the historically best genome is saved (elitism);
3. the worst-performing fraction is evicted;
4. survivors are selected with probability proportional to fitness
   (Eq. 6), crossed over, and mutated with probability ``beta`` to refill
   the population to its constant size.

Fitness is scored a whole population per call, as integer confusion
counts (:meth:`~repro.tuning.objective.ReplayObjective.confusion_counts`).
With ``jobs > 1`` the :class:`PopulationEvaluator` shards the *replay
windows* (not the genomes) over worker processes: each worker owns a
contiguous, point-balanced shard — built in the worker when the learner
is called with raw data, inherited through fork when ``search`` gets a
prebuilt objective — and returns its counts every generation.  The
parent sums them, so fitness, the GA generator's draws and therefore the
best genome are identical for every ``jobs`` value.

Long searches can snapshot to a :class:`~repro.tuning.checkpoint.\
TuningCheckpoint` every ``checkpoint_every`` generations and resume
mid-run; the RNG state rides along, so a split run is bit-identical to
an uninterrupted one.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig, LEARNING_RATE
from repro.obs import runtime as obs
from repro.tuning.checkpoint import TuningCheckpoint
from repro.tuning.genome import ThresholdGenome
from repro.tuning.objective import COUNT_FIELDS, DeferredObjective, ReplayObjective
from repro.tuning.vectorized import VectorizedObjective

__all__ = ["GeneticThresholdLearner", "PopulationEvaluator", "SearchTrace"]


def _shard_bounds(points: Sequence[int], n_shards: int) -> List[Tuple[int, int]]:
    """``n_shards`` contiguous, non-empty window ranges of near-equal points."""
    cumulative = np.cumsum(points)
    cuts = [0]
    for shard in range(1, n_shards):
        target = cumulative[-1] * shard / n_shards
        cut = int(np.searchsorted(cumulative, target))  # cumulative[cut] >= target
        if cut > 0 and target - cumulative[cut - 1] < cumulative[cut] - target:
            cut -= 1
        # Leave at least one window for this shard and each one after it.
        cuts.append(min(max(cut + 1, cuts[-1] + 1), len(points) - (n_shards - shard)))
    cuts.append(len(points))
    return list(zip(cuts[:-1], cuts[1:]))


def _shard_main(conn, objective: ReplayObjective, lo: int, hi: int) -> None:
    """Shard worker: own windows ``[lo, hi)``, count each population sent."""
    try:
        shard = objective.shard(lo, hi)
        while True:
            genomes = conn.recv()
            if genomes is None:
                return
            conn.send(("counts", shard.confusion_counts(genomes)))
    except EOFError:  # the parent went away
        return
    except Exception:
        conn.send(("error", traceback.format_exc()))


class _Shard:
    """Parent-side handle of one shard worker."""

    def __init__(
        self, context, index: int, objective: ReplayObjective, lo: int, hi: int
    ):
        self.index = index
        self.windows = (lo, hi)
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_shard_main, args=(child, objective, lo, hi), daemon=True
        )
        self.process.start()
        child.close()

    def describe(self) -> str:
        lo, hi = self.windows
        return f"tuning shard {self.index} (replay windows {lo}..{hi - 1})"

    def died(self) -> RuntimeError:
        self.process.join(timeout=5.0)
        return RuntimeError(
            f"{self.describe()} died (exit code {self.process.exitcode})"
        )

    def send(self, genomes: Optional[Sequence[ThresholdGenome]]) -> None:
        try:
            self.conn.send(genomes)
        except OSError as error:  # BrokenPipeError: the worker is gone
            if self.conn.poll():
                self.receive()  # raises the worker's own error, if it sent one
            raise self.died() from error

    def receive(self) -> np.ndarray:
        try:
            kind, payload = self.conn.recv()
        except (EOFError, OSError) as error:
            raise self.died() from error
        if kind == "error":
            raise RuntimeError(f"{self.describe()} failed:\n{payload}")
        return payload

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


class PopulationEvaluator:
    """Order-preserving population fitness, optionally sharded by window.

    With ``jobs == 1`` (or a single replay window) one in-process shard,
    ``objective.shard(0, n_windows)``, covers every window.  With ``jobs >
    1`` it forks ``min(jobs, n_windows)`` workers over contiguous shards of
    replay windows, balanced by data points; each owns its shard's
    objective for the evaluator's lifetime.  Per call, the objective's
    memo picks the unseen genomes, every shard counts them, and the parent
    sums the integer counts — so fitness is identical for any ``jobs``.
    A worker that dies is noticed as soon as the OS reports it (EOF on its
    pipe or its process sentinel) and fails the call with an error naming
    the shard.
    """

    def __init__(self, objective: ReplayObjective, jobs: int = 1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._objective = objective
        self._jobs = jobs
        #: The in-process shard when no worker is forked.
        self._local: Optional[ReplayObjective] = None
        self._shards: List[_Shard] = []

    def __enter__(self) -> "PopulationEvaluator":
        points = self._objective.window_points()
        n_shards = min(self._jobs, len(points))
        if n_shards == 1:
            self._local = self._objective.shard(0, len(points))
            return self
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        try:
            for index, (lo, hi) in enumerate(_shard_bounds(points, n_shards)):
                self._shards.append(_Shard(context, index, self._objective, lo, hi))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        shards, self._shards = self._shards, []
        for shard in shards:
            shard.stop()
        self._local = None

    def crash_shard(self, index: int) -> None:
        """Test hook: SIGKILL shard ``index``'s worker, as a segfault would."""
        process = self._shards[index].process
        process.kill()
        process.join()

    def __call__(self, population: Sequence[ThresholdGenome]) -> List[float]:
        fitness = self._objective._memoized(population, self._counts)
        return [float(f) for f in fitness]

    def _counts(self, genomes: Sequence[ThresholdGenome]) -> np.ndarray:
        """Every shard's counts for ``genomes``, summed."""
        if self._local is not None:
            return self._local.confusion_counts(genomes)
        if not self._shards:
            raise RuntimeError("PopulationEvaluator used outside its with-block")
        genomes = list(genomes)
        for shard in self._shards:
            shard.send(genomes)
        total = np.zeros((len(genomes), len(COUNT_FIELDS)), dtype=np.int64)
        waiting = list(self._shards)
        while waiting:
            wait([s.conn for s in waiting] + [s.process.sentinel for s in waiting])
            for shard in list(waiting):
                # poll() is also true at EOF, where receive() raises.
                if shard.conn.poll():
                    total += shard.receive()
                    waiting.remove(shard)
                elif not shard.process.is_alive():
                    raise shard.died()
        return total


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
        objective = DeferredObjective(VectorizedObjective, config, values, labels)
        genome, _ = self.search(objective)
        return genome.apply_to(config)

    def search(self, objective: ReplayObjective) -> Tuple[ThresholdGenome, float]:
        """Run Algorithm 2 and return the historically best genome."""
        with PopulationEvaluator(objective, jobs=self.jobs) as evaluate:
            with obs.span("tuning.search"):
                return self._search(objective, evaluate)

    def _search(
        self, objective: ReplayObjective, evaluate: PopulationEvaluator
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
