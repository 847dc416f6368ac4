"""Determinism of the scaled-out GA: window shards and checkpoint/resume.

The GA's random generator never leaves the parent process and the shard
workers return integer confusion counts the parent sums, so the evolved
population — and therefore the best genome — must be identical for every
``jobs`` value and across any checkpoint/resume split of the same run.
A shard worker that dies must fail the search promptly, not hang it.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.tuning import (
    GeneticThresholdLearner,
    PopulationEvaluator,
    ThresholdGenome,
    TuningCheckpoint,
    VectorizedObjective,
)
from repro.tuning import genetic

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)


def _window(rng, n_db=4, n_ticks=160):
    trend = np.sin(np.linspace(0, 10, n_ticks)) + 2.0
    values = np.stack(
        [
            np.stack([trend, 0.6 * trend]) + 0.01 * rng.standard_normal((2, n_ticks))
            for _ in range(n_db)
        ]
    )
    labels = np.zeros((n_db, n_ticks), dtype=bool)
    values[2, :, 60:100] = rng.random((2, 40)) * 3.0
    labels[2, 60:100] = True
    return values, labels


@pytest.fixture(scope="module")
def replay_data():
    """Three replay windows of unequal size, so shards are uneven."""
    rng = np.random.default_rng(21)
    windows = [_window(rng), _window(rng, n_db=3, n_ticks=120), _window(rng)]
    return [values for values, _ in windows], [labels for _, labels in windows]


def _objective(replay_data):
    return VectorizedObjective(CONFIG, *replay_data)


class _BrokenObjective(VectorizedObjective):
    def confusion_counts(self, genomes):
        raise ValueError("counting went wrong")


class _UnbuildableObjective(VectorizedObjective):
    def shard(self, lo, hi):
        raise ValueError("building the shard went wrong")


def _learner(**overrides):
    params = dict(population_size=6, n_iterations=3, seed=7)
    params.update(overrides)
    return GeneticThresholdLearner(**params)


class TestParallelDeterminism:
    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_every_jobs_value_gives_the_same_search(self, replay_data, jobs):
        # 4 = n_windows + 1: more jobs than windows caps at one per window.
        serial, sharded = _learner(), _learner(jobs=jobs)
        serial_objective = _objective(replay_data)
        sharded_objective = _objective(replay_data)
        assert sharded.search(sharded_objective) == serial.search(serial_objective)
        assert sharded.last_trace == serial.last_trace
        # The memo and its count stay with the parent's objective.
        assert sharded_objective.evaluations == serial_objective.evaluations > 0
        # The raw-data entry point builds each shard in its worker and
        # lands on the same thresholds and trace.
        config = serial(CONFIG, *replay_data)
        called = _learner(jobs=jobs)
        assert called(CONFIG, *replay_data) == config
        assert called.last_trace == serial.last_trace

    def test_one_window_spawns_no_process(self, replay_data, monkeypatch):
        def no_shards(*args, **kwargs):
            raise AssertionError("a one-window input forked a shard worker")

        monkeypatch.setattr(genetic, "_Shard", no_shards)
        values, labels = replay_data
        serial = _learner()
        expected = serial(CONFIG, values[0], labels[0])
        pooled = _learner(jobs=4)
        assert pooled(CONFIG, values[0], labels[0]) == expected
        assert pooled.last_trace == serial.last_trace

    def test_shard_bounds_balance_points(self):
        assert genetic._shard_bounds([5, 5, 5, 5], 2) == [(0, 2), (2, 4)]
        assert genetic._shard_bounds([10, 1, 1, 1], 2) == [(0, 1), (1, 4)]
        assert genetic._shard_bounds([1, 1, 1, 10], 3) == [(0, 2), (2, 3), (3, 4)]
        assert genetic._shard_bounds([3, 3, 3], 3) == [(0, 1), (1, 2), (2, 3)]

    def test_jobs_do_not_change_the_search(self, replay_data):
        serial_genome, serial_fitness = _learner().search(_objective(replay_data))
        parallel_learner = _learner(jobs=2)
        parallel_genome, parallel_fitness = parallel_learner.search(
            _objective(replay_data)
        )
        assert parallel_genome == serial_genome
        assert parallel_fitness == serial_fitness

    def test_evaluator_preserves_order_and_memoizes(self, replay_data):
        objective = _objective(replay_data)
        rng = np.random.default_rng(0)
        population = [ThresholdGenome.random(2, rng) for _ in range(5)]
        population.append(population[0])  # duplicate: must hit the memo
        with PopulationEvaluator(objective, jobs=2) as evaluate:
            fitness = evaluate(population)
        expected = [_objective(replay_data)(genome) for genome in population]
        assert fitness == expected
        assert fitness[-1] == fitness[0]

    def test_evaluator_rejects_bad_jobs(self, replay_data):
        with pytest.raises(ValueError):
            PopulationEvaluator(_objective(replay_data), jobs=0)


class TestShardFailure:
    def test_dead_shard_fails_the_search_naming_it(self, replay_data, monkeypatch):
        enter = PopulationEvaluator.__enter__

        def enter_then_crash(self):
            enter(self)
            self.crash_shard(1)
            return self

        monkeypatch.setattr(PopulationEvaluator, "__enter__", enter_then_crash)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="tuning shard 1 .* died"):
            _learner(jobs=2)(CONFIG, *replay_data)
        assert time.monotonic() - started < 30.0
        assert multiprocessing.active_children() == []

    def test_dead_shard_between_generations(self, replay_data):
        population = [ThresholdGenome.from_config(CONFIG)]
        with PopulationEvaluator(_objective(replay_data), jobs=3) as evaluate:
            evaluate(population)
            evaluate.crash_shard(0)
            with pytest.raises(RuntimeError, match="tuning shard 0 .* died"):
                evaluate([ThresholdGenome(alphas=(0.5, 0.5), theta=0.1, tolerance=1)])
        assert multiprocessing.active_children() == []

    def test_worker_error_is_reported(self, replay_data):
        objective = _BrokenObjective(CONFIG, *replay_data)
        with PopulationEvaluator(objective, jobs=2) as evaluate:
            with pytest.raises(RuntimeError, match="counting went wrong"):
                evaluate([ThresholdGenome.from_config(CONFIG)])
        assert multiprocessing.active_children() == []

    def test_shard_build_error_is_reported(self, replay_data):
        # The workers fail while building their shards and exit before the
        # first population is sent: the error waiting in the pipe, not a
        # bare "died", must reach the caller.
        objective = _UnbuildableObjective(CONFIG, *replay_data)
        with PopulationEvaluator(objective, jobs=2) as evaluate:
            for shard in evaluate._shards:
                shard.process.join(timeout=30.0)
            with pytest.raises(RuntimeError, match="building the shard went wrong"):
                evaluate([ThresholdGenome.from_config(CONFIG)])
        assert multiprocessing.active_children() == []


class TestCheckpointResume:
    def test_split_run_matches_uninterrupted(self, replay_data, tmp_path):
        path = str(tmp_path / "ga.json")
        straight_genome, straight_fitness = _learner(n_iterations=4).search(
            _objective(replay_data)
        )
        # First half: stop after 2 generations, snapshotting each one.
        _learner(n_iterations=2, checkpoint_path=path).search(_objective(replay_data))
        # Second half resumes the snapshot and runs the remaining two.
        resumed = _learner(n_iterations=4, checkpoint_path=path, resume=True)
        resumed_genome, resumed_fitness = resumed.search(_objective(replay_data))
        assert resumed_genome == straight_genome
        assert resumed_fitness == straight_fitness

    def test_split_run_with_jobs_matches_too(self, replay_data, tmp_path):
        path = str(tmp_path / "ga.json")
        straight_genome, _ = _learner(n_iterations=4).search(_objective(replay_data))
        _learner(n_iterations=2, checkpoint_path=path, jobs=2).search(
            _objective(replay_data)
        )
        resumed = _learner(n_iterations=4, checkpoint_path=path, resume=True, jobs=2)
        resumed_genome, _ = resumed.search(_objective(replay_data))
        assert resumed_genome == straight_genome

    def test_checkpoint_json_round_trip(self, replay_data, tmp_path):
        path = str(tmp_path / "ga.json")
        learner = _learner(checkpoint_path=path, checkpoint_every=1)
        learner.search(_objective(replay_data))
        state = TuningCheckpoint.load(path)
        assert state.generation == learner.n_iterations
        assert state.population_size == learner.population_size
        assert state.trace == learner.last_trace.best_fitness
        # The restored RNG continues the checkpointed stream exactly.
        first = state.restore_rng()
        second = state.restore_rng()
        assert first.random(4).tolist() == second.random(4).tolist()
        # And the document itself round-trips bit-for-bit.
        assert TuningCheckpoint.from_json(state.to_json()) == state

    def test_unreadable_version_rejected(self, replay_data, tmp_path):
        path = tmp_path / "ga.json"
        learner = _learner(checkpoint_path=str(path))
        learner.search(_objective(replay_data))
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            TuningCheckpoint.load(str(path))

    def test_population_size_mismatch_rejected(self, replay_data, tmp_path):
        path = str(tmp_path / "ga.json")
        _learner(population_size=6, checkpoint_path=path).search(
            _objective(replay_data)
        )
        wrong = _learner(population_size=8, checkpoint_path=path, resume=True)
        with pytest.raises(ValueError, match="population size"):
            wrong.search(_objective(replay_data))

    def test_overrun_checkpoint_rejected(self, replay_data, tmp_path):
        path = str(tmp_path / "ga.json")
        _learner(n_iterations=3, checkpoint_path=path).search(_objective(replay_data))
        shorter = _learner(n_iterations=2, checkpoint_path=path, resume=True)
        with pytest.raises(ValueError, match="generations"):
            shorter.search(_objective(replay_data))

    def test_resume_without_file_starts_fresh(self, replay_data, tmp_path):
        path = str(tmp_path / "missing.json")
        learner = _learner(checkpoint_path=path, resume=True)
        genome, fitness = learner.search(_objective(replay_data))
        fresh_genome, fresh_fitness = _learner().search(_objective(replay_data))
        assert genome == fresh_genome
        assert fitness == fresh_fitness

    def test_save_leaves_no_temp_files(self, replay_data, tmp_path):
        path = tmp_path / "ga.json"
        _learner(checkpoint_path=str(path)).search(_objective(replay_data))
        assert [p.name for p in tmp_path.iterdir()] == ["ga.json"]
