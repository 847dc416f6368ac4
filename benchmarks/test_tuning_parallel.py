"""Vectorized + parallel GA objective versus serial per-genome replay.

Table 6 reports threshold-training time; at fleet scale that time is
what decides whether the online feedback loop (drift-triggered
retraining) can run continuously.  This bench pins the tentpole claim:
evaluating a GA population through :class:`VectorizedObjective` — one
batched-engine pass over the replay window, whole-population
thresholding via broadcasting, ``--jobs`` process-pool fan-out — beats
the serial per-genome :class:`DetectionObjective` replay by at least
3x at population 32, 5 generations, while finding the *same* best
genome (the searches share one seed, and fitness parity is exact).

A second bench gates the pool as an in-run ratio: the learner called on
raw data with ``jobs=1`` against ``jobs=2``, plan building included,
alternating the arms.  With two or more CPUs the window-sharded pool
must be at least 1.2x faster (``pool_over_serial``); on one CPU the
ratio is recorded and the gate skipped.  Its input never drops below
4 units x 800 ticks, whatever the bench scale: on a smaller one the
fork and IPC costs would decide the ratio, not the pool.
"""

import os
import time
from statistics import median

import pytest

from repro.datasets import build_mixed_dataset
from repro.presets import default_config
from repro.tuning import (
    DetectionObjective,
    GeneticThresholdLearner,
    VectorizedObjective,
)

from _shared import (
    BENCH_TICKS,
    BENCH_UNITS,
    mixed_dataset,
    record_bench_result,
    scale_note,
)

POPULATION = 32
GENERATIONS = 5
SEED = 11
SPEEDUP_FLOOR = 3.0
JOBS = 2
POOL_OVER_SERIAL_FLOOR = 1.2
RATIO_PAIRS = 3
RATIO_UNITS = max(BENCH_UNITS, 4)
RATIO_TICKS = max(BENCH_TICKS, 800)


def _replay_pairs():
    dataset = mixed_dataset("tencent")
    values = [unit.values for unit in dataset.units]
    labels = [unit.labels for unit in dataset.units]
    return values, labels


def _timed_search(objective_factory, jobs: int):
    learner = GeneticThresholdLearner(
        population_size=POPULATION,
        n_iterations=GENERATIONS,
        seed=SEED,
        jobs=jobs,
    )
    objective = objective_factory()
    started = time.perf_counter()
    genome, fitness = learner.search(objective)
    return time.perf_counter() - started, genome, fitness


def test_tuning_parallel_speedup():
    config = default_config()
    values, labels = _replay_pairs()

    serial_seconds, serial_genome, serial_fitness = _timed_search(
        lambda: DetectionObjective(config, values, labels), jobs=1
    )
    vector_seconds, vector_genome, vector_fitness = _timed_search(
        lambda: VectorizedObjective(config, values, labels), jobs=1
    )
    parallel_seconds, parallel_genome, parallel_fitness = _timed_search(
        lambda: VectorizedObjective(config, values, labels), jobs=JOBS
    )

    # Same seed, bit-identical fitness => the exact same search outcome.
    assert vector_genome == serial_genome
    assert parallel_genome == serial_genome
    assert vector_fitness == serial_fitness == parallel_fitness

    vector_speedup = serial_seconds / vector_seconds
    parallel_speedup = serial_seconds / parallel_seconds
    best_speedup = max(vector_speedup, parallel_speedup)

    print()
    print(scale_note())
    print(f"GA population {POPULATION}, {GENERATIONS} generations, "
          f"{BENCH_UNITS} replay units")
    print(f"  serial replay objective:      {serial_seconds:8.2f} s")
    print(f"  vectorized objective:         {vector_seconds:8.2f} s "
          f"({vector_speedup:.1f}x)")
    print(f"  vectorized + {JOBS} jobs:        {parallel_seconds:8.2f} s "
          f"({parallel_speedup:.1f}x)")
    print(f"  best fitness: {serial_fitness:.3f} (identical across modes)")

    record_bench_result(
        "tuning_parallel",
        population=POPULATION,
        generations=GENERATIONS,
        jobs=JOBS,
        serial_seconds=round(serial_seconds, 4),
        vectorized_seconds=round(vector_seconds, 4),
        parallel_seconds=round(parallel_seconds, 4),
        vectorized_speedup=round(vector_speedup, 2),
        parallel_speedup=round(parallel_speedup, 2),
        best_fitness=round(serial_fitness, 4),
    )

    assert best_speedup >= SPEEDUP_FLOOR, (
        f"vectorized+parallel objective only {best_speedup:.2f}x faster "
        f"than serial per-genome replay (floor {SPEEDUP_FLOOR}x)"
    )


def _timed_call(jobs: int, config, values, labels):
    """One learner call on raw data: seconds, tuned config, search trace."""
    learner = GeneticThresholdLearner(
        population_size=POPULATION,
        n_iterations=GENERATIONS,
        seed=SEED,
        jobs=jobs,
    )
    started = time.perf_counter()
    tuned = learner(config, values, labels)
    return time.perf_counter() - started, tuned, learner.last_trace


def test_tuning_pool_over_serial():
    config = default_config()
    dataset = build_mixed_dataset(
        "tencent", seed=1234, n_units=RATIO_UNITS, ticks_per_unit=RATIO_TICKS
    )
    values = [unit.values for unit in dataset.units]
    labels = [unit.labels for unit in dataset.units]
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )

    serial_times, pool_times = [], []
    for pair in range(RATIO_PAIRS):
        order = (1, JOBS) if pair % 2 == 0 else (JOBS, 1)
        runs = {jobs: _timed_call(jobs, config, values, labels) for jobs in order}
        # Same thresholds and the same search trace from either arm.
        assert runs[JOBS][1:] == runs[1][1:]
        serial_times.append(runs[1][0])
        pool_times.append(runs[JOBS][0])
    pool_over_serial = median(s / p for s, p in zip(serial_times, pool_times))

    print()
    print(f"learner call on {RATIO_UNITS} units x {RATIO_TICKS} ticks, "
          f"build included, {cpus} CPUs available")
    print(f"  jobs=1: {median(serial_times):8.3f} s (median of {RATIO_PAIRS})")
    print(f"  jobs={JOBS}: {median(pool_times):8.3f} s "
          f"(pool_over_serial {pool_over_serial:.2f}x)")

    record_bench_result(
        "tuning_pool",
        units=RATIO_UNITS,
        ticks=RATIO_TICKS,
        population=POPULATION,
        generations=GENERATIONS,
        jobs=JOBS,
        cpus=cpus,
        serial_call_seconds=round(median(serial_times), 4),
        pool_call_seconds=round(median(pool_times), 4),
        pool_over_serial=round(pool_over_serial, 3),
    )

    if cpus < 2:
        pytest.skip(f"pool_over_serial needs >= 2 CPUs, have {cpus}")
    assert pool_over_serial >= POOL_OVER_SERIAL_FLOOR, (
        f"jobs={JOBS} learner call only {pool_over_serial:.2f}x the serial "
        f"one (floor {POOL_OVER_SERIAL_FLOOR}x)"
    )
