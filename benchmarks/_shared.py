"""Shared benchmark infrastructure: scales, cached datasets, experiments.

Every bench regenerates a paper artifact at a laptop scale that preserves
the experiment's *shape* (who wins, by what rough factor).  The scale knobs
are environment variables so a longer run can approach paper scale:

* ``REPRO_BENCH_UNITS``  — units per dataset (default 4; paper 50-100)
* ``REPRO_BENCH_TICKS``  — ticks per unit (default 800; paper 2.6k-11k)
* ``REPRO_BENCH_TRIALS`` — repetitions per method (default 2; paper 20)

Setting ``REPRO_BENCH_JSON`` to a file path makes every bench that calls
:func:`record_bench_result` merge its headline numbers into that JSON
file — what the CI smoke job uploads as a workflow artifact.

Datasets and the expensive mixed-dataset experiment are cached per pytest
session so the figure/table benches that share them (Fig. 8 / Table V /
Table VI, etc.) pay for them once.
"""

from __future__ import annotations

import json
import os
import threading
from functools import lru_cache
from typing import Dict, List

from repro.baselines import (
    FFTDetector,
    JumpStarterDetector,
    OmniAnomalyDetector,
    SRCNNDetector,
    SRDetector,
)
from repro.datasets import (
    Dataset,
    build_mixed_dataset,
    train_test_split,
)
from repro.eval.runner import (
    MethodSummary,
    repeat,
    run_baseline_trial,
    run_dbcatcher_trial,
    summarize,
)
from repro.presets import default_config
from repro.tuning import GeneticThresholdLearner

BENCH_UNITS = int(os.environ.get("REPRO_BENCH_UNITS", "4"))
BENCH_TICKS = int(os.environ.get("REPRO_BENCH_TICKS", "800"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "2"))

#: Search budget for the baselines' threshold/window random search.
SEARCH_CANDIDATES = 60

DATASET_KINDS = ("tencent", "sysbench", "tpcc")

#: Display names matching the paper's tables.
DATASET_TITLES = {"tencent": "Tencent", "sysbench": "Sysbench", "tpcc": "TPCC"}


def bench_learner(seed: int) -> GeneticThresholdLearner:
    """The GA configuration used by DBCatcher trials at bench scale."""
    return GeneticThresholdLearner(
        population_size=8, n_iterations=4, seed=seed
    )


def baseline_factories():
    """Fresh instances of the five comparison methods, seeded per trial."""
    return {
        "FFT": lambda seed: FFTDetector(),
        "SR": lambda seed: SRDetector(),
        "SR-CNN": lambda seed: SRCNNDetector(seed=seed, epochs=3),
        "OmniAnomaly": lambda seed: OmniAnomalyDetector(seed=seed, epochs=2),
        "JumpStarter": lambda seed: JumpStarterDetector(seed=seed),
    }


@lru_cache(maxsize=None)
def mixed_dataset(kind: str) -> Dataset:
    """The bench-scale mixed dataset for one Table III row (cached)."""
    return build_mixed_dataset(
        kind, seed=1234 + DATASET_KINDS.index(kind),
        n_units=BENCH_UNITS, ticks_per_unit=BENCH_TICKS,
    )


@lru_cache(maxsize=None)
def mixed_split(kind: str):
    """(train, test) halves of the cached mixed dataset."""
    return train_test_split(mixed_dataset(kind))


@lru_cache(maxsize=None)
def variant_dataset(kind: str, periodic: bool) -> Dataset:
    """Dedicated I (irregular) / II (periodic) variant dataset.

    The paper constructs these as their own datasets (Sysbench I/II,
    TPCC I/II from the Table IV spaces; Tencent I/II by RobustPeriod
    classification of many units), so at bench scale every variant gets a
    full complement of units rather than a 40/60 sliver of the mixed one.
    """
    return build_mixed_dataset(
        kind,
        seed=4321 + 2 * DATASET_KINDS.index(kind) + int(periodic),
        n_units=BENCH_UNITS,
        ticks_per_unit=BENCH_TICKS,
        periodic_fraction=1.0 if periodic else 0.0,
    )


@lru_cache(maxsize=None)
def variant_split(kind: str, periodic: bool):
    """(train, test) of the dedicated I / II variant dataset."""
    return train_test_split(variant_dataset(kind, periodic))


def run_methods(
    train: Dataset,
    test: Dataset,
    n_trials: int = BENCH_TRIALS,
    seed: int = 0,
    methods: List[str] | None = None,
) -> List[MethodSummary]:
    """The Section IV protocol over one train/test pair, all methods.

    Order matches the paper's tables: FFT, SR, SR-CNN, OmniAnomaly,
    JumpStarter, DBCatcher.
    """
    factories = baseline_factories()
    chosen = methods if methods is not None else list(factories) + ["DBCatcher"]
    summaries = []
    for name in chosen:
        if name == "DBCatcher":
            def trial(rng, _name=name):
                trial_seed = int(rng.integers(0, 2**31 - 1))
                return run_dbcatcher_trial(
                    default_config(), train, test,
                    learner=bench_learner(trial_seed),
                )
        else:
            factory = factories[name]

            def trial(rng, _factory=factory):
                trial_seed = int(rng.integers(0, 2**31 - 1))
                return run_baseline_trial(
                    _factory(trial_seed), train, test, rng=rng,
                    n_candidates=SEARCH_CANDIDATES,
                )
        summaries.append(summarize(repeat(trial, n_trials=n_trials, seed=seed)))
    return summaries


@lru_cache(maxsize=None)
def mixed_experiment(kind: str):
    """Full mixed-dataset comparison (cached; feeds Fig. 8, Tables V/VI)."""
    train, test = mixed_split(kind)
    return tuple(run_methods(train, test, seed=77))


@lru_cache(maxsize=None)
def variant_experiment(kind: str, periodic: bool):
    """Irregular/periodic comparison (cached; Figs. 9/10, Tables VII/VIII)."""
    train, test = variant_split(kind, periodic)
    return tuple(run_methods(train, test, seed=78 + int(periodic)))


def record_bench_result(name: str, **metrics) -> None:
    """Merge one bench's headline metrics into ``$REPRO_BENCH_JSON``.

    A no-op unless the environment variable is set, so interactive runs
    stay file-free.  The file accumulates a ``{bench name: metrics}``
    object across the whole pytest invocation; metrics must be
    JSON-serialisable scalars.
    """
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    results: Dict[str, Dict[str, object]] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            results = json.load(handle)
    results[name] = {
        "scale": {
            "units": BENCH_UNITS,
            "ticks": BENCH_TICKS,
            "trials": BENCH_TRIALS,
        },
        **metrics,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


class LayerTotals:
    """Span hook summing wall seconds per layer (``<layer>.<what>`` names).

    A span counts toward its layer unless its parent is in the same layer,
    so nested stages (``engine.profile`` inside ``engine.correlate``) are
    not counted twice; a span nested in another layer's span counts for
    both layers (``ingest.ticks`` inside ``http.request``).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._lock = threading.Lock()  # HTTP handler threads report too

    def __call__(self, record) -> None:
        layer = record.name.partition(".")[0]
        if record.parent is not None and record.parent.partition(".")[0] == layer:
            return
        with self._lock:
            self.seconds[layer] = self.seconds.get(layer, 0.0) + record.wall_seconds


def scale_note() -> str:
    """One-line provenance note printed by every bench."""
    return (
        f"[bench scale: {BENCH_UNITS} units x {BENCH_TICKS} ticks, "
        f"{BENCH_TRIALS} trials; paper: 50-100 units, 2.6k-11k ticks, "
        f"20 trials]"
    )
