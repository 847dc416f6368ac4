"""Detection-performance objectives shared by all threshold searchers.

An individual's fitness is the F-Measure DBCatcher achieves with the
individual's thresholds over the most recent labelled period — the paper's
"judgement records of the recent period".  :class:`DetectionObjective`
evaluates a genome by re-running the streaming detector over the replay
data with the candidate thresholds installed; its vectorized twin lives in
:mod:`repro.tuning.vectorized`.

Both share :class:`ReplayObjective`, the surface the searchers and the
sharded :class:`~repro.tuning.genetic.PopulationEvaluator` use: integer
confusion counts per genome, a fitness memo, and ``shard(lo, hi)``
views over contiguous replay windows.  Counts are integers and add across
windows exactly, so fitness is the same however the windows are split.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher
from repro.eval.adjust import adjusted_confusion_from_records
from repro.eval.metrics import ConfusionCounts, scores_from_confusion
from repro.tuning.genome import ThresholdGenome

__all__ = ["ReplayObjective", "DetectionObjective"]

#: ``confusion_counts`` output columns.
COUNT_FIELDS = ("tp", "fp", "tn", "fn")

ConfusionFn = Callable[[Sequence[ThresholdGenome]], np.ndarray]


def _genome_key(genome: ThresholdGenome) -> Tuple:
    """Memo identity of a genome (theta rounded like the config does)."""
    return (genome.alphas, round(genome.theta, 6), genome.tolerance)


def _replay_windows(
    config: DBCatcherConfig, values, labels
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Validated ``(values, labels)`` lists, one entry per replay window."""
    value_list = values if isinstance(values, (list, tuple)) else [values]
    label_list = labels if isinstance(labels, (list, tuple)) else [labels]
    if len(value_list) != len(label_list):
        raise ValueError("values and labels lists must have equal length")
    checked_values: List[np.ndarray] = []
    checked_labels: List[np.ndarray] = []
    for raw_values, raw_labels in zip(value_list, label_list):
        data = np.asarray(raw_values, dtype=np.float64)
        truth = np.asarray(raw_labels, dtype=bool)
        if data.ndim != 3:
            raise ValueError(
                f"values must be (n_databases, n_kpis, n_ticks), got {data.shape}"
            )
        if data.shape[1] != config.n_kpis:
            raise ValueError(
                f"values carry {data.shape[1]} KPIs but config has {config.n_kpis}"
            )
        if truth.shape != (data.shape[0], data.shape[2]):
            raise ValueError("labels must be (n_databases, n_ticks) matching values")
        if data.shape[2] < config.initial_window:
            raise ValueError("replay window shorter than the detector's initial window")
        if data.shape[0] < 2:
            raise ValueError("UKPIC needs at least two databases in a unit")
        checked_values.append(data)
        checked_labels.append(truth)
    if not checked_values:
        raise ValueError("objective needs at least one replay window")
    return checked_values, checked_labels


class ReplayObjective:
    """F-Measure of a threshold genome over labelled replay windows.

    Parameters
    ----------
    config:
        Template configuration; window geometry and KPI names come from
        here, only the thresholds vary per genome.
    values:
        Replay KPI data of shape ``(n_databases, n_kpis, n_ticks)``, or a
        list of such arrays (one per unit) to fit thresholds over a whole
        dataset.
    labels:
        Ground truth of shape ``(n_databases, n_ticks)`` (or a matching
        list).

    Subclasses implement :meth:`confusion_counts`.  Evaluations are
    memoized per genome: the population-based searchers re-visit elite
    individuals every generation.
    """

    def __init__(self, config: DBCatcherConfig, values, labels):
        self._values, self._labels = _replay_windows(config, values, labels)
        self._config = config
        self._cache: Dict[Tuple, float] = {}
        #: Number of non-memoized fitness evaluations performed.
        self.evaluations = 0

    @property
    def config(self) -> DBCatcherConfig:
        return self._config

    @property
    def n_kpis(self) -> int:
        return self._config.n_kpis

    def window_points(self) -> List[int]:
        """Data points per replay window: the sharding weights."""
        return [int(values.size) for values in self._values]

    def shard(self, lo: int, hi: int) -> "ReplayObjective":
        """This objective restricted to replay windows ``[lo, hi)``.

        A view: whatever the objective precomputed per window is shared,
        never rebuilt.  The view starts with an empty memo.
        """
        view = copy.copy(self)
        view._values = self._values[lo:hi]
        view._labels = self._labels[lo:hi]
        view._cache = {}
        view.evaluations = 0
        return view

    def confusion_counts(self, genomes: Sequence[ThresholdGenome]) -> np.ndarray:
        """Segment-adjusted ``(tp, fp, tn, fn)`` per genome, summed over
        every replay window: an ``(n_genomes, 4)`` int64 array."""
        raise NotImplementedError

    def __call__(self, genome: ThresholdGenome) -> float:
        """Fitness of one genome: detection F-Measure on the replay data."""
        return self.evaluate_population([genome])[0]

    def evaluate_population(self, population: Sequence[ThresholdGenome]) -> List[float]:
        """Fitness of every genome; unseen genomes are counted in one call."""
        return self._memoized(population, self.confusion_counts)

    def _memoized(
        self, population: Sequence[ThresholdGenome], confusion_counts: ConfusionFn
    ) -> List[float]:
        """Fitness from the memo, counting unseen genomes with
        ``confusion_counts``: this objective's own, or the sharded
        evaluator's (its in-process shard, or the sum over its workers).
        Either way the memo and :attr:`evaluations` stay with this
        object."""
        missing: List[ThresholdGenome] = []
        missing_keys = set()
        for genome in population:
            key = _genome_key(genome)
            if key not in self._cache and key not in missing_keys:
                missing_keys.add(key)
                missing.append(genome)
        if missing:
            for genome, row in zip(missing, confusion_counts(missing)):
                cell = ConfusionCounts(*(int(count) for count in row))
                self._cache[_genome_key(genome)] = scores_from_confusion(cell).f_measure
                self.evaluations += 1
        return [self._cache[_genome_key(genome)] for genome in population]


class DeferredObjective(ReplayObjective):
    """Validated replay windows whose ``kind`` objective is built per shard.

    ``shard(lo, hi)`` constructs ``kind`` over windows ``[lo, hi)``, so a
    sharded evaluator builds each shard where it runs and nothing builds
    the whole objective in the parent.
    """

    def __init__(self, kind: type, config: DBCatcherConfig, values, labels):
        super().__init__(config, values, labels)
        self._kind = kind

    def shard(self, lo: int, hi: int) -> ReplayObjective:
        return self._kind(self._config, self._values[lo:hi], self._labels[lo:hi])


class DetectionObjective(ReplayObjective):
    """Fitness by full streaming-detector replay, one run per genome."""

    def confusion_counts(self, genomes: Sequence[ThresholdGenome]) -> np.ndarray:
        rows = np.zeros((len(genomes), len(COUNT_FIELDS)), dtype=np.int64)
        for row, genome in zip(rows, genomes):
            candidate = genome.apply_to(self._config)
            for values, labels in zip(self._values, self._labels):
                detector = DBCatcher(candidate, n_databases=values.shape[0])
                detector.process(values, time_axis=-1)
                # Fitness uses the same segment-adjusted convention the
                # evaluation reports, so the GA optimizes what is measured.
                counts = adjusted_confusion_from_records(detector.history, labels)
                row += [getattr(counts, name) for name in COUNT_FIELDS]
        return rows
