"""Adaptive threshold learning (Section III-D).

The genome encodes everything the flexible-window judgement depends on:
the per-KPI correlation thresholds ``alpha_i``, the tolerance threshold
``theta`` and the maximum tolerance deviation count.  Three searchers
optimize the same detection-F-Measure objective over recent labelled data:

* :class:`~repro.tuning.genetic.GeneticThresholdLearner` — Algorithm 2,
  DBCatcher's learner;
* :class:`~repro.tuning.annealing.AnnealingThresholdLearner` — the
  simulated-annealing comparator of Figure 11;
* :class:`~repro.tuning.random_search.RandomThresholdLearner` — the
  random-search comparator of Figure 11.

Fitness evaluation scales through
:class:`~repro.tuning.vectorized.VectorizedObjective` (one batched-engine
pass per replay window, whole populations scored in array passes), the
GA's window-sharded ``jobs`` pool
(:class:`~repro.tuning.genetic.PopulationEvaluator`) and its
checkpoint/resume support
(:class:`~repro.tuning.checkpoint.TuningCheckpoint`).
"""

from repro.tuning.annealing import AnnealingThresholdLearner
from repro.tuning.checkpoint import TuningCheckpoint
from repro.tuning.genetic import GeneticThresholdLearner, PopulationEvaluator
from repro.tuning.genome import ThresholdGenome
from repro.tuning.objective import DetectionObjective
from repro.tuning.random_search import RandomThresholdLearner
from repro.tuning.vectorized import VectorizedObjective

__all__ = [
    "ThresholdGenome",
    "DetectionObjective",
    "VectorizedObjective",
    "PopulationEvaluator",
    "TuningCheckpoint",
    "GeneticThresholdLearner",
    "AnnealingThresholdLearner",
    "RandomThresholdLearner",
]
