"""Online drift-triggered threshold retraining for the fleet service.

The paper's feedback loop (Section III-D / Fig. 6) assumes one detector
and a DBA marking its records.  At fleet scale the loop has to run per
unit, off the hot path, and swap tuned thresholds into *live* detectors
without perturbing the detection stream.  :class:`TuningCoordinator`
owns that loop for :class:`~repro.service.scheduler.DetectionService`:

* it observes every dispatched batch (raw ticks feed per-unit replay
  buffers) and every completed round (records are marked against ground
  truth and scored over a sliding window with the
  :mod:`repro.eval.metrics` confusion helpers);
* when a unit's windowed F-Measure decays below ``min_f_measure``, it
  launches a :class:`~repro.tuning.GeneticThresholdLearner` over the
  unit's replay buffer — inline (``background=False``, deterministic for
  the golden fixture) or on a daemon thread (``background=True``, the
  production shape);
* finished searches are *installed between rounds only*: the scheduler
  polls the coordinator immediately before each pool round-trip, so a
  swap can never tear a flexible-window round in half.  Workers receive
  the new config through the pools' ``install_config`` (which also
  updates crash-restart specs, so a worker death after the swap keeps
  the tuned thresholds).

Retraining seeds are derived per ``(base seed, unit, trigger ordinal)``,
so a seeded service run retunes reproducibly regardless of thread
timing.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import UnitDetectionResult
from repro.core.feedback import DEFAULT_MIN_F_MEASURE, mark_records
from repro.core.records import JudgementRecord
from repro.eval.metrics import ConfusionCounts, scores_from_confusion
from repro.obs import runtime as obs
from repro.tuning import GeneticThresholdLearner, VectorizedObjective

__all__ = ["RetrainEvent", "TuningCoordinator"]

#: Builds a fresh learner for one retrain; receives the derived seed.
LearnerFactory = Callable[[int], GeneticThresholdLearner]


def _default_learner_factory(seed: int) -> GeneticThresholdLearner:
    return GeneticThresholdLearner(
        population_size=8, n_iterations=4, seed=seed
    )


@dataclass(frozen=True)
class RetrainEvent:
    """One completed drift-triggered retrain, as reported to operators."""

    unit: str
    trigger_f_measure: float
    tuned_fitness: float
    generations: int
    swap_seconds: float
    swap_tick: int
    alphas: tuple
    theta: float
    tolerance: int


@dataclass
class _UnitState:
    config: DBCatcherConfig
    labels: np.ndarray
    window: Deque[JudgementRecord]
    replay: Deque[np.ndarray] = field(default_factory=deque)
    replay_ticks: int = 0
    ticks_seen: int = 0
    retrain_count: int = 0
    in_flight: bool = False


class _RetrainJob:
    """One search, runnable inline or as a daemon thread."""

    def __init__(
        self,
        coordinator: "TuningCoordinator",
        unit: str,
        config: DBCatcherConfig,
        values: np.ndarray,
        labels: np.ndarray,
        seed: int,
        trigger_f_measure: float,
    ):
        self.unit = unit
        self.trigger_f_measure = trigger_f_measure
        self.tuned_config: Optional[DBCatcherConfig] = None
        self.tuned_fitness = 0.0
        self.generations = 0
        self.error: Optional[BaseException] = None
        self._coordinator = coordinator
        self._config = config
        self._values = values
        self._labels = labels
        self._seed = seed
        self._thread: Optional[threading.Thread] = None

    def run(self) -> None:
        try:
            with obs.span("tuning.retrain"):
                learner = self._coordinator.learner_factory(self._seed)
                objective = VectorizedObjective(
                    self._config, self._values, self._labels
                )
                genome, fitness = learner.search(objective)
                self.tuned_config = genome.apply_to(self._config)
                self.tuned_fitness = float(fitness)
                trace = learner.last_trace
                self.generations = (
                    len(trace.best_fitness) if trace is not None else 0
                )
        except BaseException as error:  # surfaced by poll(), never lost
            self.error = error

    def start_background(self) -> None:
        self._thread = threading.Thread(
            target=self.run, name=f"retrain-{self.unit}", daemon=True
        )
        self._thread.start()

    def done(self) -> bool:
        return self._thread is None or not self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)


class TuningCoordinator:
    """Watches per-unit drift; retunes and hot-swaps thresholds.

    Parameters
    ----------
    labels:
        Ground truth per unit, ``(n_databases, n_ticks)`` boolean arrays
        indexed by absolute tick — the DBA marks of the paper's feedback
        loop, available up front in replay/simulation deployments.
    learner_factory:
        ``seed -> GeneticThresholdLearner`` for each retrain.  The seed
        is derived deterministically from ``(seed, unit, trigger
        ordinal)``.
    min_f_measure:
        Drift criterion: retrain when the sliding window's F-Measure
        falls below this (paper default 0.75).
    window_records:
        Sliding-window length, in judgement records, for drift scoring.
    min_records:
        Don't score (or trigger) before this many records accumulated —
        an all-but-empty window is noise, not drift.
    replay_ticks:
        Raw ticks retained per unit for the retraining objective.
    background:
        ``True`` runs searches on daemon threads and installs results on
        a later :meth:`poll`; ``False`` retrains inline at observation
        time (deterministic swap ticks, what the golden fixture pins).
    seed:
        Base seed for per-trigger seed derivation.
    """

    def __init__(
        self,
        labels: Dict[str, np.ndarray],
        learner_factory: LearnerFactory = _default_learner_factory,
        min_f_measure: float = DEFAULT_MIN_F_MEASURE,
        window_records: int = 64,
        min_records: int = 16,
        replay_ticks: int = 240,
        background: bool = False,
        seed: int = 0,
    ):
        if not 0.0 < min_f_measure <= 1.0:
            raise ValueError("min_f_measure must lie in (0, 1]")
        if window_records < 1:
            raise ValueError("window_records must be >= 1")
        if min_records < 1:
            raise ValueError("min_records must be >= 1")
        if replay_ticks < 1:
            raise ValueError("replay_ticks must be >= 1")
        self.learner_factory = learner_factory
        self.min_f_measure = min_f_measure
        self.window_records = window_records
        self.min_records = min_records
        self.replay_ticks = replay_ticks
        self.background = background
        self.seed = seed
        self.events: List[RetrainEvent] = []
        self._labels = {
            unit: np.asarray(truth, dtype=bool)
            for unit, truth in labels.items()
        }
        self._units: Dict[str, _UnitState] = {}
        #: The bound worker pool (any pool exposing ``install_config``).
        self._pool: Optional[Any] = None
        self._jobs: List[_RetrainJob] = []

    # -- wiring -----------------------------------------------------------

    def bind(self, pool, configs: Dict[str, DBCatcherConfig]) -> None:
        """Attach to a worker pool for the duration of one service run."""
        self._pool = pool
        self._units = {}
        for unit, config in configs.items():
            if unit not in self._labels:
                continue
            self._units[unit] = _UnitState(
                config=config,
                labels=self._labels[unit],
                window=deque(maxlen=self.window_records),
            )

    # -- durable state ----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Versioned, JSON-friendly durable state (see :mod:`repro.persist`).

        Captures per-unit tuned configs, the marked-record drift windows,
        the replay buffers and the retrain ordinals, plus the completed
        retrain events.  In-flight *background* searches are not
        captured: after a restart the drift trigger simply fires again if
        the decay persists.  Inline mode (``background=False``) never has
        a search open between rounds, so its snapshots are exact.
        """
        from repro.persist import codec

        units: Dict[str, Any] = {}
        for unit, state in self._units.items():
            units[unit] = {
                "config": codec.encode_config(state.config),
                "window": [codec.encode_record(r) for r in state.window],
                "replay": [block.tolist() for block in state.replay],
                "ticks_seen": state.ticks_seen,
                "retrain_count": state.retrain_count,
            }
        return {
            "version": codec.STATE_VERSION,
            "units": units,
            "events": [
                {
                    "unit": event.unit,
                    "trigger_f_measure": event.trigger_f_measure,
                    "tuned_fitness": event.tuned_fitness,
                    "generations": event.generations,
                    "swap_seconds": event.swap_seconds,
                    "swap_tick": event.swap_tick,
                    "alphas": list(event.alphas),
                    "theta": event.theta,
                    "tolerance": event.tolerance,
                }
                for event in self.events
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`to_state` payload.  Call after :meth:`bind`.

        Units absent from the current run's bind are skipped; the pool's
        detectors already carry their tuned configs through their own
        recovered state, so no ``install_config`` round-trip happens
        here.
        """
        from repro.persist import codec

        if state.get("version") != codec.STATE_VERSION:
            raise ValueError(
                f"unsupported coordinator state version {state.get('version')!r}"
            )
        for unit, payload in state["units"].items():
            unit_state = self._units.get(unit)
            if unit_state is None:
                continue
            unit_state.config = codec.decode_config(payload["config"])
            unit_state.window = deque(
                (codec.decode_record(r) for r in payload["window"]),
                maxlen=self.window_records,
            )
            unit_state.replay = deque(
                np.asarray(block, dtype=np.float64)
                for block in payload["replay"]
            )
            unit_state.replay_ticks = sum(
                block.shape[0] for block in unit_state.replay
            )
            unit_state.ticks_seen = int(payload["ticks_seen"])
            unit_state.retrain_count = int(payload["retrain_count"])
        self.events = [
            RetrainEvent(
                unit=str(payload["unit"]),
                trigger_f_measure=float(payload["trigger_f_measure"]),
                tuned_fitness=float(payload["tuned_fitness"]),
                generations=int(payload["generations"]),
                swap_seconds=float(payload["swap_seconds"]),
                swap_tick=int(payload["swap_tick"]),
                alphas=tuple(payload["alphas"]),
                theta=float(payload["theta"]),
                tolerance=int(payload["tolerance"]),
            )
            for payload in state["events"]
        ]

    # -- observation ------------------------------------------------------

    def observe_batch(self, unit: str, block: np.ndarray) -> None:
        """Buffer one dispatched batch (``(n_ticks, n_dbs, n_kpis)``)."""
        state = self._units.get(unit)
        if state is None:
            return
        state.replay.append(block)
        state.replay_ticks += block.shape[0]
        state.ticks_seen += block.shape[0]
        while (
            state.replay_ticks - state.replay[0].shape[0] >= self.replay_ticks
        ):
            dropped = state.replay.popleft()
            state.replay_ticks -= dropped.shape[0]

    def observe_results(
        self, unit: str, results: Sequence[UnitDetectionResult]
    ) -> None:
        """Mark a round's records, update drift, maybe launch a retrain."""
        state = self._units.get(unit)
        if state is None or not results:
            return
        for result in results:
            records = [result.records[db] for db in sorted(result.records)]
            state.window.extend(mark_records(records, state.labels))
        if state.in_flight or len(state.window) < self.min_records:
            return
        f_measure = self._window_f_measure(state)
        if f_measure is None or f_measure >= self.min_f_measure:
            return
        obs.counter("tuning.retrain_triggers").increment()
        self._launch(unit, state, f_measure)

    def poll(self) -> int:
        """Install finished background searches; return swaps performed.

        The scheduler calls this immediately before each pool round-trip,
        which is what makes every swap land *between* rounds.
        """
        installed = 0
        remaining: List[_RetrainJob] = []
        for job in self._jobs:
            if not job.done():
                remaining.append(job)
                continue
            self._install(job)
            installed += 1
        self._jobs = remaining
        return installed

    def drain(self, timeout: Optional[float] = 60.0) -> int:
        """Wait for all in-flight searches and install them (shutdown)."""
        for job in self._jobs:
            job.join(timeout)
        return self.poll()

    # -- internals --------------------------------------------------------

    def _window_f_measure(self, state: _UnitState) -> Optional[float]:
        total = ConfusionCounts()
        for record in state.window:
            tp, fp, tn, fn = record.confusion_cell()
            total = total + ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        if total.tp + total.fn == 0 and total.fp == 0:
            # Clean window, clean verdicts: nothing to learn from.
            return None
        return scores_from_confusion(total).f_measure

    def _launch(
        self, unit: str, state: _UnitState, f_measure: float
    ) -> None:
        if not state.replay:
            return
        block = np.concatenate(list(state.replay), axis=0)
        # Batches stack ticks first; the objective wants the datasets
        # layout (n_databases, n_kpis, n_ticks).
        values = np.ascontiguousarray(block.transpose(1, 2, 0))
        if values.shape[2] < state.config.initial_window:
            return
        start = state.ticks_seen - values.shape[2]
        labels = state.labels[:, start : state.ticks_seen]
        seed = (
            self.seed
            + zlib.crc32(unit.encode("utf-8"))
            + 1000 * state.retrain_count
        )
        state.retrain_count += 1
        state.in_flight = True
        job = _RetrainJob(
            self, unit, state.config, values, labels, seed, f_measure
        )
        if self.background:
            job.start_background()
            self._jobs.append(job)
        else:
            job.run()
            self._install(job)

    def _install(self, job: _RetrainJob) -> None:
        state = self._units[job.unit]
        state.in_flight = False
        if job.error is not None or job.tuned_config is None:
            obs.counter("tuning.retrain_failures").increment()
            return
        swap_started = time.perf_counter()
        if self._pool is not None:
            with obs.span("tuning.swap"):
                self._pool.install_config(job.unit, job.tuned_config)
        swap_seconds = time.perf_counter() - swap_started
        state.config = job.tuned_config
        # The window scored the old thresholds; judging the new ones by
        # it would re-trigger immediately.
        state.window.clear()
        obs.counter("tuning.swaps").increment()
        obs.gauge("tuning.last_fitness").set(job.tuned_fitness)
        self.events.append(
            RetrainEvent(
                unit=job.unit,
                trigger_f_measure=job.trigger_f_measure,
                tuned_fitness=job.tuned_fitness,
                generations=job.generations,
                swap_seconds=swap_seconds,
                swap_tick=state.ticks_seen,
                alphas=job.tuned_config.alphas,
                theta=job.tuned_config.theta,
                tolerance=job.tuned_config.max_tolerance_deviations,
            )
        )
