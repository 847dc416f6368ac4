"""DBCatcher streaming detector.

Ties the four modules of Figure 6 together.  Monitoring ticks enter through
:meth:`DBCatcher.process`; whenever the initial window ``W`` fills, a
*detection round* runs: the correlation-measurement module (the KCD engine
selected by ``DBCatcherConfig.backend``) builds the ``Q`` correlation
matrices, Algorithm 1 assigns correlation levels, and the Fig. 7 state
machine resolves each database to HEALTHY or ABNORMAL — expanding the
window by ``Delta`` (waiting for more ticks if necessary) while any
database stays OBSERVABLE.  Each resolved database yields a
:class:`~repro.core.records.JudgementRecord`; completed rounds advance the
stream cursor by the round's final window size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.levels import calculate_levels
from repro.core.matrices import CorrelationMatrix
from repro.core.records import DatabaseState, JudgementRecord
from repro.core.streams import KPIStreams
from repro.core.window import FlexibleWindow
from repro.obs import runtime as obs

__all__ = ["DBCatcher", "UnitDetectionResult"]

#: Sentinel distinguishing "kwarg omitted" from an explicit ``None`` in
#: :meth:`DBCatcher.from_state`'s ``history_limit`` retention override.
_UNSET = object()


@dataclass(frozen=True)
class UnitDetectionResult:
    """Outcome of one completed detection round for a unit.

    Parameters
    ----------
    start, end:
        Absolute tick span ``[start, end)`` the round consumed; ``end -
        start`` is the round's final (possibly expanded) window size.
    records:
        One judgement record per active database, keyed by database index.
    matrices:
        The ``Q`` per-pair KCD correlation matrices of the round's *final*
        evaluated window, in KPI order — the evidence behind the verdict,
        kept so :mod:`repro.rca` can rank culprit databases and KPIs
        without re-running the engine.  ``None`` when the round resolved
        without a correlation pass (degraded telemetry left fewer than two
        judgeable databases).
    active:
        The in-use database mask of the final evaluated window (finite
        data and not deactivated), or ``None`` alongside a ``None``
        ``matrices``.  Attribution must only rank databases that actually
        participated in the correlation evidence.
    """

    start: int
    end: int
    records: Dict[int, JudgementRecord]
    matrices: Optional[Tuple[CorrelationMatrix, ...]] = None
    active: Optional[Tuple[bool, ...]] = None

    @property
    def window_size(self) -> int:
        return self.end - self.start

    @property
    def abnormal_databases(self) -> Tuple[int, ...]:
        """Indices of databases judged abnormal in this round."""
        return tuple(
            sorted(
                db
                for db, record in self.records.items()
                if record.state is DatabaseState.ABNORMAL
            )
        )


@dataclass
class _RoundState:
    """Mutable bookkeeping for the in-progress detection round."""

    start: int
    size: int
    expansions: int = 0
    pending: List[int] = field(default_factory=list)
    records: Dict[int, JudgementRecord] = field(default_factory=dict)
    #: Matrices and mask of the latest evaluated window, retained so the
    #: finished result carries its correlation evidence for RCA.
    matrices: Optional[Tuple[CorrelationMatrix, ...]] = None
    round_active: Optional[Tuple[bool, ...]] = None


class DBCatcher:
    """Online anomaly detector for one cloud-database unit.

    Parameters
    ----------
    config:
        Detector thresholds, window geometry, compute ``backend`` and
        ``history_limit`` — the single construction-time knob surface.
    n_databases:
        Number of databases in the unit.
    active:
        Optional in-use mask; inactive databases neither receive judgements
        nor influence their peers' correlation levels.
    measure:
        Optional replacement correlation measure with signature
        ``measure(x, y, max_delay) -> float``; ``None`` uses the KCD.
        Exists for the Table X comparators (MM-Pearson, MM-DTW); a custom
        measure always runs on the reference engine.

    Notes
    -----
    A detector with ``measure=None`` is picklable (plain config, numpy
    buffers and dataclass records), which is what lets the fleet
    scheduler ship per-unit detectors into worker processes.  A custom
    ``measure`` must itself be picklable to cross that boundary.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import DBCatcher, DBCatcherConfig
    >>> config = DBCatcherConfig(kpi_names=("cpu",), initial_window=8,
    ...                          max_window=16)
    >>> catcher = DBCatcher(config, n_databases=3)
    >>> trend = np.sin(np.linspace(0, 3, 8))
    >>> ticks = np.stack([np.stack([trend + 0.01 * d]) for d in range(3)])
    >>> results = catcher.process(ticks.transpose(2, 0, 1))
    >>> [r.abnormal_databases for r in results]
    [()]
    """

    def __init__(
        self,
        config: DBCatcherConfig,
        n_databases: int,
        active: Optional[Sequence[bool]] = None,
        measure=None,
    ):
        # Local import: repro.engine depends on repro.core.config, so a
        # module-level import here would close an import cycle.
        from repro.engine.base import make_engine

        if n_databases < 2:
            raise ValueError("UKPIC needs at least two databases in a unit")
        self._config = config
        self._n_databases = n_databases
        if active is None:
            self._active = np.ones(n_databases, dtype=bool)
        else:
            self._active = np.asarray(active, dtype=bool)
            if self._active.shape != (n_databases,):
                raise ValueError("active mask must have one entry per database")
        self._measure = measure
        self._engine = make_engine(config.backend, measure=measure)
        self._streams = KPIStreams(n_databases, config.kpi_names)
        self._window_ctl = FlexibleWindow(config)
        self._round: Optional[_RoundState] = None
        self._cursor = 0
        self._history: List[JudgementRecord] = []
        self._results: List[UnitDetectionResult] = []
        self._rounds_completed = 0

    @property
    def config(self) -> DBCatcherConfig:
        return self._config

    @property
    def n_databases(self) -> int:
        return self._n_databases

    @property
    def engine(self):
        """The KCD compute engine this detector runs rounds through."""
        return self._engine

    @property
    def history(self) -> Tuple[JudgementRecord, ...]:
        """All judgement records emitted so far, in completion order."""
        return tuple(self._history)

    @property
    def cursor(self) -> int:
        """Absolute tick where the next detection round starts."""
        return self._cursor

    @property
    def next_tick(self) -> int:
        """Absolute index one past the newest tick this detector has seen."""
        return self._streams.next_tick

    @property
    def results(self) -> Tuple[UnitDetectionResult, ...]:
        """All completed rounds so far."""
        return tuple(self._results)

    def set_active(self, active: Sequence[bool]) -> None:
        """Update the in-use mask (databases expanded or reduced).

        Takes effect from the next detection round; the in-progress round
        keeps its membership so its records stay internally consistent.
        """
        mask = np.asarray(active, dtype=bool)
        if mask.shape != (self._n_databases,):
            raise ValueError("active mask must have one entry per database")
        self._active = mask

    def install_config(self, config: DBCatcherConfig) -> None:
        """Swap in a new configuration (e.g. learned thresholds).

        The KPI set and window geometry must stay compatible with the data
        already buffered, so only the KPI count is enforced.
        """
        if config.n_kpis != self._config.n_kpis:
            raise ValueError("new config must keep the same number of KPIs")
        from repro.engine.base import make_engine

        self._config = config
        self._window_ctl = FlexibleWindow(config)
        self._engine = make_engine(config.backend, measure=self._measure)

    def process(
        self, samples: np.ndarray, time_axis: int = 0
    ) -> List[UnitDetectionResult]:
        """Feed monitoring data and run every round it unblocks.

        The one ingestion entry point: a 2-D array is a single tick, a 3-D
        array is a block of ticks.

        Parameters
        ----------
        samples:
            ``(n_databases, n_kpis)`` for one tick, or a 3-D block whose
            time axis is named by ``time_axis``.
        time_axis:
            Position of the tick axis in a 3-D block: ``0`` (default) for
            streaming layout ``(n_ticks, n_databases, n_kpis)``; ``-1`` or
            ``2`` for the :mod:`repro.datasets` layout ``(n_databases,
            n_kpis, n_ticks)``.  Ignored for single ticks.

        Returns
        -------
        list of UnitDetectionResult
            Rounds completed by this data (possibly empty; more than one
            when a backlog unblocks several rounds at once).
        """
        data = np.asarray(samples, dtype=np.float64)
        if data.ndim == 2:
            self._streams.append(data)
            return self._drain()
        if data.ndim != 3:
            raise ValueError(
                "expected one (n_databases, n_kpis) tick or a 3-D block, "
                f"got shape {data.shape}"
            )
        axis = data.ndim + time_axis if time_axis < 0 else time_axis
        if axis == 0:
            block = data
        elif axis == 2:
            block = data.transpose(2, 0, 1)
        else:
            raise ValueError(
                f"time_axis must be 0 or -1/2 for a 3-D block, got {time_axis}"
            )
        self._streams.extend(block)
        return self._drain()

    def _drain(self) -> List[UnitDetectionResult]:
        """Run detection rounds while buffered data allows."""
        completed: List[UnitDetectionResult] = []
        while True:
            result = self._step_round()
            if result is None:
                break
            completed.append(result)
        return completed

    def _step_round(self) -> Optional[UnitDetectionResult]:
        """Advance the current round; return it if it completed."""
        if self._round is None:
            if self._streams.next_tick < self._cursor + self._config.initial_window:
                # Not enough data to even open a round; deferring creation
                # lets set_active() changes apply up to the moment the
                # round actually starts.
                return None
            pending = [db for db in range(self._n_databases) if self._active[db]]
            if len(pending) < 2:
                # Correlation evidence needs at least two active databases;
                # with fewer, DBCatcher has nothing to compare and idles.
                # Idling must not hoard ticks: consume them unjudged so a
                # long-running serve loop keeps the buffer bounded, and a
                # later re-activation starts a fresh window from live data.
                self._cursor = self._streams.next_tick
                self._streams.trim(self._cursor)
                return None
            self._round = _RoundState(
                start=self._cursor,
                size=self._config.initial_window,
                pending=pending,
            )
        state = self._round
        while True:
            end = state.start + state.size
            if self._streams.next_tick < end:
                return None  # blocked until more ticks arrive
            with obs.span("engine.window"):
                window = self._streams.window(state.start, end)
                # Degraded-telemetry guard: a database with NaN/inf anywhere
                # in this window is treated as temporarily inactive for the
                # round.  Shrinking the mask keeps non-finite values out of
                # ``minmax_normalize`` (which would silently flatten the
                # series and mis-score the database as maximally
                # decorrelated) and out of its peers' correlation evidence.
                round_active = self._active & self._streams.finite_databases(
                    state.start, end
                )
            if not np.array_equal(round_active, self._active):
                # Databases without usable data this round get no
                # judgement record: a data gap is absence of evidence,
                # not evidence of health or abnormality.
                state.pending = [db for db in state.pending if round_active[db]]
            if int(round_active.sum()) < 2 or not state.pending:
                # Fewer than two databases with usable data (or nothing
                # left to judge): no correlation evidence is obtainable,
                # so resolve the round with whatever was already recorded
                # instead of expanding forever on a degraded window.
                return self._finish_round(state)
            with obs.span("engine.correlate"):
                matrices = self._engine.matrices(
                    window,
                    self._config.kpi_names,
                    max_delay=self._config.max_delay(state.size),
                    active=round_active,
                )
            state.matrices = tuple(matrices)
            state.round_active = tuple(bool(flag) for flag in round_active)
            with obs.span("levels.threshold"):
                levels = calculate_levels(
                    matrices, self._config, active=round_active
                )
            still_pending: List[int] = []
            with obs.span("levels.decide"):
                for db in state.pending:
                    decision = self._window_ctl.decide(
                        levels, db, state.size, state.expansions
                    )
                    if decision.final:
                        state.records[db] = JudgementRecord(
                            database=db,
                            window_start=state.start,
                            window_end=end,
                            state=decision.state,
                            expansions=decision.expansions,
                            kpi_levels=levels.for_database(db),
                        )
                    else:
                        still_pending.append(db)
            if not still_pending:
                return self._finish_round(state)
            state.pending = still_pending
            state.size = self._window_ctl.expanded_size(state.size)
            state.expansions += 1
            obs.counter("detector.window_expansions").increment()

    def _finish_round(self, state: _RoundState) -> UnitDetectionResult:
        end = state.start + state.size
        result = UnitDetectionResult(
            start=state.start,
            end=end,
            records=dict(state.records),
            matrices=state.matrices,
            active=state.round_active,
        )
        self._results.append(result)
        self._rounds_completed += 1
        self._history.extend(
            state.records[db] for db in sorted(state.records)
        )
        self._enforce_history_limit()
        self._cursor = end
        self._round = None
        self._streams.trim(self._cursor)
        obs.counter("detector.rounds_completed").increment()
        obs.counter("detector.abnormal_verdicts").increment(
            len(result.abnormal_databases)
        )
        obs.gauge("detector.buffered_ticks").set(len(self._streams))
        return result

    def _enforce_history_limit(self) -> None:
        limit = self._config.history_limit
        if limit is None:
            return
        if len(self._results) > limit:
            del self._results[: len(self._results) - limit]
        record_limit = limit * self._n_databases
        if len(self._history) > record_limit:
            del self._history[: len(self._history) - record_limit]

    def to_state(self, *, healthy_matrices: bool = True) -> Dict[str, Any]:
        """Versioned, JSON-friendly durable state (see :mod:`repro.persist`).

        Captures everything a warm restart needs: config (including
        tuned thresholds), active mask, stream cursor and buffered tail,
        and retained judgement records and round results.  An in-progress
        round is deliberately *not* captured — it is a pure function of the
        buffered ticks past the cursor, so :meth:`from_state` re-derives it
        deterministically the moment data resumes.  Engines are
        stateless, so there is nothing of theirs to capture.

        ``healthy_matrices=False`` skips encoding the correlation
        matrices of retained *healthy* rounds; the persistence layer
        would strip them at the snapshot boundary anyway, so the export
        path avoids ever paying for them.
        """
        from repro.persist import codec

        if self._measure is not None:
            raise ValueError(
                "a detector with a custom measure cannot be persisted; "
                "only config-described detectors round-trip through JSON"
            )
        return {
            "version": codec.STATE_VERSION,
            "config": codec.encode_config(self._config),
            "n_databases": self._n_databases,
            "active": [bool(flag) for flag in self._active],
            "cursor": self._cursor,
            "rounds_completed": self._rounds_completed,
            "streams": self._streams.to_state(),
            "history": [codec.encode_record(r) for r in self._history],
            "results": [
                codec.encode_result(
                    r,
                    include_matrices=(
                        healthy_matrices or bool(r.abnormal_databases)
                    ),
                )
                for r in self._results
            ],
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, Any], history_limit: object = _UNSET
    ) -> "DBCatcher":
        """Rebuild a detector from a :meth:`to_state` payload.

        Parameters
        ----------
        state:
            A version-1 state payload.  The detector timing totals that
            payloads written before 1.9 carry are ignored.
        history_limit:
            Optional retention override (the worker pool owns retention
            policy, so a restored shard obeys the pool, not the config
            it was persisted under).  Omit to keep the persisted value.
        """
        from repro.persist import codec

        if state.get("version") != codec.STATE_VERSION:
            raise ValueError(
                f"unsupported detector state version {state.get('version')!r}"
            )
        config = codec.decode_config(state["config"])
        if history_limit is not _UNSET:
            config = replace(config, history_limit=history_limit)
        detector = cls(
            config,
            n_databases=int(state["n_databases"]),
            active=[bool(flag) for flag in state["active"]],
        )
        detector._cursor = int(state["cursor"])
        detector._rounds_completed = int(state["rounds_completed"])
        detector._streams.load_state(state["streams"])
        detector._history = [
            codec.decode_record(r) for r in state["history"]
        ]
        detector._results = [
            codec.decode_result(r) for r in state["results"]
        ]
        detector._enforce_history_limit()
        return detector

    def apply_result(self, result: UnitDetectionResult) -> None:
        """Fast-forward over an already-computed round (WAL replay).

        Recovery applies recorded rounds without recomputation: the
        result and its records join the retained history, the cursor and
        stream base jump to the round's end, and ingestion resumes from
        there.  Rounds must be applied in order from the current cursor.
        """
        if result.start != self._cursor:
            raise ValueError(
                f"round starts at tick {result.start} but the cursor is at "
                f"{self._cursor}; WAL replay must be gapless and in order"
            )
        self._round = None
        self._results.append(result)
        self._rounds_completed += 1
        self._history.extend(result.records[db] for db in sorted(result.records))
        self._enforce_history_limit()
        self._cursor = result.end
        self._streams.fast_forward(result.end)

    def export_state(self) -> Dict[str, object]:
        """Operational snapshot for the service's worker telemetry.

        Everything here is a plain scalar/dict so the snapshot crosses
        process boundaries and serializes to JSON without ceremony.
        """
        return {
            "cursor": self._cursor,
            "next_tick": self._streams.next_tick,
            "buffered_ticks": len(self._streams),
            "round_open": self._round is not None,
            "rounds_completed": self._rounds_completed,
            "records_retained": len(self._history),
        }

    def average_window_size(self) -> float:
        """Mean final window size over all completed rounds.

        The paper reports this stays close to ``W`` because only a small
        fraction of rounds expands; the §IV-D efficiency benches check it.
        """
        if not self._results:
            return float(self._config.initial_window)
        return float(np.mean([r.window_size for r in self._results]))
