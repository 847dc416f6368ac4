"""The service-side log channel: ingest events, fuse per-round verdicts.

One :class:`LogChannel` serves a whole fleet.  It lives in the scheduler
process — log events never ride the worker transports, so the KCD
workers (and therefore the correlation verdicts) are untouched whether
the channel runs or not; KCD-only equivalence on log-free streams holds
*by construction*, not by tolerance.

Per unit it keeps a :class:`~repro.logs.templates.TemplateCounter` and a
:class:`~repro.logs.detector.LogFrequencyDetector`; the scheduler feeds
it every tick's events as they are consumed and, after each completed
correlation round, asks it to judge the same ``[start, end)`` span and
fuse the two verdicts (:func:`repro.ensemble.fuse_round`).  When only
the log channel fires, the channel also builds the log-evidence
:class:`~repro.rca.attribution.Attribution` that lets the incident
correlator thread the round into an incident the same way a
decorrelation verdict would.

All channel work is timed on the ``logs.ingest`` and ``logs.fuse``
spans — the in-run layer cost ``benchmarks/test_layer_profile.py``
holds to the same <=5% budget as persistence and the ingestion API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.detector import UnitDetectionResult
from repro.ensemble import FusedVerdict, fuse_round
from repro.logs.detector import LogFrequencyDetector, LogVerdict
from repro.logs.events import LogEvent
from repro.logs.templates import TemplateCounter
from repro.obs import runtime as obs
from repro.rca.attribution import Attribution

__all__ = ["LogChannel"]


class LogChannel:
    """Fleet-wide log ingestion, template counting and verdict fusion.

    Parameters
    ----------
    units:
        Unit name -> database count, as the tick source exposes it.
    reference_windows:
        Tick length counts are normalized to per unit — the detector's
        ``initial_window`` — either one shared value or a per-unit map.
    threshold_sigma, min_count, warmup_rounds:
        Forwarded to each unit's
        :class:`~repro.logs.detector.LogFrequencyDetector`.
    """

    def __init__(
        self,
        units: Mapping[str, int],
        reference_windows: Union[int, Mapping[str, int]] = 20,
        threshold_sigma: float = 6.0,
        min_count: int = 4,
        warmup_rounds: int = 2,
    ):
        if not units:
            raise ValueError("the channel needs at least one unit")
        self._counters: Dict[str, TemplateCounter] = {}
        self._detectors: Dict[str, LogFrequencyDetector] = {}
        self._next_seq: Dict[str, int] = {}
        for name, n_databases in units.items():
            window = (
                reference_windows
                if isinstance(reference_windows, int)
                else reference_windows[name]
            )
            self._counters[name] = TemplateCounter(n_databases)
            self._detectors[name] = LogFrequencyDetector(
                n_databases,
                reference_window=window,
                threshold_sigma=threshold_sigma,
                min_count=min_count,
                warmup_rounds=warmup_rounds,
            )
            self._next_seq[name] = 0

    @property
    def unit_names(self) -> Tuple[str, ...]:
        return tuple(self._counters)

    def events_counted(self, unit: str) -> int:
        return self._counters[unit].events_counted

    def ingest(self, unit: str, seq: int, events: Iterable[LogEvent]) -> int:
        """Count one tick's events; returns how many were counted.

        Re-deliveries and out-of-order ticks (chaos duplicates, retry
        replays) are dropped by sequence number, so every tick's events
        are counted at most once however the transport misbehaved.
        """
        counter = self._counters.get(unit)
        if counter is None:
            return 0
        if seq < self._next_seq[unit]:
            return 0
        self._next_seq[unit] = seq + 1
        if not events:
            return 0
        with obs.span("logs.ingest"):
            counted = counter.observe(seq, events)
        if counted:
            obs.counter("logs.events_ingested").increment(counted)
        return counted

    def judge(self, unit: str, start: int, end: int) -> LogVerdict:
        """Judge one tick span on log evidence alone."""
        counts = self._counters[unit].window_counts(start, end)
        verdict = self._detectors[unit].judge(start, end, counts)
        self._counters[unit].trim(end)
        return verdict

    def fuse(
        self, unit: str, result: UnitDetectionResult
    ) -> Tuple[FusedVerdict, Optional[Attribution]]:
        """Fuse one completed correlation round with the log verdict.

        Returns the fused verdict plus, when the round is abnormal on
        log evidence *alone*, the log-side attribution that stands in
        for the correlation attribution the round cannot have.
        """
        with obs.span("logs.fuse"):
            verdict = self.judge(unit, result.start, result.end)
            fused = fuse_round(unit, result, verdict)
            attribution: Optional[Attribution] = None
            if verdict.abnormal and not result.abnormal_databases:
                attribution = self._log_attribution(unit, verdict)
        obs.counter("logs.rounds_fused").increment()
        if fused.log_only:
            obs.counter("logs.log_only_rounds").increment()
        return fused, attribution

    @staticmethod
    def _log_attribution(unit: str, verdict: LogVerdict) -> Attribution:
        """Culprit evidence from log bursts, on the attribution schema.

        Database shares come from the per-database burst scores;
        template shares (aggregated across databases, weighted by the
        database's score) stand in for KPI shares under a ``log:``
        prefix so downstream consumers can tell the modalities apart.
        """
        total_score = sum(verdict.scores.values())
        database_scores = tuple(
            sorted(
                (
                    (db, score / total_score)
                    for db, score in verdict.scores.items()
                ),
                key=lambda item: (-item[1], item[0]),
            )
        )
        template_weight: Dict[str, float] = {}
        for db, templates in verdict.culprit_templates.items():
            db_score = verdict.scores[db]
            for template, share in templates:
                key = f"log:{template}"
                template_weight[key] = (
                    template_weight.get(key, 0.0) + share * db_score
                )
        weight_total = sum(template_weight.values())
        kpi_scores = tuple(
            sorted(
                (
                    (template, weight / weight_total)
                    for template, weight in template_weight.items()
                ),
                key=lambda item: (-item[1], item[0]),
            )
        )
        return Attribution(
            unit=unit,
            start=verdict.start,
            end=verdict.end,
            database_scores=database_scores,
            kpi_scores=kpi_scores,
            pair_scores=(),
            strength=verdict.strength,
            abnormal_databases=verdict.abnormal_databases,
        )
