"""Fleet scheduler: the online multi-unit detection service.

:class:`DetectionService` wires the subsystem together — tick source ->
ingestion bridge (bounded queues, backpressure) -> sharded worker pool ->
alert pipeline — and runs the whole fleet to completion of the source (or
a tick budget).  The §IV-D4 deployment in miniature: many units' detectors
screened concurrently, results surfacing as alerts while operational
counters accumulate in the metrics registry and, when observability is
enabled, ``<layer>.<what>`` spans time each stage.

:func:`detect_fleet` is the offline convenience over the same machinery:
shard a saved dataset across ``ServiceConfig.n_workers`` workers and get
back per-unit verdicts bit-identical to running ``DBCatcher.process`` on
each unit serially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher, UnitDetectionResult
from repro.core.records import JudgementRecord
from repro.obs import runtime as obs
from repro.persist.codec import decode_config
from repro.persist.store import FleetStateStore
from repro.service.alerts import Alert, AlertPipeline, AlertSink
from repro.service.config import ServiceConfig
from repro.service.metrics import MetricsRegistry
from repro.service.queues import IngestionBridge
from repro.service.protocols import TickSource
from repro.service.sources import ReplaySource, TickEvent
from repro.service.tuning import RetrainEvent, TuningCoordinator
from repro.service.workers import UnitSpec, make_pool

if TYPE_CHECKING:  # imported lazily at runtime: repro.rca pulls in sources
    from repro.ensemble import FusedVerdict
    from repro.logs.channel import LogChannel
    from repro.logs.events import LogBook
    from repro.rca.incidents import Incident
    from repro.rca.topology import Topology

__all__ = ["ServiceReport", "DetectionService", "detect_fleet"]

ConfigLike = Union[
    DBCatcherConfig,
    Dict[str, DBCatcherConfig],
    Callable[[str, int], DBCatcherConfig],
]


@dataclass
class ServiceReport:
    """What one service run did, in numbers and verdicts.

    ``results`` is only populated when the run collected them (the
    default); a true fire-and-forget deployment can disable collection
    and rely on sinks alone.  ``fused_verdicts`` mirrors ``results``
    round for round when the run fused the log channel
    (``ServiceConfig.log_ensemble``); otherwise it stays empty.
    """

    results: Dict[str, List[UnitDetectionResult]] = field(default_factory=dict)
    fused_verdicts: Dict[str, List["FusedVerdict"]] = field(default_factory=dict)
    alerts: List[Alert] = field(default_factory=list)
    ticks_ingested: int = 0
    ticks_dropped: int = 0
    ticks_lost: int = 0
    ticks_stale: int = 0
    rounds_completed: int = 0
    alerts_emitted: int = 0
    worker_restarts: int = 0
    kill_drills: int = 0
    recovered_rounds: int = 0
    snapshots_written: int = 0
    retrains: List[RetrainEvent] = field(default_factory=list)
    threshold_swaps: int = 0
    incidents: List["Incident"] = field(default_factory=list)
    sequence_gaps: Dict[str, int] = field(default_factory=dict)
    stale_ticks: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)

    def records_for(self, unit: str) -> List[JudgementRecord]:
        """Judgement records of one unit, in the detector's history order.

        Matches :attr:`DBCatcher.history` — rounds in completion order,
        databases sorted within a round — so the evaluation helpers that
        score histories work unchanged on fleet output.
        """
        records: List[JudgementRecord] = []
        for result in self.results.get(unit, []):
            records.extend(result.records[db] for db in sorted(result.records))
        return records

    @property
    def total_rounds(self) -> int:
        return sum(len(rounds) for rounds in self.results.values())


class _QueuedTick:
    """A tick waiting in the bridge, stamped with its place in the run.

    ``ordinal`` counts every event the run consumed, replayed ones
    included, so it is the tick's position in the stream whatever the
    batch boundaries; ``offered_at`` starts the round's verdict-lag
    clock.
    """

    __slots__ = ("unit", "seq", "sample", "ordinal", "offered_at")

    def __init__(self, event: TickEvent, ordinal: int, offered_at: float):
        self.unit = event.unit
        self.seq = event.seq
        self.sample = event.sample
        self.ordinal = ordinal
        self.offered_at = offered_at


class _PersistenceDriver:
    """Scheduler-side durability: WAL appends per dispatch, periodic snapshots.

    Completed rounds hit the WAL *before* they reach the alert pipeline,
    so any verdict an operator saw is durable.  Every ``snapshot_every``
    rounds per unit, the unit's detector state is pulled from the pool
    (re-anchored to absolute ticks for process workers), snapshotted
    atomically, and the unit's WAL rotates + compacts.
    """

    def __init__(
        self,
        store: FleetStateStore,
        pool,
        units: Sequence[str],
        coordinator: Optional[TuningCoordinator],
    ):
        self._store = store
        self._pool = pool
        self._coordinator = coordinator
        self._since: Dict[str, int] = {name: 0 for name in units}
        self.snapshots_written = 0

    def record(
        self,
        results: Dict[str, List[UnitDetectionResult]],
        ordinals: Dict[str, List[int]],
    ) -> None:
        with obs.span("persist.write"):
            due: List[str] = []
            for unit, unit_results in results.items():
                if not unit_results:
                    continue
                self._store.unit_store(unit).append_rounds(
                    unit_results, ordinals[unit]
                )
                self._since[unit] += len(unit_results)
                if self._since[unit] >= self._store.snapshot_every:
                    due.append(unit)
            if due:
                self.snapshot(due)

    def snapshot(self, units: Sequence[str]) -> None:
        states = self._pool.export_persist_states(units)
        for unit in units:
            state = states.get(unit)
            if state is None:
                # The owning worker died mid-export; the unit stays on its
                # last snapshot + WAL and gets snapshotted a round later.
                continue
            self._store.unit_store(unit).write_snapshot(state)
            self._since[unit] = 0
            self.snapshots_written += 1
        if states and self._coordinator is not None:
            self._store.save_coordinator(self._coordinator.to_state())

    def finalize(self) -> None:
        """Final snapshot of every unit at end of stream."""
        with obs.span("persist.write"):
            self.snapshot(sorted(self._since))


class DetectionService:
    """Online fleet detection: one DBCatcher per unit behind one front door.

    Parameters
    ----------
    config:
        Detector configuration — one shared
        :class:`~repro.core.config.DBCatcherConfig`, a dict keyed by unit
        name, or a callable ``(unit_name, n_databases) -> config``.
    service_config:
        Operational knobs (:class:`~repro.service.config.ServiceConfig`);
        defaults to the serial in-process profile.
    sinks:
        Alert sink specs (see :func:`~repro.service.alerts.build_sink`).
    metrics:
        Shared registry.  When omitted, the ambient observability registry
        is used if one is enabled (``repro.obs.runtime.enable()``), so a
        ``repro obs`` / ``serve --obs-port`` run folds service counters and
        detector spans into one exposition; otherwise a private registry
        is created.
    coordinator:
        Optional :class:`~repro.service.tuning.TuningCoordinator`.  When
        present, the scheduler feeds it every dispatched batch and every
        completed round, polls it before each pool round-trip (so tuned
        thresholds are hot-swapped *between* rounds, never inside one),
        and folds its retrain events into the report.
    rca:
        ``True`` builds a :class:`~repro.rca.analyzer.RootCauseAnalyzer`
        over the resolved per-unit configs when the run starts — alerts
        gain attributions and incident ids, incident lifecycle events fan
        out through the sinks, and the report collects the incidents.
    topology:
        Shared-infrastructure groups for incident correlation; one
        all-units group when omitted.  The scheduler always overlays
        ``shard:<worker>`` groups matching the worker-pool assignment
        when the run is parallel, so units co-located on a worker
        correlate.
    result_listener:
        Optional ``(unit, result)`` callback invoked for every completed
        round — including rounds re-published during crash recovery — in
        publication order.  The ingestion API's query view hangs off this
        to serve verdict histories without holding the whole report.
    """

    def __init__(
        self,
        config: ConfigLike,
        service_config: Optional[ServiceConfig] = None,
        sinks: Sequence[Union[str, AlertSink, Callable[[Alert], None]]] = ("stdout",),
        metrics: Optional[MetricsRegistry] = None,
        coordinator: Optional[TuningCoordinator] = None,
        rca: bool = False,
        topology: Optional["Topology"] = None,
        result_listener: Optional[
            Callable[[str, UnitDetectionResult], None]
        ] = None,
    ):
        self._config = config
        self.coordinator = coordinator
        self.rca = bool(rca)
        self.topology = topology
        self.result_listener = result_listener
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        if metrics is not None:
            self.metrics = metrics
        elif obs.is_enabled():
            self.metrics = obs.get_registry()
        else:
            self.metrics = MetricsRegistry()
        self._sinks = tuple(sinks)

    def _config_for(self, unit: str, n_databases: int) -> DBCatcherConfig:
        if isinstance(self._config, DBCatcherConfig):
            return self._config
        if isinstance(self._config, dict):
            return self._config[unit]
        return self._config(unit, n_databases)

    def run(
        self,
        source: "TickSource",
        max_ticks: Optional[int] = None,
        collect_results: bool = True,
    ) -> ServiceReport:
        """Consume a tick source to exhaustion and return the report.

        Parameters
        ----------
        source:
            Any :class:`~repro.service.protocols.TickSource` — ``units``
            (name -> database count), ``kpi_names``, ``interval_seconds``
            and iteration yielding
            :class:`~repro.service.sources.TickEvent`.
        max_ticks:
            Optional cap on ticks consumed *per unit*.
        collect_results:
            Keep every completed round in the report (the offline /
            parity mode).  ``False`` drops them after alerting, bounding
            service memory for indefinite runs.
        """
        cfg = self.service_config
        units: Dict[str, int] = dict(source.units)
        if not units:
            raise ValueError("the source exposes no units")
        specs = [
            UnitSpec(name, n_databases, self._config_for(name, n_databases))
            for name, n_databases in units.items()
        ]
        interval = float(getattr(source, "interval_seconds", 5.0))
        store: Optional[FleetStateStore] = None
        states: Dict[str, Dict[str, Any]] = {}
        recovered: Dict[str, List[Tuple[Optional[int], UnitDetectionResult]]] = {}
        resume_tick: Dict[str, int] = {}
        pool_specs = specs
        if cfg.state_dir is not None:
            store = FleetStateStore(
                cfg.state_dir,
                snapshot_every=cfg.snapshot_every,
                wal_sync=cfg.wal_sync,
            )
            with obs.span("persist.recover"):
                states, recovered, resume_tick = self._recover(store, specs)
            if states:
                # A recovered unit's persisted config wins over the
                # construction-time one: it carries any thresholds tuned
                # before the crash, and crash-restarted workers must
                # rebuild from it, not from stale construction state.
                pool_specs = [
                    replace(spec, config=decode_config(states[spec.name]["config"]))
                    if spec.name in states
                    else spec
                    for spec in specs
                ]
        pool = make_pool(pool_specs, cfg, states=states or None)
        bridge = IngestionBridge(
            list(units),
            capacity=cfg.queue_capacity,
            policy=cfg.backpressure,
            metrics=self.metrics,
        )
        analyzer = self._build_analyzer(specs, pool) if self.rca else None
        pipeline = AlertPipeline(
            self._sinks,
            metrics=self.metrics,
            interval_seconds=interval,
            min_databases=cfg.alert_min_databases,
            rca=analyzer,
        )
        channel: Optional["LogChannel"] = None
        if cfg.log_ensemble:
            from repro.logs.channel import LogChannel

            # Judged rates normalize to each unit's initial window, so a
            # flexible-window expansion judges the same per-tick rates a
            # plain round does.
            channel = LogChannel(
                units,
                reference_windows={
                    spec.name: spec.config.initial_window for spec in specs
                },
            )
        report = ServiceReport(
            results={name: [] for name in units} if collect_results else {}
        )
        if self.coordinator is not None:
            self.coordinator.bind(
                pool, {spec.name: spec.config for spec in pool_specs}
            )
            if store is not None:
                coordinator_state = store.load_coordinator()
                if coordinator_state is not None:
                    self.coordinator.load_state(coordinator_state)
        if recovered:
            self._replay_history(
                recovered, list(units), pipeline, report, collect_results
            )
        persist = (
            _PersistenceDriver(store, pool, list(units), self.coordinator)
            if store is not None
            else None
        )
        started = time.perf_counter()
        take_actions = getattr(source, "take_actions", None)
        try:
            consumed: Dict[str, int] = {name: 0 for name in units}
            # Ticks skipped during WAL replay still advance the batch cap,
            # so a resumed run feeds tuning windows (and lands threshold
            # swaps) on the same dispatches as the run it continues.
            phantom: Dict[str, int] = {name: 0 for name in units}
            # Ticks handed to each unit's detector so far, on its absolute
            # axis: where the next drained batch starts.
            fed: Dict[str, int] = {name: resume_tick.get(name, 0) for name in units}
            ordinal = 0
            for event in source:
                replayed = (
                    bool(resume_tick)
                    and event.seq < resume_tick.get(event.unit, 0)
                )
                if take_actions is not None:
                    for action in take_actions():
                        if replayed:
                            # Control-plane actions raised while re-reading
                            # already-persisted ticks fired before the
                            # crash; applying them again would disturb the
                            # recovered state.
                            continue
                        self._apply_action(pool, action, report)
                if max_ticks is not None and consumed[event.unit] >= max_ticks:
                    continue
                consumed[event.unit] += 1
                ordinal += 1
                if channel is not None:
                    # Replayed ticks feed the channel too: its counters
                    # and baselines are in-memory only, so a warm restart
                    # rebuilds them by re-reading the stream from tick 0.
                    channel.ingest(event.unit, event.seq, event.logs)
                if replayed:
                    phantom[event.unit] += 1
                else:
                    with obs.span("queue.offer"):
                        bridge.offer(
                            _QueuedTick(event, ordinal, time.perf_counter()),
                            timeout=cfg.put_timeout_seconds,
                        )
                pending = bridge.pending(event.unit) + phantom[event.unit]
                # Group commit: a batch ends when the feed goes idle, or
                # at the cap when it never does (closed-loop replay).
                if pending >= cfg.batch_ticks or event.idle_after:
                    self._dispatch_round(
                        bridge, pool, pipeline, report, collect_results,
                        fed, persist, channel,
                    )
                    for name in phantom:
                        phantom[name] = 0
            # Source exhausted: flush whatever is still queued.
            self._dispatch_round(
                bridge, pool, pipeline, report, collect_results, fed,
                persist, channel,
            )
            if self.coordinator is not None:
                self.coordinator.drain()
            if persist is not None:
                persist.finalize()
            pipeline.finish()
        finally:
            bridge.close()
            pool.stop()
            pipeline.close()
            if store is not None:
                store.close()
        report.elapsed_seconds = time.perf_counter() - started
        report.ticks_ingested = self.metrics.counter("ticks_ingested").value
        report.ticks_dropped = bridge.total_dropped()
        report.ticks_lost = pool.ticks_lost
        report.rounds_completed = self.metrics.counter("rounds_completed").value
        report.alerts_emitted = self.metrics.counter("alerts_emitted").value
        report.worker_restarts = pool.restarts
        if persist is not None:
            report.snapshots_written = persist.snapshots_written
        self.metrics.counter("worker_restarts").increment(pool.restarts)
        self.metrics.counter("ticks_lost").increment(pool.ticks_lost)
        if self.coordinator is not None:
            report.retrains = list(self.coordinator.events)
            report.threshold_swaps = len(report.retrains)
        if analyzer is not None:
            report.incidents = list(analyzer.incidents)
        report.sequence_gaps = dict(bridge.sequence_gaps)
        report.stale_ticks = dict(bridge.stale_rejected)
        report.ticks_stale = sum(bridge.stale_rejected.values())
        report.metrics = self.metrics.snapshot()
        return report

    def _recover(
        self, store: FleetStateStore, specs: List[UnitSpec]
    ) -> Tuple[
        Dict[str, Dict[str, Any]],
        Dict[str, List[Tuple[Optional[int], UnitDetectionResult]]],
        Dict[str, int],
    ]:
        """Rebuild per-unit state from snapshot + WAL (crash-warm restart).

        For each unit with durable state: restore the latest snapshot
        (or start cold on a pure-WAL directory), replay the recorded
        rounds newer than the snapshot cursor through
        :meth:`DBCatcher.apply_result` — no recomputation — and note the
        tick ingestion must resume from.  The full recorded history comes
        back separately, each round with its stream ordinal, so the
        alert/incident pipeline can be replayed.
        """
        states: Dict[str, Dict[str, Any]] = {}
        recovered: Dict[str, List[Tuple[Optional[int], UnitDetectionResult]]] = {}
        resume: Dict[str, int] = {}
        total = 0
        for spec in specs:
            unit_store = store.unit_store(spec.name)
            snapshot = unit_store.load_snapshot()
            tail = unit_store.load_tail()
            if snapshot is None and not tail:
                continue
            if snapshot is not None:
                detector = DBCatcher.from_state(snapshot)
            else:
                detector = DBCatcher(spec.config, n_databases=spec.n_databases)
            for result in tail:
                if result.end <= detector.cursor:
                    continue
                if result.start != detector.cursor:
                    break  # gap in the log: re-derive the rest live
                detector.apply_result(result)
            states[spec.name] = detector.to_state()
            resume[spec.name] = detector.next_tick
            recovered[spec.name] = [
                (ordinal, result)
                for ordinal, result in unit_store.load_ordered_history()
                if result.end <= detector.cursor
            ]
            total += len(recovered[spec.name])
        if total:
            obs.counter("persist.recovered_rounds").increment(total)
        return states, recovered, resume

    def _replay_history(
        self,
        recovered: Dict[str, List[Tuple[Optional[int], UnitDetectionResult]]],
        unit_order: List[str],
        pipeline: AlertPipeline,
        report: ServiceReport,
        collect_results: bool,
    ) -> None:
        """Re-publish recovered rounds through the pipeline (sinks muted).

        Rounds are interleaved exactly as the original run published
        them: in the stream order of their last tick, the ordinal their
        WAL record carries.  Records written before rounds carried one
        replay first, by end tick and then ingestion order.  Incident
        ids, rate-limiter decisions and counters therefore land
        identically to the uninterrupted run.
        """
        order = {name: index for index, name in enumerate(unit_order)}
        merged: List[Tuple[Tuple[int, int, int], str, UnitDetectionResult]] = []
        for name, rounds in recovered.items():
            for ordinal, result in rounds:
                key = (
                    (0, result.end, order[name])
                    if ordinal is None
                    else (1, ordinal, 0)
                )
                merged.append((key, name, result))
        merged.sort(key=lambda item: item[0])
        for _, name, result in merged:
            alert = pipeline.publish(name, result, replay=True)
            if alert is not None:
                report.alerts.append(alert)
            if collect_results:
                report.results[name].append(result)
            if self.result_listener is not None:
                self.result_listener(name, result)
            report.recovered_rounds += 1

    def _build_analyzer(self, specs: List[UnitSpec], pool):
        """Construct the run's RootCauseAnalyzer over the resolved configs.

        Imported lazily: :mod:`repro.rca` depends on the service sources,
        so a module-level import here would be circular.
        """
        from repro.rca.analyzer import RootCauseAnalyzer
        from repro.rca.topology import Topology

        unit_names = [spec.name for spec in specs]
        topology = (
            self.topology
            if self.topology is not None
            else Topology.single_group(unit_names)
        )
        shard_map = pool.shard_map()
        if len(shard_map) > 1:
            topology = topology.merged(
                {
                    f"shard:{worker_id}": shard
                    for worker_id, shard in shard_map.items()
                }
            )
        return RootCauseAnalyzer(
            configs={spec.name: spec.config for spec in specs},
            topology=topology,
        )

    def _apply_action(self, pool, action: tuple, report: ServiceReport) -> None:
        """Apply one control-plane action from a chaos-wrapped source.

        Only ``("kill_worker", unit)`` is understood today: the §IV-D4
        kill drill, which fells the worker process owning ``unit`` exactly
        as a segfault would.  The serial pool has no processes to kill, so
        there the drill degenerates to a no-op (still counted, so a
        scenario's drill schedule remains visible in the report).
        """
        kind = action[0]
        if kind == "kill_worker":
            report.kill_drills += 1
            self.metrics.counter("kill_drills").increment()
            if getattr(pool, "n_workers", 0):
                pool.crash_worker(action[1])
        else:
            raise ValueError(f"unknown chaos action {kind!r}")

    def _dispatch_round(
        self,
        bridge: IngestionBridge,
        pool,
        pipeline: AlertPipeline,
        report: ServiceReport,
        collect_results: bool,
        fed: Dict[str, int],
        persist: Optional[_PersistenceDriver] = None,
        channel: Optional["LogChannel"] = None,
    ) -> None:
        """Drain every unit's backlog, run one pool round-trip, publish.

        Rounds publish in the stream order of their last tick, not unit
        by unit.  A round completes in the dispatch that carries its last
        tick and every dispatch drains a prefix of the stream, so this is
        the order in which rounds completed in the stream: alerts,
        incidents and listeners see the same sequence whatever the batch
        boundaries.
        """
        drained: Dict[str, List[_QueuedTick]] = {}
        for unit in bridge.unit_names:
            ticks = bridge.drain(unit)
            if ticks:
                drained[unit] = ticks
        self.metrics.gauge("queue_backlog_total").set(bridge.total_pending())
        if not drained:
            return
        batches = {
            unit: np.stack([tick.sample for tick in ticks])
            for unit, ticks in drained.items()
        }
        if self.coordinator is not None:
            # Install any finished background retrains now, before the
            # round-trip: swaps land between rounds by construction.
            self.coordinator.poll()
            for unit, block in batches.items():
                self.coordinator.observe_batch(unit, block)
        with obs.span("dispatch.round"):
            results = pool.dispatch(batches)
        # Results count ticks on each detector's absolute axis, where this
        # batch starts at fed[unit]; that finds each round's last tick.
        placed: List[Tuple[int, float, str, UnitDetectionResult]] = []
        ordinals: Dict[str, List[int]] = {}
        for unit, ticks in drained.items():
            base = fed[unit]
            fed[unit] = base + len(ticks)
            ordinals[unit] = []
            for result in results[unit]:
                last = ticks[result.end - 1 - base]
                placed.append((last.ordinal, last.offered_at, unit, result))
                ordinals[unit].append(last.ordinal)
        placed.sort(key=lambda item: item[0])
        if persist is not None:
            # Verdicts become durable before they become notifications.
            persist.record(results, ordinals)
        lag = (
            obs.histogram("alerts.verdict_lag_seconds")
            if obs.is_enabled()
            else None
        )
        for _, offered_at, unit, result in placed:
            fused = log_attribution = None
            if channel is not None:
                fused, log_attribution = channel.fuse(unit, result)
            alert = pipeline.publish(
                unit, result, fused=fused, log_attribution=log_attribution,
            )
            if alert is not None:
                report.alerts.append(alert)
            if collect_results:
                report.results[unit].append(result)
                if fused is not None:
                    report.fused_verdicts.setdefault(unit, []).append(fused)
            if self.result_listener is not None:
                self.result_listener(unit, result)
            if lag is not None:
                lag.observe(time.perf_counter() - offered_at)
        if self.coordinator is not None:
            for unit, unit_results in results.items():
                self.coordinator.observe_results(unit, unit_results)


def detect_fleet(
    dataset,
    config: Optional[ConfigLike] = None,
    service_config: Optional[ServiceConfig] = None,
    sinks: Sequence[Union[str, AlertSink, Callable[[Alert], None]]] = ("null",),
    metrics: Optional[MetricsRegistry] = None,
    max_ticks: Optional[int] = None,
    rca: bool = False,
    topology: Optional["Topology"] = None,
    logbook: Optional[Dict[str, "LogBook"]] = None,
) -> ServiceReport:
    """Run the fleet scheduler over a saved dataset.

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.containers.Dataset` or ``.npz`` path.
    config:
        Detector configuration; the cluster preset when omitted.
    service_config:
        Operational configuration — worker count, transport, durable
        state, log ensemble; the serial in-process profile when omitted.
        Results are identical for every ``n_workers`` — parallelism is
        purely a throughput lever.
    rca:
        Enable attribution + incident correlation; the topology defaults
        to the dataset's workload-metadata groups when available.
    logbook:
        Per-unit logbooks to replay alongside the KPI stream (implies
        ``log_ensemble``); see
        :func:`repro.logs.emitter.dataset_logbook`.
    """
    if config is None:
        from repro.presets import default_config

        config = default_config()
    service_config = service_config or ServiceConfig()
    if logbook is not None and not service_config.log_ensemble:
        service_config = replace(service_config, log_ensemble=True)
    if rca and topology is None and hasattr(dataset, "units"):
        from repro.rca.topology import Topology

        topology = Topology.from_dataset(dataset)
    service = DetectionService(
        config,
        service_config=service_config,
        sinks=sinks,
        metrics=metrics,
        rca=rca,
        topology=topology,
    )
    return service.run(
        ReplaySource(dataset, max_ticks=max_ticks, logbook=logbook)
    )
