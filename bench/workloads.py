"""The four benchmark workloads; each run gets a fresh interpreter.

``python3 bench/workloads.py NAME --seed N --seconds S --trace 0|1
--out DIR [--smoke]`` runs one workload, writes its result file and
prints the result as one JSON line.  ``bench/run.py`` is the entry
point users call.

Every workload builds its inputs from the seed alone, warms up on a
tiny input, then repeats its measured step until the next repetition
would overrun ``--seconds``, alternating which arm goes first (``live``
serves a stream of fixed length instead).  Each workload has a serial
arm and a pool arm of ``POOL_WORKERS`` processes, so pool speedup is
always an in-run ratio.  A traced run instead makes one untraced
repetition and one traced one, and reports the per-layer metrics of the
traced one.

Throughputs are medians over repetitions; latency percentiles pool the
samples of every repetition.  Times of CPU-bound work are divided by the
slowdown ``host.HostMeter`` measured around and inside their arm, and
each closed-loop latency by the slowdown over its own interval, so they
read as on the reference host at rest.  Times set by the ``live``
schedule are not scaled.  Raw times and the factors are kept in the
result's details.

The system is driven only through public surfaces: ``DetectionService``
(setting ``n_workers`` and ``state_dir``, plus ``log_ensemble`` where
logbooks ride along), ``ReplaySource``, ``NetworkSource``,
``IngestServer``, ``ApiState``, ``ApiClient``, ``DBCatcher``,
``GeneticThresholdLearner`` and ``repro.eval``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import inputs
from common import (
    BENCH_DIR,
    POOL_WORKERS,
    CheckoutError,
    TimedSource,
    load_spec,
    peak_rss_mb,
    percentile,
    provenance,
    use_checkout_src,
)
from host import HostMeter
from trace import TARGETS, Tracer, layer_metrics, share_rows

WORKLOADS = ("dense", "wide", "live", "tune")

#: Workload sizes.  ``smoke`` exists only for the self-test; its results
#: are marked so they can never be compared as measurements.
SCALES = {
    "full": {
        "dense": {"base_ticks": 1000, "per_shape": 2, "units": 12},
        "wide": {"units": 256, "ticks": 96},
        # 800 ticks at 20/s: a 40-second stream.
        "live": {"per_shape": 2, "units": 12, "ticks": 800, "tick_rate": 20.0,
                 "query_rate": 25.0, "setups": 4, "replay_ticks": 200,
                 "replay_pairs": 4},
        "tune": {"base_ticks": 600, "per_shape": 2, "population": 48,
                 "iterations": 15, "test_units": 24},
    },
    "smoke": {
        "dense": {"base_ticks": 120, "per_shape": 1, "units": 4},
        "wide": {"units": 20, "ticks": 48},
        "live": {"per_shape": 1, "units": 4, "ticks": 48, "tick_rate": 30.0,
                 "query_rate": 20.0, "setups": 1, "replay_ticks": 60,
                 "replay_pairs": 1},
        "tune": {"base_ticks": 120, "per_shape": 1, "population": 4,
                 "iterations": 2, "test_units": 6},
    },
}
#: Measured time of a smoke run, whatever ``--seconds`` asks for.
SMOKE_SECONDS = 1.0


class CheckFailed(AssertionError):
    """A correctness check on the system's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def repetitions(
    seconds: float, tracer: Optional[Tracer], count: Optional[int] = None
) -> Iterator[Tuple[int, Optional[Tracer]]]:
    """``(index, tracer or None)`` for each repetition.

    Untraced: ``count`` repetitions, or as many as fit in ``seconds``
    (stopping when the next one would overrun).  Traced: one untraced
    repetition, then one traced.
    """
    if tracer is not None:
        yield 0, None
        yield 1, tracer
        return
    started = time.perf_counter()
    for index in itertools.count():
        yield index, None
        done = index + 1
        if count is not None:
            if done >= count:
                return
        elif (time.perf_counter() - started) * (done + 1) / done > seconds:
            return


@dataclass
class Outcome:
    """What a workload hands back: metrics, accounting and extras."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Scaled wall time of the measured arms, per repetition.
    rep_walls: List[float]
    digest: str
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class ArmPairs:
    """Raw serial and pool arm times and their slowdowns, per repetition."""

    points: int
    serial: List[float] = field(default_factory=list)
    pool: List[float] = field(default_factory=list)
    serial_host: List[float] = field(default_factory=list)
    pool_host: List[float] = field(default_factory=list)
    #: Probes that counted, and inside probes dropped, per arm.
    probes: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Scaled wall time of both arms.
    walls: List[float] = field(default_factory=list)

    def add(self, serial: float, serial_meter: HostMeter, pool: float,
            pool_meter: HostMeter, wall: float) -> None:
        """Record one repetition: raw arm times and each arm's meter."""
        self.serial.append(serial)
        self.serial_host.append(serial_meter.factor())
        self.pool.append(pool)
        self.pool_host.append(pool_meter.factor())
        self.probes.append((
            len(serial_meter.probes), serial_meter.dropped,
            len(pool_meter.probes), pool_meter.dropped,
        ))
        self.walls.append(wall)

    def metrics(self) -> Dict[str, float]:
        serial = [s / h for s, h in zip(self.serial, self.serial_host)]
        pool = [p / h for p, h in zip(self.pool, self.pool_host)]
        return {
            "points_per_s": median([self.points / s for s in serial]),
            "pool_points_per_s": median([self.points / p for p in pool]),
            "pool_speedup": median([s / p for s, p in zip(serial, pool)]),
        }

    def details(self) -> Dict[str, object]:
        return {
            "points": self.points,
            "repetitions": len(self.serial),
            "serial_seconds": self.serial,
            "pool_seconds": self.pool,
            "serial_slowdown": self.serial_host,
            "pool_slowdown": self.pool_host,
            "probes_kept_dropped": self.probes,
        }


# -- service runs -------------------------------------------------------------


@dataclass
class Arm:
    report: object
    setup: float
    seconds: float
    meter: HostMeter
    #: ``(unit, round end, listener time)`` for every completed round.
    stamps: List[Tuple[str, int, float]]
    pulled: Dict[str, List[float]]

    def latencies(self) -> List[float]:
        """Seconds from the pull of each round's last tick to its verdict,
        each scaled by the host's slowdown over that interval."""
        latencies = []
        for unit, end, at in self.stamps:
            pulled = self.pulled[unit][end - 1]
            latencies.append((at - pulled) / self.meter.local_factor(pulled, at))
        return latencies


def run_service(config, source, n_workers: int, tracer: Optional[Tracer],
                label: str, listener=None, state_dir=None,
                log_ensemble: bool = False, sinks=("null",),
                rca: bool = False, probe_inside: bool = True) -> Arm:
    """One ``DetectionService.run`` over a bench-owned timed source.

    ``setup`` runs from ``run()`` entry, or from the collector handshake
    for a network source, to the first pull on the source; ``seconds``
    from that pull until ``run()`` returns.  Both are raw, less the
    probes.  Untraced runs with ``probe_inside`` probe the host inside
    the call as well as around it.
    """
    from repro.service import DetectionService, ServiceConfig

    stamps: List[Tuple[str, int, float]] = []
    meter = HostMeter(inside=probe_inside and tracer is None,
                      all_cpus=n_workers > 0)
    timed = TimedSource(source, meter.clock, tracer)

    def on_result(unit, result):
        stamps.append((unit, result.end, meter.clock()))
        if listener is not None:
            listener(unit, result)

    service = DetectionService(
        config,
        service_config=ServiceConfig(
            n_workers=n_workers,
            state_dir=None if state_dir is None else str(state_dir),
            log_ensemble=log_ensemble,
        ),
        sinks=sinks,
        rca=rca,
        result_listener=on_result,
    )
    with meter, tracer.recording(label) if tracer else nullcontext():
        entered = meter.clock()
        report = service.run(timed)
        done = meter.clock()
    start = max(entered, timed.ready_at or entered)
    return Arm(report, timed.first_pull - start, done - timed.first_pull,
               meter, stamps, timed.pulled)


def losses(report) -> int:
    """Ticks the service dropped, lost, rejected as stale or never saw."""
    return (
        report.ticks_dropped + report.ticks_lost + report.ticks_stale
        + sum(report.sequence_gaps.values())
    )


def pooled_f1(records: Dict[str, list], labels: Dict[str, np.ndarray]) -> float:
    """Segment-adjusted F-measure over every unit's judgement records."""
    from repro.eval import (
        ConfusionCounts,
        adjusted_confusion_from_records,
        scores_from_confusion,
    )

    counts = ConfusionCounts()
    for unit, unit_records in records.items():
        counts = counts + adjusted_confusion_from_records(unit_records, labels[unit])
    return float(scores_from_confusion(counts).f_measure)


def report_f1(report, dataset) -> float:
    labels = {unit.name: unit.labels for unit in dataset.units}
    return pooled_f1({name: report.records_for(name) for name in labels}, labels)


def check_reference(config, dataset, report, every: int) -> None:
    """Every ``every``-th unit equals the library path, round for round."""
    from repro.core.detector import DBCatcher

    for unit in dataset.units[::every]:
        detector = DBCatcher(config, n_databases=unit.n_databases)
        reference = detector.process(unit.values, time_axis=-1)
        check(report.results[unit.name] == reference,
              f"{unit.name}: service rounds differ from DBCatcher.process")


def service_pairs(label: str, config, arm_kwargs: Callable[[], dict],
                  points: int, seconds: float, tracer: Optional[Tracer],
                  count: Optional[int] = None):
    """Alternate serial and pool arms; yield ``(pairs, serial, pool)``.

    ``arm_kwargs()`` gives each arm its ``run_service`` keywords, the
    source included.  Pool results and fused verdicts must equal the
    serial ones exactly.
    """
    pairs = ArmPairs(points)
    for rep, rep_tracer in repetitions(seconds, tracer, count):
        order = (0, POOL_WORKERS) if rep % 2 == 0 else (POOL_WORKERS, 0)
        arms = {}
        for workers in order:
            kwargs = arm_kwargs()
            arms[workers] = run_service(
                config, kwargs.pop("source"), workers, rep_tracer,
                f"{label}.{'pool' if workers else 'serial'}", **kwargs,
            )
        serial, pool = arms[0], arms[POOL_WORKERS]
        check(pool.report.results == serial.report.results,
              f"{label}: pool results differ from serial results")
        check(pool.report.fused_verdicts == serial.report.fused_verdicts,
              f"{label}: pool fused verdicts differ from serial ones")
        pairs.add(
            serial.seconds, serial.meter, pool.seconds, pool.meter,
            sum((a.setup + a.seconds) / a.meter.factor() for a in (serial, pool)),
        )
        yield pairs, serial, pool


# -- closed-loop fleets: dense and wide ----------------------------------------


def fleet_workload(label: str, config, fleet, warm, seconds: float,
                   tracer: Optional[Tracer], every: int,
                   **service_kwargs) -> Outcome:
    from repro.service import ReplaySource

    def arm_kwargs(target=fleet) -> dict:
        source = ReplaySource(target.dataset, logbook=target.logbooks or None)
        return {"source": source, **service_kwargs}

    for workers in (0, POOL_WORKERS):
        kwargs = arm_kwargs(warm)
        run_service(config, kwargs.pop("source"), workers, None, "warmup",
                    **kwargs)
    setups, latencies = [], []
    attempted = failed = 0
    reference = pairs = None
    for pairs, serial, pool in service_pairs(
        label, config, arm_kwargs, fleet.points, seconds, tracer
    ):
        for arm in (serial, pool):
            attempted += arm.report.ticks_ingested + losses(arm.report)
            failed += losses(arm.report)
        reference = reference or serial.report
        setups.append(pool.setup / pool.meter.factor())
        latencies.extend(serial.latencies())
    check_reference(config, fleet.dataset, reference, every)
    return Outcome(
        metrics={
            **pairs.metrics(),
            "setup_s": median(setups),
            "verdict_p50_ms": 1e3 * percentile(latencies, 50),
            "verdict_p90_ms": 1e3 * percentile(latencies, 90),
            "f1": report_f1(reference, fleet.dataset),
        },
        attempted=attempted,
        failed=failed,
        rep_walls=pairs.walls,
        digest=inputs.digest(fleet.dataset.units, fleet.logbooks),
        details={
            **pairs.details(),
            "units": len(fleet.dataset.units),
            "rounds": reference.rounds_completed,
            "latency_samples": len(latencies),
        },
    )


def dense(seed: int, seconds: float, scale: dict, tracer, work: Path) -> Outcome:
    """Fleet screening: rolled labelled units, RCA and the log ensemble."""
    from repro.presets import default_config

    base = inputs.base_units(seed, scale["base_ticks"], scale["per_shape"])
    fleet = inputs.rolled_fleet(seed, base, scale["units"], logs=True)
    warm = inputs.rolled_fleet(seed, base[:2], 2, logs=True)
    return fleet_workload(
        "dense", default_config(), fleet, warm, seconds, tracer, every=8,
        rca=True, log_ensemble=True,
    )


def wide(seed: int, seconds: float, scale: dict, tracer, work: Path) -> Outcome:
    """Many tiny units: per-unit and per-round overhead dominates."""
    from repro.core.config import DBCatcherConfig

    config = DBCatcherConfig(
        kpi_names=("cpu", "rps"), initial_window=10, max_window=30
    )
    fleet = inputs.wide_fleet(seed, scale["units"], scale["ticks"])
    warm = inputs.wide_fleet(seed + 1, 4, 48)
    return fleet_workload("wide", config, fleet, warm, seconds, tracer, every=50)


# -- live: open-loop HTTP serving ----------------------------------------------


def serve_over_http(config, names: List[str], feed, work: Path,
                    tracer: Optional[Tracer], label: str):
    """Serve one network stream with RCA, durable state and a JSONL sink.

    ``feed(url)`` plays the collector from a thread; the stream closes
    when it returns, however it ends.  Returns the arm, the verdicts per
    unit, what ``feed`` returned and the network source.
    """
    from repro.service import ServiceConfig
    from repro.service.api import ApiState, IngestServer, NetworkSource

    defaults = ServiceConfig()
    source = NetworkSource(
        capacity=defaults.ingest_capacity,
        handshake_timeout_seconds=60.0,
        retry_after_seconds=defaults.ingest_retry_after_seconds,
    )
    view = ApiState()
    results: Dict[str, list] = {name: [] for name in names}

    def listener(unit, result):
        view.record_result(unit, result)
        results[unit].append(result)

    state_dir = work / "state"
    server = IngestServer(source, view=view, state_dir=str(state_dir),
                          max_batch=defaults.ingest_max_batch)
    fed: Dict[str, object] = {}

    def collector():
        try:
            fed["value"] = feed(server.url)
        except BaseException as exc:  # re-raised on the main thread
            fed["error"] = exc
        finally:
            source.close_stream()

    thread = threading.Thread(target=collector, name="bench-collector")
    thread.start()
    try:
        arm = run_service(
            config, source, 0, tracer, label, listener=listener,
            state_dir=state_dir, sinks=(view, f"jsonl:{work / 'alerts.jsonl'}"),
            rca=True, probe_inside=False,
        )
    finally:
        source.close_stream()
        thread.join(timeout=60.0)
        server.close()
    if thread.is_alive():
        raise RuntimeError(f"{label}: the collector did not finish")
    if "error" in fed:
        raise fed["error"]
    return arm, results, fed["value"], source


def live(seed: int, seconds: float, scale: dict, tracer, work: Path) -> Outcome:
    """Open-loop serving over HTTP, then closed-loop replays of the stream."""
    from repro.datasets import Dataset, UnitSeries
    from repro.presets import default_config
    from repro.service import ApiState, ReplaySource
    from repro.service.api import ApiClient
    from repro.service.sources import TickEvent

    # Eight-tick rounds give over 1000 verdicts in a 40-second stream, so
    # the p99 rests on ten or more samples beyond it, at a load (240
    # ticks/s) the service and one synchronous client still sustain when
    # the host runs 2.5 times slower than at rest.  (Six-tick rounds over
    # 30 seconds gave as many verdicts, but an F1 that swung by 19%
    # from seed to seed.)
    config = default_config(initial_window=8, max_window=24)
    rate = scale["tick_rate"]
    n_ticks = scale["ticks"]
    base = inputs.base_units(seed, n_ticks, scale["per_shape"])
    fleet = inputs.rolled_fleet(seed, base, scale["units"], logs=False)
    dataset = fleet.dataset
    names = [u.name for u in dataset.units]
    n_units = len(names)
    session_ids = itertools.count()

    def fresh() -> Path:
        directory = work / f"session-{next(session_ids)}"
        directory.mkdir()
        return directory

    def short_feed(url: str) -> None:
        client = ApiClient(url=url, timeout_seconds=60.0)
        client.register(
            {u.name: u.n_databases for u in dataset.units},
            config.kpi_names, dataset.units[0].interval_seconds,
        )
        # Let the service set up alone, as it does before the served
        # stream's first tick.
        time.sleep(0.1)
        unit = dataset.units[0]
        client.post_ticks(unit.name, [
            TickEvent(unit.name, t, unit.values[:, :, t])
            for t in range(config.initial_window + 1)
        ], encoding="b64")

    def short_sessions() -> List[float]:
        """Set-up times of short sessions, each with one round."""
        setups = []
        for _ in range(scale["setups"]):
            arm, *_ = serve_over_http(config, names, short_feed, fresh(),
                                      None, "setup")
            setups.append(arm.setup / arm.meter.factor())
        return setups

    # The first session is the warm-up.  The set-up samples come from
    # sessions before and after the served stream, so that a passing
    # slow spell of the host's disk or CPUs sways few of them.
    serve_over_http(config, names, short_feed, fresh(), None, "warmup")
    setups = short_sessions()

    plan = {
        "names": names,
        "values": np.stack([u.values.transpose(2, 0, 1) for u in dataset.units]),
        "kpi_names": list(config.kpi_names),
        "interval_seconds": dataset.units[0].interval_seconds,
        "tick_rate": rate,
        "queries": int(scale["query_rate"] * n_ticks / rate),
        "query_rate": scale["query_rate"],
        "lead_seconds": 0.3,
    }

    def load_feed(url: str) -> dict:
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loadgen.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            out, _ = child.communicate(
                pickle.dumps({**plan, "url": url}),
                timeout=n_ticks / rate + 90.0,
            )
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"load generator exited with {child.returncode}")
        return pickle.loads(out)

    serve_dir = fresh()
    arm, results, load, source = serve_over_http(
        config, names, load_feed, serve_dir, tracer, "live.serve"
    )
    setups.append(arm.setup / arm.meter.factor())
    setups.extend(short_sessions())
    persist_bytes = sum(
        f.stat().st_size for f in (serve_dir / "state").rglob("*") if f.is_file()
    )
    is_tick = load["kind"] == 0
    bad = int((load["status"] != 200).sum())
    check(arm.report.ticks_ingested == n_units * n_ticks,
          f"ingested {arm.report.ticks_ingested} of {n_units * n_ticks} ticks")
    check(bad == 0, f"{bad} requests did not answer 200")

    # Tick-to-verdict, from the due time of each round's last tick.
    position = {name: i for i, name in enumerate(names)}
    verdict = [
        at - (load["t0"] + (end - 1 + position[unit] / n_units) / rate)
        for unit, end, at in arm.stamps
    ]
    late = load["start"] - load["due"]
    query_latency = (load["end"] - load["due"])[~is_tick]

    # The live verdicts must equal an in-process replay of the stream.
    reference = run_service(config, ReplaySource(dataset), 0, None, "reference",
                            probe_inside=False)
    check(reference.report.results == results,
          "live verdicts differ from the in-process replay")

    # Compute capacity of the serving configuration without HTTP in
    # front: closed-loop replays of the stream's first ticks, serial and
    # pool.
    prefix = Dataset(name="prefix", units=tuple(
        UnitSeries(name=u.name, values=u.values[:, :, :scale["replay_ticks"]],
                   labels=u.labels[:, :scale["replay_ticks"]],
                   kpi_names=u.kpi_names)
        for u in dataset.units
    ))

    # The replays measure compute, so they leave out the disk (the WAL
    # and the fsynced JSONL sink), whose latency no host probe tracks;
    # the served stream above covers it.
    def replay_kwargs() -> dict:
        view = ApiState()
        return {
            "source": ReplaySource(prefix), "rca": True,
            "listener": view.record_result, "sinks": (view,),
        }

    attempted = int(load["kind"].size) + reference.report.ticks_ingested
    failed = (int(load["rejected"]) + bad + losses(arm.report)
              + losses(reference.report))
    pairs = None
    for pairs, serial, pool in service_pairs(
        "live.replay", config, replay_kwargs,
        sum(u.values.size for u in prefix.units), 0.0, tracer,
        count=scale["replay_pairs"],
    ):
        for replay in (serial, pool):
            attempted += replay.report.ticks_ingested + losses(replay.report)
            failed += losses(replay.report)
    return Outcome(
        metrics={
            **pairs.metrics(),
            "setup_s": median(setups),
            "verdict_p50_ms": 1e3 * percentile(verdict, 50),
            "verdict_p90_ms": 1e3 * percentile(verdict, 90),
            "f1": report_f1(arm.report, dataset),
        },
        attempted=attempted,
        failed=failed,
        rep_walls=pairs.walls,
        digest=inputs.digest(dataset.units),
        layers={
            "loadgen.late_p99_seconds": percentile(late, 99),
            "loadgen.verdict_p99_seconds": percentile(verdict, 99),
            "loadgen.query_p99_seconds": percentile(query_latency, 99),
            "loadgen.posts": int(is_tick.sum()),
            "loadgen.rejected": int(load["rejected"]),
            "ingest.backpressure": source.backpressure_total,
            "persist.bytes": persist_bytes,
        },
        details={
            **pairs.details(),
            "units": n_units,
            "ticks_per_unit": n_ticks,
            "rounds": len(verdict),
            "verdict_p99_ms": 1e3 * percentile(verdict, 99),
            "queries": int((~is_tick).sum()),
            "query_p99_ms": 1e3 * percentile(query_latency, 99),
            "late_p99_s": percentile(late, 99),
        },
    )


# -- tune: genetic threshold learning ----------------------------------------


def tune(seed: int, seconds: float, scale: dict, tracer, work: Path) -> Outcome:
    """Learn thresholds on the train half; serve the test half with them."""
    from repro.core.detector import DBCatcher
    from repro.datasets import UnitSeries
    from repro.presets import default_config
    from repro.service import ReplaySource
    from repro.tuning import GeneticThresholdLearner

    config = default_config()
    base = inputs.base_units(seed, scale["base_ticks"], scale["per_shape"])
    train_v, train_l, test_v, test_l = inputs.split_halves(base)
    points = sum(v.size for v in train_v)
    window = config.initial_window
    tiny = ([train_v[0][:, :, :window]], [train_l[0][:, :window]])
    # Rolled copies of the test halves give the served fleet enough
    # rounds for its latency percentiles.
    test = inputs.rolled_fleet(seed, [
        UnitSeries(name=f"test-{i:02d}", values=v, labels=l,
                   kpi_names=config.kpi_names)
        for i, (v, l) in enumerate(zip(test_v, test_l))
    ], scale["test_units"], logs=False).dataset

    def learn(jobs: int, values, labels, population: int, iterations: int,
              tracer: Optional[Tracer] = None):
        """One learner call: its result, trace, raw seconds and host meter."""
        learner = GeneticThresholdLearner(
            population_size=population, n_iterations=iterations, seed=seed,
            jobs=jobs,
        )
        meter = HostMeter(inside=tracer is None, all_cpus=jobs > 1)
        label = "tune.pool" if jobs > 1 else "tune.serial"
        with meter, tracer.recording(label) if tracer else nullcontext():
            started = meter.clock()
            tuned = learner(config, values, labels)
            seconds = meter.clock() - started
        return tuned, learner.last_trace, seconds, meter

    for jobs in (1, POOL_WORKERS):
        learn(jobs, *tiny, 2, 1)
    pairs = ArmPairs(points)
    setups, latencies = [], []
    tuned = search = served = None
    for rep, rep_tracer in repetitions(seconds, tracer):
        order = (1, POOL_WORKERS) if rep % 2 == 0 else (POOL_WORKERS, 1)
        runs = {
            jobs: learn(jobs, train_v, train_l, scale["population"],
                        scale["iterations"], rep_tracer)
            for jobs in order
        }
        tuned_serial, search, serial_s, serial_meter = runs[1]
        tuned_pool, pool_search, pool_s, pool_meter = runs[POOL_WORKERS]
        check(tuned_serial == tuned_pool and search == pool_search,
              "the pool search differs from the serial search")
        check(tuned is None or tuned == tuned_serial,
              "tuning differs between repetitions")
        tuned = tuned_serial
        pairs.add(serial_s, serial_meter, pool_s, pool_meter,
                  serial_s / serial_meter.factor() + pool_s / pool_meter.factor())
        # Set-up: the fixed cost of one tuning job, on a one-window input.
        *_, setup, meter = learn(POOL_WORKERS, *tiny, 2, 1)
        setups.append(setup / meter.factor())
        served = run_service(tuned, ReplaySource(test), 0, None, "tune.serve")
        latencies.extend(served.latencies())

    # The tuned thresholds, replayed through the library detector and
    # scored by repro.eval, must reproduce the search's best fitness.
    records, truth = {}, {}
    for index, (values, labels) in enumerate(zip(train_v, train_l)):
        detector = DBCatcher(tuned, n_databases=values.shape[0])
        detector.process(values, time_axis=-1)
        records[index], truth[index] = list(detector.history), labels
    rescored = pooled_f1(records, truth)
    check(rescored == search.final,
          f"re-scored fitness {rescored!r} != search best {search.final!r}")
    check(losses(served.report) == 0, "serving the test half lost ticks")
    return Outcome(
        metrics={
            **pairs.metrics(),
            "setup_s": median(setups),
            "verdict_p50_ms": 1e3 * percentile(latencies, 50),
            "verdict_p90_ms": 1e3 * percentile(latencies, 90),
            "f1": report_f1(served.report, test),
        },
        attempted=2 * len(pairs.serial),
        failed=0,
        rep_walls=pairs.walls,
        digest=inputs.digest(base),
        details={
            **pairs.details(),
            "best_fitness": search.final,
            "latency_samples": len(latencies),
        },
    )


RUNNERS = {"dense": dense, "wide": wide, "live": live, "tune": tune}


# -- entry point ----------------------------------------------------------------


def result_path(out: Path, workload: str, seed: int, trace: bool,
                smoke: bool, suffix: str = "json") -> Path:
    tags = "".join(
        tag for tag, on in (("-trace", trace), ("-smoke", smoke)) if on
    )
    return out / f"{workload}-seed{seed}{tags}.{suffix}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out: Path, smoke: bool) -> dict:
    """Run one workload and build its result record."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scale = SCALES["smoke" if smoke else "full"][workload]
    if smoke:
        seconds = SMOKE_SECONDS
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(TARGETS)
        tracer.calibrate()
    work = out / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = RUNNERS[workload](seed, seconds, scale, tracer, work)
        correct, error = True, None
    except CheckFailed as exc:
        outcome, correct, error = None, False, str(exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    result: dict = {
        "workload": workload,
        "smoke": smoke,
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "error": error,
    }
    if outcome is None:
        result.update(attempted=1, failed=1, metrics={})
        return result
    end_to_end = dict(outcome.metrics, rss_mb=peak_rss_mb())
    result.update(
        provenance=provenance(seed, outcome.digest),
        attempted=outcome.attempted,
        failed=outcome.failed,
        end_to_end=end_to_end,
        details=outcome.details,
    )
    names = [m["name"] for m in spec["end_to_end"]]
    if tracer is not None:
        untraced, traced = outcome.rep_walls[0], outcome.rep_walls[1]
        layers = dict(layer_metrics(tracer), **outcome.layers)
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        layers["worker.rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: float(layers.get(name, 0.0)) for name in names}
        result["layers"] = values
        result["missing"] = tracer.missing
        result["table"] = share_rows(tracer)
        tracer.dump(str(result_path(out, workload, seed, trace, smoke,
                                    "spans.json")))
    else:
        values = {name: float(end_to_end[name]) for name in names}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        use_checkout_src()
    except CheckoutError as exc:
        print(f"workloads: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.out, args.smoke)
    if result["error"]:
        print(f"{args.workload}: check failed: {result['error']}",
              file=sys.stderr)
    path = result_path(args.out, args.workload, args.seed, bool(args.trace),
                       args.smoke)
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
