"""Group-commit dispatch: verdicts must not depend on where batches split.

The scheduler ends a batch when the feed goes idle (the ``idle_after``
hint an open-loop source sets) or at the ``batch_ticks`` cap.  Batch
boundaries then follow arrival timing, so everything downstream of the
pool — alerts in order, incidents, fused verdicts, listeners, and the
history a warm restart re-publishes — must come out the same for any
split.  The fleet is the live benchmark's shape: 12 rolled labelled
units, 8-tick rounds, RCA on.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import Dataset, UnitSeries, build_unit_series
from repro.logs.emitter import unit_logbook
from repro.logs.events import LogEvent
from repro.obs import runtime as obs
from repro.obs.export import to_prometheus
from repro.persist.wal import encode_line, read_segment
from repro.presets import default_config
from repro.rca import replay_dataset
from repro.rca.topology import Topology
from repro.service import DetectionService, ReplaySource, ServiceConfig, detect_fleet

CONFIG = default_config(initial_window=8, max_window=24)
FAMILIES = ("tencent", "sysbench", "tpcc")
N_UNITS = 12
N_TICKS = 400


def _rolled_fleet():
    """12 circularly shifted copies of 12 labelled base units, with logs."""
    seeds = np.random.default_rng([0, 1]).integers(0, 2**31 - 1, size=N_UNITS)
    shifts = np.random.default_rng([0, 2])
    units, logbooks = [], {}
    for index, seed in enumerate(seeds):
        base = build_unit_series(
            profile=FAMILIES[index % 3],
            n_databases=5,
            n_ticks=N_TICKS,
            seed=int(seed),
            periodic=(index // 3) % 2 == 0,
            abnormal_ratio=0.04,
            name=f"base-{index:02d}",
        )
        shift = int(shifts.integers(1, N_TICKS))
        name = f"unit-{index:03d}"
        units.append(UnitSeries(
            name=name,
            values=np.roll(base.values, shift, axis=-1),
            labels=np.roll(base.labels, shift, axis=-1),
            kpi_names=base.kpi_names,
            interval_seconds=base.interval_seconds,
            metadata={"base": base.name, "shift": shift},
        ))
        rolled = {}
        for tick, events in unit_logbook(base).items():
            moved = (tick + shift) % N_TICKS
            rolled.setdefault(moved, []).extend(
                LogEvent(moved, e.database, e.level, e.message) for e in events
            )
        logbooks[name] = {t: tuple(e) for t, e in sorted(rolled.items())}
    return Dataset(name="rolled", units=tuple(units)), logbooks


class IrregularHints:
    """Replay with burst-end hints on a seeded random third of the ticks.

    Stands in for an open-loop feed whose bursts end wherever arrival
    timing puts them.  ``kill_after`` raises mid-stream after that many
    events, the way a crashed process stops consuming.
    """

    def __init__(self, dataset, seed, logbook=None, kill_after=None):
        self._inner = ReplaySource(dataset, logbook=logbook)
        self.units = self._inner.units
        self.kpi_names = self._inner.kpi_names
        self.interval_seconds = self._inner.interval_seconds
        self._seed = seed
        self._kill_after = kill_after

    def __iter__(self):
        rng = np.random.default_rng(self._seed)
        for index, event in enumerate(self._inner):
            if index == self._kill_after:
                raise Killed(index)
            yield replace(event, idle_after=bool(rng.random() < 0.3))


class Killed(RuntimeError):
    pass


@pytest.fixture(scope="module")
def fleet():
    return _rolled_fleet()


def _serve(source, service_config=None, **kwargs):
    """One RCA run, with ``detect_fleet``'s topology for the dataset."""
    dataset = getattr(source, "_inner", source).dataset
    service = DetectionService(
        CONFIG,
        service_config=service_config or ServiceConfig(),
        sinks=("null",),
        rca=True,
        topology=Topology.from_dataset(dataset),
        **kwargs,
    )
    return service.run(source)


def _alerts(report):
    return [alert.to_dict() for alert in report.alerts]


def _incidents(report):
    return [incident.to_dict() for incident in report.incidents]


@pytest.fixture(scope="module")
def logged_runs(fleet):
    dataset, logbooks = fleet
    runs = {
        f"batch_ticks={ticks}": detect_fleet(
            dataset, config=CONFIG, rca=True, logbook=logbooks,
            service_config=ServiceConfig(batch_ticks=ticks),
        )
        for ticks in (1, 8, 32)
    }
    runs["irregular"] = _serve(
        IrregularHints(dataset, seed=5, logbook=logbooks),
        ServiceConfig(log_ensemble=True),
    )
    return runs


@pytest.fixture(scope="module")
def plain_runs(fleet):
    """Log-free RCA runs, batched at the cap and by seeded hints, each
    with the ``(end, unit index)`` of every round its listener saw."""
    dataset, _ = fleet
    order = {unit.name: index for index, unit in enumerate(dataset.units)}
    runs = {}
    for label, source in (
        ("cap", ReplaySource(dataset)),
        ("hinted", IrregularHints(dataset, seed=7)),
    ):
        seen = []
        report = _serve(source, result_listener=lambda u, r, seen=seen: (
            seen.append((r.end, order[u]))
        ))
        runs[label] = report, seen
    return runs


class TestBatchInvariance:
    def test_alerts_incidents_and_fused_verdicts_ignore_batch_splits(
        self, logged_runs
    ):
        reference = logged_runs["batch_ticks=1"]
        assert reference.alerts and reference.incidents
        assert reference.fused_verdicts
        for label, report in logged_runs.items():
            assert report.results == reference.results, label
            assert _alerts(report) == _alerts(reference), label
            assert _incidents(report) == _incidents(reference), label
            assert report.fused_verdicts == reference.fused_verdicts, label

    @pytest.mark.parametrize("label", ["cap", "hinted"])
    def test_listener_sees_the_stream_order_of_completion(
        self, plain_runs, label
    ):
        report, seen = plain_runs[label]
        assert len(seen) == report.total_rounds
        assert seen == sorted(seen)

    def test_incidents_equal_the_offline_replay(self, fleet, plain_runs):
        dataset, _ = fleet
        offline = _incidents(replay_dataset(dataset, CONFIG))
        assert offline
        for label, (report, _) in plain_runs.items():
            assert _incidents(report) == offline, label


def _assert_same_run(resumed, reference):
    assert set(resumed.results) == set(reference.results)
    for unit, rounds in reference.results.items():
        got = resumed.results[unit]
        assert [(r.start, r.end) for r in got] == [
            (r.start, r.end) for r in rounds
        ], unit
        assert [r.records for r in got] == [r.records for r in rounds], unit
    assert _alerts(resumed) == _alerts(reference)
    assert _incidents(resumed) == _incidents(reference)


def _strip_ordinals(state_dir):
    """Rewrite every WAL record as one written before rounds had ordinals."""
    stripped = 0
    for path in sorted(state_dir.rglob("*.jsonl")):
        payloads, truncated = read_segment(str(path))
        assert not truncated
        for payload in payloads:
            stripped += payload.pop("ordinal", None) is not None
        path.write_text("".join(encode_line(p) for p in payloads))
    assert stripped
    return stripped


class TestIrregularRecovery:
    @pytest.mark.parametrize("jobs", [0, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("legacy_wal", [False, True], ids=["ordinal", "legacy"])
    def test_killed_irregular_run_resumes_identically(
        self, fleet, plain_runs, tmp_path, jobs, legacy_wal
    ):
        dataset, _ = fleet
        reference, _ = plain_runs["cap"]
        durable = ServiceConfig(
            n_workers=jobs, state_dir=str(tmp_path / "state"), snapshot_every=3
        )
        kill_after = N_UNITS * N_TICKS * 3 // 5
        with pytest.raises(Killed):
            _serve(IrregularHints(dataset, seed=11, kill_after=kill_after), durable)
        if legacy_wal:
            _strip_ordinals(tmp_path / "state")
        resumed = _serve(IrregularHints(dataset, seed=12), durable)
        assert resumed.recovered_rounds > 0
        _assert_same_run(resumed, reference)


class TestVerdictLag:
    def test_live_rounds_are_timed_and_recovered_ones_are_not(
        self, fleet, tmp_path
    ):
        dataset, _ = fleet
        durable = ServiceConfig(state_dir=str(tmp_path / "state"))
        source = IrregularHints(dataset, seed=3, kill_after=N_UNITS * N_TICKS // 2)
        with pytest.raises(Killed):
            _serve(source, durable)
        with obs.scoped() as registry:
            report = _serve(IrregularHints(dataset, seed=4), durable)
            exposition = to_prometheus(registry)
        lag = report.metrics["alerts.verdict_lag_seconds"]
        assert report.recovered_rounds > 0
        assert lag["count"] == report.total_rounds - report.recovered_rounds
        assert 0.0 <= lag["min"] <= lag["max"] < 60.0
        assert "repro_alerts_verdict_lag_seconds_count" in exposition

    def test_unobserved_runs_keep_no_timer(self, plain_runs):
        report, _ = plain_runs["hinted"]
        assert "alerts.verdict_lag_seconds" not in report.metrics
