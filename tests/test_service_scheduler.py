"""Fleet scheduler tests: end-to-end service runs and verdict parity."""

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher
from repro.datasets.containers import Dataset, UnitSeries
from repro.service import (
    DetectionService,
    MemorySink,
    MetricsRegistry,
    MonitorSource,
    ReplaySource,
    ServiceConfig,
    detect_fleet,
    make_pool,
)

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)


def _unit(name, seed, n_db=3, n_ticks=160):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 11, n_ticks)) + 2.0
    values = np.stack(
        [trend[None, :] * (1 + 0.02 * d) + 0.01 * rng.standard_normal((2, n_ticks))
         for d in range(n_db)]
    )
    values[1, :, 70:100] = rng.standard_normal((2, 30)) * 3.0 + 9.0
    labels = np.zeros((n_db, n_ticks), dtype=bool)
    labels[1, 70:100] = True
    return UnitSeries(
        name=name, values=values, labels=labels, kpi_names=("cpu", "rps")
    )


@pytest.fixture(scope="module")
def fleet():
    return Dataset(
        name="fleet", units=tuple(_unit(f"u{i}", 40 + i) for i in range(4))
    )


def _reference(fleet):
    return {
        unit.name: DBCatcher(CONFIG, n_databases=unit.n_databases).process(
            unit.values
        , time_axis=-1)
        for unit in fleet.units
    }


class TestSerialService:
    def test_matches_serial_process_exactly(self, fleet):
        report = detect_fleet(fleet, config=CONFIG)
        assert report.results == _reference(fleet)

    def test_batch_size_does_not_change_verdicts(self, fleet):
        small = detect_fleet(
            fleet, config=CONFIG,
            service_config=ServiceConfig(batch_ticks=7, queue_capacity=16),
        )
        large = detect_fleet(
            fleet, config=CONFIG,
            service_config=ServiceConfig(batch_ticks=160, queue_capacity=256),
        )
        assert small.results == large.results

    def test_alerts_track_abnormal_rounds(self, fleet):
        sink = MemorySink()
        service = DetectionService(CONFIG, sinks=(sink,))
        report = service.run(ReplaySource(fleet))
        abnormal_rounds = sum(
            1
            for rounds in report.results.values()
            for result in rounds
            if result.abnormal_databases
        )
        assert abnormal_rounds > 0
        assert len(sink.alerts) == abnormal_rounds
        assert report.alerts_emitted == abnormal_rounds
        assert report.alerts == sink.alerts

    def test_records_for_matches_detector_history(self, fleet):
        report = detect_fleet(fleet, config=CONFIG)
        for unit in fleet.units:
            detector = DBCatcher(CONFIG, n_databases=unit.n_databases)
            detector.process(unit.values, time_axis=-1)
            assert report.records_for(unit.name) == list(detector.history)

    def test_max_ticks_caps_consumption(self, fleet):
        report = detect_fleet(fleet, config=CONFIG, max_ticks=50)
        assert report.ticks_ingested == 50 * len(fleet.units)
        for rounds in report.results.values():
            assert all(result.end <= 50 for result in rounds)

    def test_fire_and_forget_mode_keeps_no_results(self, fleet):
        service = DetectionService(CONFIG, sinks=("null",))
        report = service.run(ReplaySource(fleet), collect_results=False)
        assert report.results == {}
        assert report.rounds_completed > 0

    def test_metrics_snapshot_populated(self, fleet):
        metrics = MetricsRegistry()
        service = DetectionService(CONFIG, sinks=("null",), metrics=metrics)
        report = service.run(ReplaySource(fleet))
        assert report.metrics["ticks_ingested"] == 160 * len(fleet.units)
        assert report.metrics["ingest_latency_seconds"]["count"] > 0
        assert report.metrics["dispatch_latency_seconds"]["count"] > 0
        assert report.component_seconds["correlation"] > 0.0


class TestParallelParity:
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_parallel_results_identical_to_serial(self, fleet, transport):
        """The golden parity requirement: same data, same seeds ->
        identical UnitDetectionResult sequences per unit, serial vs pool,
        on either transport."""
        serial = detect_fleet(fleet, config=CONFIG)
        parallel = detect_fleet(
            fleet, config=CONFIG,
            service_config=ServiceConfig(n_workers=2, transport=transport),
        )
        assert parallel.results == serial.results
        assert parallel.worker_restarts == 0
        assert parallel.ticks_lost == 0

    def test_service_config_n_workers_runs_the_pool(self, fleet, monkeypatch):
        # The worker count comes from the ServiceConfig alone: nothing
        # else may quietly turn a pool run into a serial one.
        from repro.service import ProcessWorkerPool, scheduler

        pools = []

        def spy(*args, **kwargs):
            pools.append(make_pool(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(scheduler, "make_pool", spy)
        report = detect_fleet(
            fleet, config=CONFIG, service_config=ServiceConfig(n_workers=2)
        )
        assert [type(pool) for pool in pools] == [ProcessWorkerPool]
        assert report.results == _reference(fleet)


class TestPerUnitConfig:
    def test_config_dict_and_callable(self, fleet):
        per_unit = {unit.name: CONFIG for unit in fleet.units}
        from_dict = detect_fleet(fleet, config=per_unit)
        from_callable = detect_fleet(
            fleet, config=lambda name, n_databases: CONFIG
        )
        assert from_dict.results == from_callable.results


class TestMonitorSourceService:
    def test_live_simulated_fleet_round_trips(self):
        source = MonitorSource.simulate(
            n_units=2, family="tencent", n_databases=3, n_ticks=90, seed=5
        )
        from repro.presets import default_config

        service = DetectionService(
            default_config(initial_window=15, max_window=45), sinks=("null",)
        )
        report = service.run(source)
        assert report.ticks_ingested == 2 * 90
        assert report.rounds_completed > 0
        assert all(gap == 0 for gap in report.sequence_gaps.values())

    def test_live_stream_matches_offline_collection(self):
        """A service fed by monitor.stream sees the same verdicts as the
        batch pipeline over the same simulated unit and seeds."""
        from repro.cluster.monitor import BypassMonitor
        from repro.cluster.unit import Unit
        from repro.workloads.sysbench import sysbench_irregular

        rng = np.random.default_rng(9)
        mixes = sysbench_irregular(120, rng)
        offline = BypassMonitor(
            Unit("u", n_databases=3, seed=2), seed=7
        ).collect(mixes)
        config = DBCatcherConfig(
            kpi_names=tuple(Unit("tmp", n_databases=2, seed=0).kpi_names),
            initial_window=12,
            max_window=36,
        )
        reference = DBCatcher(config, n_databases=3).process(offline, time_axis=-1)

        rng = np.random.default_rng(9)
        source = MonitorSource(
            [BypassMonitor(Unit("u", n_databases=3, seed=2), seed=7)],
            [sysbench_irregular(120, rng)],
        )
        report = DetectionService(config, sinks=("null",)).run(source)
        assert report.results["u"] == reference
