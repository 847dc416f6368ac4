"""RCA service integration: pipeline, sinks, replay, harness and CLI."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.detector import UnitDetectionResult
from repro.core.matrices import CorrelationMatrix
from repro.core.records import DatabaseState, JudgementRecord
from repro.datasets.containers import Dataset, UnitSeries
from repro.rca import (
    RootCauseAnalyzer,
    Topology,
    replay_alerts,
    run_attribution_harness,
)
from repro.service.alerts import Alert, AlertPipeline, JSONLSink, MemorySink
from repro.service.config import ServiceConfig
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import detect_fleet

CONFIG = DBCatcherConfig(
    kpi_names=("cpu", "rps"), initial_window=10, max_window=20
)


def _record(db, state, start, end):
    return JudgementRecord(
        database=db,
        window_start=start,
        window_end=end,
        state=state,
        kpi_levels={"cpu": 1 if state is DatabaseState.ABNORMAL else 3},
    )


def _result(abnormal=(1,), start=0, end=20, n=3, with_matrices=True):
    records = {
        db: _record(
            db,
            DatabaseState.ABNORMAL if db in abnormal else DatabaseState.HEALTHY,
            start,
            end,
        )
        for db in range(n)
    }
    matrices = None
    if with_matrices:
        dense = np.full((n, n), 0.9)
        np.fill_diagonal(dense, 1.0)
        for db in abnormal:
            dense[db, :] = dense[:, db] = 0.1
            dense[db, db] = 1.0
        matrices = (
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        )
    return UnitDetectionResult(
        start=start,
        end=end,
        records=records,
        matrices=matrices,
        active=(True,) * n,
    )


def _analyzer(units=("u0", "u1"), **kwargs):
    kwargs.setdefault("window_ticks", 40)
    kwargs.setdefault("resolve_after_ticks", 40)
    return RootCauseAnalyzer(
        configs=CONFIG, topology=Topology.single_group(units), **kwargs
    )


class TestAlertOptionalFields:
    def test_plain_alert_has_no_rca_keys(self):
        alert = Alert.from_result("u", _result())
        payload = alert.to_dict()
        assert "attribution" not in payload
        assert "incident_id" not in payload
        assert Alert.from_dict(json.loads(json.dumps(payload))) == alert

    def test_rca_alert_round_trips_with_both_fields(self):
        sink = MemorySink()
        pipeline = AlertPipeline((sink,), rca=_analyzer())
        alert = pipeline.publish("u0", _result())
        assert alert.attribution is not None
        assert alert.attribution.top_database == 1
        assert alert.incident_id == "inc-0001"
        payload = json.loads(json.dumps(alert.to_dict()))
        assert payload["incident_id"] == "inc-0001"
        assert Alert.from_dict(payload) == alert


class TestPipelineRateLimit:
    def test_limit_suppresses_within_window(self):
        sink = MemorySink()
        metrics = MetricsRegistry()
        pipeline = AlertPipeline(
            (sink,), metrics=metrics, rate_limit=2, rate_window_ticks=60
        )
        emitted = [
            pipeline.publish("u", _result(start=t, end=t + 20))
            for t in (0, 10, 20)
        ]
        assert [a is not None for a in emitted] == [True, True, False]
        assert metrics.counter("alerts_suppressed").value == 1
        assert metrics.counter("alerts_emitted").value == 2

    def test_window_slide_re_admits(self):
        pipeline = AlertPipeline(
            (MemorySink(),), rate_limit=1, rate_window_ticks=30
        )
        assert pipeline.publish("u", _result(start=0, end=20)) is not None
        assert pipeline.publish("u", _result(start=10, end=30)) is None
        # First alert's end tick (20) leaves the 30-tick window at tick 50.
        assert pipeline.publish("u", _result(start=30, end=50)) is not None

    def test_limit_is_per_unit(self):
        pipeline = AlertPipeline(
            (MemorySink(),), rate_limit=1, rate_window_ticks=60
        )
        assert pipeline.publish("a", _result()) is not None
        assert pipeline.publish("b", _result()) is not None

    def test_suppressed_rounds_still_feed_rca(self):
        analyzer = _analyzer()
        pipeline = AlertPipeline(
            (MemorySink(),), rca=analyzer, rate_limit=1, rate_window_ticks=60
        )
        pipeline.publish("u0", _result(start=0, end=20))
        assert pipeline.publish("u0", _result(start=10, end=30)) is None
        assert analyzer.incidents[0].frequency == 2  # verdict not lost

    def test_invalid_rate_limit_rejected(self):
        with pytest.raises(ValueError):
            AlertPipeline((MemorySink(),), rate_limit=0)
        with pytest.raises(ValueError):
            AlertPipeline((MemorySink(),), rate_window_ticks=0)


class TestPipelineIncidents:
    def test_min_databases_gate_still_feeds_rca_clock(self):
        # A verdict below the alert gate must still open its incident.
        analyzer = _analyzer()
        pipeline = AlertPipeline(
            (MemorySink(),), rca=analyzer, min_databases=2
        )
        assert pipeline.publish("u0", _result(abnormal=(1,))) is None
        assert len(analyzer.incidents) == 1

    def test_normal_rounds_move_the_clock_to_resolution(self):
        sink = MemorySink()
        analyzer = _analyzer(resolve_after_ticks=40)
        pipeline = AlertPipeline((sink,), rca=analyzer)
        pipeline.publish("u0", _result(start=0, end=20))
        pipeline.publish("u0", _result(abnormal=(), start=20, end=60))
        assert [e.kind for e in sink.incident_events] == ["opened", "resolved"]

    def test_finish_resolves_open_incidents(self):
        sink = MemorySink()
        pipeline = AlertPipeline((sink,), rca=_analyzer())
        pipeline.publish("u0", _result(start=0, end=20))
        pipeline.finish()
        kinds = [e.kind for e in sink.incident_events]
        assert kinds == ["opened", "resolved"]
        pipeline.close()

    def test_incident_counters_reach_the_registry(self):
        metrics = MetricsRegistry()
        pipeline = AlertPipeline(
            (MemorySink(),), metrics=metrics, rca=_analyzer()
        )
        pipeline.publish("u0", _result())
        pipeline.finish()
        assert metrics.counter("incidents_opened").value == 1
        assert metrics.counter("incidents_resolved").value == 1


class TestJSONLDurability:
    def test_incident_records_tagged_alerts_untagged(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = JSONLSink(path)
        pipeline = AlertPipeline((sink,), rca=_analyzer())
        pipeline.publish("u0", _result())
        pipeline.finish()
        pipeline.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r.get("type") for r in records] == [None, "incident", "incident"]

    def test_crash_after_emit_loses_nothing(self, tmp_path):
        # Emit one alert, then die without close/flush: the record must
        # already be durable on disk (per-record fsync).
        path = tmp_path / "alerts.jsonl"
        script = textwrap.dedent(
            f"""
            import os
            from repro.service.alerts import Alert, JSONLSink
            sink = JSONLSink({str(path)!r})
            sink.emit(Alert(unit="u", start=0, end=20, abnormal_databases=(1,)))
            os._exit(1)  # no atexit, no interpreter shutdown flushing
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["unit"] == "u"


def _fleet(n_units=2, n_db=4, n_ticks=160):
    units = []
    for u in range(n_units):
        rng = np.random.default_rng(u)
        trend = np.sin(np.linspace(0, 10, n_ticks)) + 2.0
        values = np.stack(
            [
                np.stack([trend * (1 + 0.02 * d)] * 2)
                + 0.01 * rng.standard_normal((2, n_ticks))
                for d in range(n_db)
            ]
        )
        values[1, :, 60:100] = rng.standard_normal((2, 40)) * 3.0 + 9.0
        labels = np.zeros((n_db, n_ticks), dtype=bool)
        labels[1, 60:100] = True
        units.append(
            UnitSeries(
                name=f"u{u}", values=values, labels=labels,
                kpi_names=("cpu", "rps"),
            )
        )
    return Dataset(name="rca-fleet", units=tuple(units))


class TestServiceIntegration:
    def test_detect_fleet_with_rca_collects_incidents(self):
        sink = MemorySink()
        report = detect_fleet(_fleet(), CONFIG, sinks=(sink,), rca=True)
        assert report.incidents
        assert all(i.status == "resolved" for i in report.incidents)
        assert any(a.attribution is not None for a in report.alerts)
        assert any(e.kind == "opened" for e in sink.incident_events)
        flagged = {
            db
            for incident in report.incidents
            for _, db, _ in incident.culprits(1)
        }
        assert flagged == {1}  # the seeded anomaly sits on database 1

    def test_parallel_run_matches_serial_incidents(self):
        serial = detect_fleet(_fleet(), CONFIG, sinks=("null",), rca=True)
        parallel = detect_fleet(
            _fleet(), CONFIG, service_config=ServiceConfig(n_workers=2),
            sinks=("null",), rca=True,
        )
        assert [i.to_dict() for i in serial.incidents] == [
            i.to_dict() for i in parallel.incidents
        ]

    def test_alert_jsonl_replay_rebuilds_incidents(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        report = detect_fleet(
            _fleet(), CONFIG, sinks=(f"jsonl:{path}",), rca=True
        )
        replayed = replay_alerts(path, Topology.single_group(["u0", "u1"]))
        assert [i.culprits(3) for i in replayed.incidents] == [
            i.culprits(3) for i in report.incidents
        ]
        assert replayed.render()


class TestHarnessSmoke:
    def test_small_run_meets_the_precision_floor(self):
        report = run_attribution_harness(
            kinds=("stuck_gauge",), trials_per_kind=2, n_ticks=200
        )
        assert report.detection_rate() == 1.0
        assert report.precision_at(1) >= 0.8
        payload = report.to_dict()
        assert payload["per_kind"]["stuck_gauge"]["trials"] == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            run_attribution_harness(kinds=("nan_gauge",), trials_per_kind=1)


class TestCLI:
    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("rca") / "fleet.npz"
        assert main(["simulate", str(path), "--units", "2",
                     "--ticks", "240", "--seed", "0"]) == 0
        return path

    def test_rca_dataset_replay(self, archive, capsys):
        from repro.cli import main

        assert main(["rca", str(archive), "--initial-window", "10",
                     "--max-window", "20"]) == 0
        out = capsys.readouterr().out
        assert "RCA report" in out
        assert "culprit" in out

    def test_rca_alerts_replay_and_json(self, archive, tmp_path, capsys):
        from repro.cli import main

        alerts = tmp_path / "alerts.jsonl"
        out_json = tmp_path / "report.json"
        assert main(["serve", str(archive), "--rca",
                     "--sink", f"jsonl:{alerts}",
                     "--initial-window", "10", "--max-window", "20"]) == 0
        capsys.readouterr()
        assert main(["rca", str(alerts), "--json", str(out_json)]) == 0
        report = json.loads(out_json.read_text())
        assert report["incidents"]
        assert report["incidents"][0]["culprits"]

    def test_rca_needs_input(self, capsys):
        from repro.cli import main

        assert main(["rca"]) == 2
        assert "needs an input" in capsys.readouterr().err

    def test_serve_rca_summary_line(self, archive, capsys):
        from repro.cli import main

        assert main(["serve", str(archive), "--rca", "--sink", "null",
                     "--initial-window", "10", "--max-window", "20"]) == 0
        assert "incidents:" in capsys.readouterr().out
