"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out.npz"])
        assert args.family == "tencent"
        assert args.units == 4

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "x.npz", "--family", "db2"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CPU Utilization" in out
        assert "default config" in out

    def test_simulate_then_detect_roundtrip(self, tmp_path, capsys):
        archive = tmp_path / "tiny.npz"
        assert main([
            "simulate", str(archive),
            "--family", "sysbench", "--units", "2", "--ticks", "300",
            "--seed", "9",
        ]) == 0
        assert archive.exists()
        capsys.readouterr()

        assert main(["detect", str(archive), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "F-Measure=" in out

    def test_detect_with_alpha_override(self, tmp_path, capsys):
        archive = tmp_path / "tiny.npz"
        main([
            "simulate", str(archive),
            "--family", "sysbench", "--units", "2", "--ticks", "300",
            "--seed", "9",
        ])
        capsys.readouterr()
        assert main(["detect", str(archive), "--alpha", "0.85"]) == 0
        out = capsys.readouterr().out
        assert "Precision=" in out


class TestServeCommand:
    @pytest.fixture
    def archive(self, tmp_path):
        path = tmp_path / "fleet.npz"
        main([
            "simulate", str(path),
            "--family", "sysbench", "--units", "2", "--ticks", "200",
            "--seed", "3",
        ])
        return path

    def test_serve_replay_summary(self, archive, capsys):
        capsys.readouterr()
        assert main(["serve", str(archive), "--sink", "null"]) == 0
        out = capsys.readouterr().out
        assert "served 2 units (serial)" in out
        assert "400 ticks" in out
        assert "worker restarts" in out
        # Timing is opt-in: an unobserved run prints no span timings.
        assert "dispatch.round" not in out

    def test_serve_observed_summary_reads_spans(self, archive, tmp_path, capsys):
        capsys.readouterr()
        snapshot = tmp_path / "snap.prom"
        assert main([
            "serve", str(archive), "--sink", "null", "--jobs", "2",
            "--obs-snapshot", str(snapshot),
        ]) == 0
        out = capsys.readouterr().out
        assert "detection time: correlation" in out
        assert "dispatch.round: mean" in out
        assert "repro_span_engine_correlate_wall_seconds_count" in (
            snapshot.read_text()
        )

    def test_serve_jsonl_sink(self, archive, tmp_path, capsys):
        capsys.readouterr()
        alerts_path = tmp_path / "alerts.jsonl"
        assert main([
            "serve", str(archive), "--sink", f"jsonl:{alerts_path}",
        ]) == 0
        capsys.readouterr()
        assert alerts_path.exists()

    def test_serve_needs_a_source(self, capsys):
        assert main(["serve"]) == 2
        assert (
            "needs a dataset path, --live, --log-scenario, or --ingest-port"
            in capsys.readouterr().err
        )

    def test_serve_log_scenario(self, tmp_path, capsys):
        import json

        alerts_path = tmp_path / "log-alerts.jsonl"
        assert main([
            "serve", "--log-scenario", "error-burst", "--rca",
            "--sink", f"jsonl:{alerts_path}",
        ]) == 0
        assert "log scenario error-burst" in capsys.readouterr().err
        records = [
            json.loads(line)
            for line in alerts_path.read_text().splitlines()
        ]
        assert any(
            record.get("provenance", {}).get("2") == "log"
            for record in records
        ), "the seeded victim must surface with log provenance"
        assert any(record.get("type") == "incident" for record in records)

    def test_serve_log_scenario_conflicts_with_dataset(self, archive, capsys):
        assert main([
            "serve", str(archive), "--log-scenario", "error-burst",
        ]) == 2
        assert "--log-scenario replaces" in capsys.readouterr().err

    def test_serve_live_fleet(self, capsys):
        assert main([
            "serve", "--live", "--units", "2", "--databases", "3",
            "--ticks", "80", "--seed", "1", "--sink", "null",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 2 units (serial)" in out
        assert "160 ticks" in out

    def test_serve_max_ticks(self, archive, capsys):
        capsys.readouterr()
        assert main([
            "serve", str(archive), "--sink", "null", "--max-ticks", "60",
        ]) == 0
        assert "120 ticks" in capsys.readouterr().out


class TestDetectJobs:
    def test_jobs_flag_preserves_scores(self, tmp_path, capsys):
        archive = tmp_path / "tiny.npz"
        main([
            "simulate", str(archive),
            "--family", "sysbench", "--units", "2", "--ticks", "200",
            "--seed", "9",
        ])
        capsys.readouterr()
        assert main(["detect", str(archive)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["detect", str(archive), "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "F-Measure=" in parallel_out

    def test_info_shows_service_defaults(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "service defaults:" in out
        assert "backpressure=block" in out


class _Stop(Exception):
    """Raised by the stand-in service entry points once they saw a config."""


class TestServiceFlags:
    """detect / serve / chaos share one declaration of the service flags."""

    SHARED = ["--jobs", "3", "--transport", "shm"]
    DURABLE = ["--state-dir", "state", "--snapshot-every", "5"]

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("flags") / "fleet.npz"
        main([
            "simulate", str(path),
            "--family", "sysbench", "--units", "2", "--ticks", "60",
        ])
        return path

    @staticmethod
    def _service_config(monkeypatch, argv):
        """The ServiceConfig a subcommand hands to the service layer."""
        import repro.chaos
        import repro.service

        seen = []

        def capture(*args, service_config=None, **kwargs):
            seen.append(service_config)
            raise _Stop

        monkeypatch.setattr(repro.service, "detect_fleet", capture)
        monkeypatch.setattr(repro.service, "DetectionService", capture)
        monkeypatch.setattr(repro.chaos, "run_scenario", capture)
        with pytest.raises(_Stop):
            main(argv)
        return seen[0]

    def test_same_flags_build_equal_configs(self, archive, monkeypatch):
        from repro.service import ServiceConfig

        flags = self.SHARED + self.DURABLE
        detect = self._service_config(monkeypatch, ["detect", str(archive)] + flags)
        serve = self._service_config(monkeypatch, ["serve", str(archive)] + flags)
        chaos = self._service_config(
            monkeypatch, ["chaos", str(archive)] + self.SHARED
        )
        assert detect == serve == ServiceConfig(
            n_workers=3, transport="shm", state_dir="state", snapshot_every=5
        )
        assert chaos == ServiceConfig(n_workers=3, transport="shm")

    @pytest.mark.parametrize("command", ["detect", "serve", "chaos"])
    def test_defaults_come_from_service_config(self, archive, monkeypatch, command):
        from repro.service import ServiceConfig

        built = self._service_config(monkeypatch, [command, str(archive)])
        assert built == ServiceConfig()

    def test_chaos_declares_no_state_flags(self, archive, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", str(archive), "--state-dir", "state"])
        capsys.readouterr()
