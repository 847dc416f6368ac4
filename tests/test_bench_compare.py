"""Unit tests for the CI bench-trajectory gate (``scripts/bench_compare.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


BASELINE = {
    "engine_batched": {
        "scale": {"units": 2, "ticks": 240},
        "speedup": 90.0,
        "batched_ms_per_round": 1.5,
        "n_rounds": 40,
    },
    "tuning_parallel": {
        "scale": {"units": 2, "ticks": 240},
        "serial_seconds": 4.0,
        "vectorized_speedup": 60.0,
        "best_fitness": 1.0,
    },
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _copy(payload):
    return json.loads(json.dumps(payload))


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("speedup", "higher"),
            ("points_per_second", "higher"),
            ("best_fitness", "higher"),
            ("f_measure", "higher"),
            ("serial_seconds", "lower"),
            ("batched_ms_per_round", "lower"),
            ("overhead_ratio", "lower"),
            ("n_rounds", None),
            # In-run ratios are gated by their own bench, not across runs.
            ("pool_over_serial", None),
            ("scale", None),
            ("cores", None),
        ],
    )
    def test_direction_inference(self, name, expected):
        assert bench_compare.metric_direction(name) == expected


class TestCompare:
    def test_identical_results_pass(self):
        rows, warnings = bench_compare.compare(BASELINE, _copy(BASELINE), 0.30)
        assert rows and not any(row["regressed"] for row in rows)
        assert warnings == []

    def test_injected_slowdown_fails(self):
        current = _copy(BASELINE)
        current["engine_batched"]["batched_ms_per_round"] = 3.0  # 2x slower
        rows, _ = bench_compare.compare(BASELINE, current, 0.30)
        regressed = [row for row in rows if row["regressed"]]
        assert [(r["bench"], r["metric"]) for r in regressed] == [
            ("engine_batched", "batched_ms_per_round")
        ]

    def test_speedup_collapse_fails(self):
        current = _copy(BASELINE)
        current["tuning_parallel"]["vectorized_speedup"] = 10.0
        rows, _ = bench_compare.compare(BASELINE, current, 0.30)
        assert any(
            row["regressed"] and row["metric"] == "vectorized_speedup" for row in rows
        )

    def test_within_tolerance_passes(self):
        current = _copy(BASELINE)
        current["engine_batched"]["batched_ms_per_round"] = 1.5 * 1.25
        current["tuning_parallel"]["vectorized_speedup"] = 60.0 * 0.75
        rows, _ = bench_compare.compare(BASELINE, current, 0.30)
        assert not any(row["regressed"] for row in rows)

    def test_scale_mismatch_skips_bench(self):
        current = _copy(BASELINE)
        current["engine_batched"]["scale"] = {"units": 8, "ticks": 4000}
        current["engine_batched"]["batched_ms_per_round"] = 50.0
        rows, warnings = bench_compare.compare(BASELINE, current, 0.30)
        assert not any(row["bench"] == "engine_batched" for row in rows)
        assert any("different scale" in warning for warning in warnings)

    def test_noise_floor_skips_tiny_timings(self):
        baseline = {"micro": {"scale": None, "setup_seconds": 4e-4}}
        current = {"micro": {"scale": None, "setup_seconds": 8e-4}}  # 2x, but noise
        rows, warnings = bench_compare.compare(baseline, current, 0.30)
        assert rows == []
        assert any("noise floor" in warning for warning in warnings)

    def test_new_bench_and_fields_are_accepted(self):
        current = _copy(BASELINE)
        current["tuning_parallel"]["jobs"] = 2
        current["tuning_pool"] = {
            "scale": {"units": 2, "ticks": 240},
            "cpus": 1,
            "serial_call_seconds": 1.1,
            "pool_call_seconds": 0.9,
            "pool_over_serial": 1.22,
        }
        rows, warnings = bench_compare.compare(BASELINE, current, 0.30)
        assert rows and not any(row["regressed"] for row in rows)
        assert not any(row["bench"] == "tuning_pool" for row in rows)
        assert warnings == []

    def test_missing_bench_warns(self):
        rows, warnings = bench_compare.compare(BASELINE, {}, 0.30)
        assert rows == []
        assert len(warnings) == len(BASELINE)


class TestMain:
    def test_clean_run_exits_zero_and_writes_report(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", BASELINE)
        report = tmp_path / "report.md"
        code = bench_compare.main(
            ["--baseline", base, "--current", cur, "--report", str(report)]
        )
        assert code == 0
        assert "Bench trajectory comparison" in report.read_text()

    def test_regression_exits_one(self, tmp_path):
        current = _copy(BASELINE)
        current["engine_batched"]["batched_ms_per_round"] = 3.0
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert bench_compare.main(["--baseline", base, "--current", cur]) == 1

    def test_no_gated_metrics_exits_one(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", {})
        assert bench_compare.main(["--baseline", base, "--current", cur]) == 1

    def test_missing_file_exits_two(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        missing = str(tmp_path / "nope.json")
        assert bench_compare.main(["--baseline", base, "--current", missing]) == 2

    def test_wider_tolerance_accepts_the_same_delta(self, tmp_path):
        current = _copy(BASELINE)
        current["engine_batched"]["batched_ms_per_round"] = 3.0
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        args = ["--baseline", base, "--current", cur, "--tolerance", "1.5"]
        assert bench_compare.main(args) == 0
