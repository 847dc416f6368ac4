"""Self-test of the benchmark at a tiny smoke scale.

Run with ``python -m pytest bench -q`` (well under a minute).  Results
written here are marked ``smoke``; ``bench/compare.py`` refuses them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import BENCH_DIR, ROOT, load_spec, use_checkout_src

use_checkout_src()

import compare  # noqa: E402
import workloads  # noqa: E402
from trace import TARGETS, Tracer, layer_metrics  # noqa: E402

SPEC = load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = E2E + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in E2E


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_emits_every_metric(workload, tmp_path):
    done = run_bench("--workload", workload, "--smoke", "--trace",
                     "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == PER_LAYER
    result = json.loads(
        (tmp_path / f"{workload}-seed0-trace-smoke.json").read_text()
    )
    assert result["smoke"] is True
    assert list(result["end_to_end"]) == E2E
    for values in (result["end_to_end"], result["layers"]):
        assert all(math.isfinite(v) for v in values.values())
    # Positive at every scale but f1, which a tiny fleet can leave at 0.
    assert all(result["end_to_end"][n] > 0 for n in E2E if n != "f1")
    assert result["layers"]["trace.missing"] == 0
    provenance = result["provenance"]
    assert len(provenance["input_sha256"]) == 64
    assert provenance["seed"] == 0 and provenance["nproc"] >= 1
    assert (tmp_path / f"{workload}-seed0-trace-smoke.spans.json").is_file()


def test_untraced_smoke_run_prints_end_to_end_metrics(tmp_path):
    done = run_bench("--workload", "wide", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert list(last["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in E2E:
        assert f"wide {name} {last['metrics'][name]['value']!r} {units[name]}" in lines


def test_same_seed_same_inputs(tmp_path):
    digests = set()
    for out in ("a", "b"):
        done = run_bench("--workload", "wide", "--smoke", "--seed", "7",
                         "--out", str(tmp_path / out))
        assert done.returncode == 0, done.stderr
        result = json.loads((tmp_path / out / "wide-seed7-smoke.json").read_text())
        digests.add(result["provenance"]["input_sha256"])
    assert len(digests) == 1


def test_corrupted_pool_verdict_fails_the_run(tmp_path, monkeypatch, capsys):
    from repro.service.scheduler import DetectionService

    original = DetectionService.run

    def corrupting_run(self, source, *args, **kwargs):
        report = original(self, source, *args, **kwargs)
        if self.service_config.n_workers:
            unit = next(u for u, rounds in report.results.items() if rounds)
            first = report.results[unit][0]
            report.results[unit][0] = dataclasses.replace(first, end=first.end + 1)
        return report

    monkeypatch.setattr(DetectionService, "run", corrupting_run)
    code = workloads.main(["dense", "--smoke", "--out", str(tmp_path)])
    assert code != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_missing_wrap_target_is_reported():
    tracer = Tracer()
    tracer.install(TARGETS + (
        ("dispatch", "repro.service.workers", "RenamedWorkerPool.dispatch"),
        ("engine", "repro.no_such_module", "matrices"),
    ))
    try:
        assert tracer.missing == [
            "repro.service.workers:RenamedWorkerPool.dispatch",
            "repro.no_such_module:matrices",
        ]
        assert layer_metrics(tracer)["trace.missing"] == 2
    finally:
        tracer.uninstall()
    from repro.engine.batched import BatchedEngine

    assert not hasattr(BatchedEngine.matrices, "__wrapped__")


def test_counter_that_no_longer_fits_is_reported():
    tracer = Tracer()
    dispatch = tracer._wrap(
        "dispatch", "SerialWorkerPool.dispatch", lambda units: dict(units)
    )
    with tracer.recording("root"):
        assert dispatch({"u": [1]}) == {"u": [1]}
    assert tracer.missing == ["SerialWorkerPool.dispatch counters: IndexError"]


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "wide", "--seed", "0", "--seconds", "10",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- compare.py ----------------------------------------------------------------


def _result(tmp_path: Path, name: str, values: dict, **overrides) -> str:
    result = {
        "workload": "dense", "trace": False, "smoke": False, "correct": True,
        "attempted": 100, "failed": 0,
        "provenance": {"input_sha256": "a" * 64},
        "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }
    result.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(result))
    return str(path)


def test_compare_verdicts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(compare, "BASELINE_PATH", tmp_path / "none.json")
    files = []
    for i in range(10):
        files.append(_result(tmp_path, f"p{i}", {
            "points_per_s": 100.0 + i % 3, "verdict_p90_ms": 50.0 + i % 2,
            "f1": 0.7,
        }))
        files.append(_result(tmp_path, f"c{i}", {
            "points_per_s": 130.0 + i % 3, "verdict_p90_ms": 80.0,
            "f1": 0.7,
        }))
    assert compare.main(files) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("dense ") and "pairs" not in line}
    assert rows["points_per_s"].endswith("improved")
    assert rows["verdict_p90_ms"].endswith("worse")
    assert rows["f1"].endswith("identical")
    assert rows["fail_frac"].endswith("identical")


def test_compare_treats_f1_and_failures_as_exact(tmp_path, capsys):
    files = []
    for i in range(10):
        # One pair in ten loses 0.1% of F1 and fails one tick: far
        # inside any relative bound, but a change in the outputs.
        files.append(_result(tmp_path, f"p{i}", {"f1": 0.7}))
        files.append(_result(tmp_path, f"c{i}", {"f1": 0.7 - 0.0007 * (i == 3)},
                             failed=int(i == 3)))
    assert compare.main(files) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("dense ") and "pairs" not in line}
    assert rows["f1"].endswith("worse")
    assert rows["fail_frac"].endswith("worse")


def test_compare_applies_the_workload_bound_of_the_baseline(
    tmp_path, capsys, monkeypatch
):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"workloads": {"dense": {"points_per_s": {"bound": 0.05}}}}
    ))
    files = []
    for i in range(10):
        files.append(_result(tmp_path, f"p{i}", {"points_per_s": 100.0}))
        files.append(_result(tmp_path, f"c{i}", {"points_per_s": 90.0}))
    # 10% slower: inside the BENCHMARK.json bound, outside the fitted one.
    monkeypatch.setattr(compare, "BASELINE_PATH", tmp_path / "none.json")
    assert compare.main(files) == 0
    monkeypatch.setattr(compare, "BASELINE_PATH", baseline)
    capsys.readouterr()
    assert compare.main(files) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("dense ") and line.split()[1] == "points_per_s"]
    assert rows[0].endswith("worse")


def test_compare_refuses_smoke_and_changed_inputs(tmp_path):
    good = _result(tmp_path, "p", {"f1": 0.7})
    smoke = _result(tmp_path, "s", {"f1": 0.7}, smoke=True)
    other = _result(tmp_path, "o", {"f1": 0.7},
                    provenance={"input_sha256": "b" * 64})
    assert compare.main([good, smoke]) == 2
    assert compare.main([good, other]) == 2
    assert compare.main([good]) == 2
