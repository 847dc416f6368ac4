"""Summarize two sets of seeded runs into the benchmark's baseline.

Usage::

    python3 bench/baseline.py SET_A_DIR SET_B_DIR > bench/baseline.json

Each directory holds the untraced result files of one set of runs, one
per workload and seed (``bench/run.py --seed N --out DIR`` for N = 0..9).
For every workload and end-to-end metric the summary gives each set's
median and spread (the distance between the first and third quartile,
as ``statistics.quantiles(values, n=4)`` gives them, over the median),
the drift of set B's median from set A's, and the bound
``bench/compare.py`` applies to the metric on that workload (see
:func:`workload_bound`; none for the metrics it compares exactly).  For the two throughputs it also gives the same
summary of the raw values, before host scaling (``host.py``), as the
evidence that the scaling earns its place.  Smoke and failed runs are
refused.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from common import load_spec
from compare import EXACT


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "runs": len(values),
    }


def workload_bound(a: dict, b: dict, drift: float, spec_bound: float) -> float:
    """Twice the wider set's spread or 1.5 times the drift, whichever is
    larger, rounded up to a hundredth, at least 0.02.

    ``BENCHMARK.json`` holds one bound per metric for every workload, so
    the least steady workload sets it; this one fits the workload and so
    catches smaller regressions where the workload is steadier.  It is
    never looser than the ``BENCHMARK.json`` bound.
    """
    wanted = max(2 * a["spread"], 2 * b["spread"], 1.5 * abs(drift), 0.02)
    return min(math.ceil(100 * wanted) / 100, spec_bound)


#: Raw throughputs: metric name -> the arm times it is made from.
RAW = {"points_per_s": "serial_seconds", "pool_points_per_s": "pool_seconds"}


def load_set(directory: Path, metrics: List[str]):
    """Metric values per workload (raw ones as ``raw.<name>``), and where
    the runs were made."""
    values: Dict[str, Dict[str, list]] = {}
    host: Dict[str, object] = {}
    for path in sorted(directory.glob("*-seed*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        if result.get("smoke") or not result.get("correct"):
            raise ValueError(f"{path}: smoke or failed run")
        per_metric = values.setdefault(result["workload"], {})
        for name in metrics:
            per_metric.setdefault(name, []).append(
                result["metrics"][name]["value"]
            )
        details = result["details"]
        for name, times in RAW.items():
            per_metric.setdefault(f"raw.{name}", []).append(statistics.median(
                details["points"] / seconds for seconds in details[times]
            ))
        host = {
            key: value for key, value in result["provenance"].items()
            if key not in ("seed", "input_sha256")
        }
    return values, host


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (first, host), (second, _) = (load_set(Path(d), list(bounds)) for d in argv)
    baseline: Dict[str, Dict[str, dict]] = {}
    for workload in sorted(first):
        baseline[workload] = {}
        names = list(bounds) + [f"raw.{name}" for name in RAW]
        for name in names:
            a = summarize(first[workload][name])
            b = summarize(second[workload][name])
            drift = (b["median"] - a["median"]) / abs(a["median"])
            baseline[workload][name] = {"set_a": a, "set_b": b, "drift": drift}
            if name in bounds and name not in EXACT:
                baseline[workload][name]["bound"] = workload_bound(
                    a, b, drift, bounds[name]
                )
    json.dump(
        {"run_seconds": spec["run_seconds"], "host": host,
         "workloads": baseline},
        sys.stdout, indent=1,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
