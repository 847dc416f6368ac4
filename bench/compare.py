"""Compare parent and change runs of the benchmark, metric by metric.

Usage::

    python3 bench/compare.py PARENT_1 CHANGE_1 PARENT_2 CHANGE_2 ...

Each argument is a result file written by ``bench/run.py`` (one workload,
one seed).  Files pair up in the order given: parent, then change.  Run
the pairs alternating which side goes first, and give every pair the
same seed on both sides.

For each workload and metric the report shows each side's median and
quartiles, the fraction of pairs the change won (ties count for
neither), and a verdict:

* ``improved`` — at least 10 pairs, the change won at least 9 in 10, and
  the medians differ by more than the parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound on that workload: the one in
  ``bench/baseline.json``, fitted to the workload's measured spread,
  else the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the parent's spread is wider than the bound, so no
  regression verdict is possible (unless every change run beats every
  parent run);
* ``within bound`` — none of the above;
* ``no claim`` — a per-layer metric (no bound) that did not improve.

``f1`` and ``fail_frac`` (a run's ``failed`` over ``attempted``) depend
on the inputs alone, so they are compared pair by pair instead: ``worse``
if any pair's change reads worse than its parent, ``identical`` if every
pair reads the same, else ``changed`` (the outputs moved; look at them).

Smoke results, failed runs, and pairs of different workloads or input
digests are refused.  Exit code: 0, or 1 if any metric is worse, or 2
if the inputs are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR, load_spec

BASELINE_PATH = BENCH_DIR / "baseline.json"

#: Metrics that depend on the inputs alone, and which way is better.
EXACT = {"f1": "higher", "fail_frac": "lower"}


class Refused(ValueError):
    """The files cannot be compared as measurements."""


def load_pairs(paths: List[str]) -> Dict[str, List[Tuple[dict, dict]]]:
    if len(paths) < 2 or len(paths) % 2:
        raise Refused("give an even number of result files: parent, change, ...")
    by_workload: Dict[str, List[Tuple[dict, dict]]] = defaultdict(list)
    for parent_path, change_path in zip(paths[::2], paths[1::2]):
        pair = []
        for path in (parent_path, change_path):
            with open(path, encoding="utf-8") as handle:
                result = json.load(handle)
            if result.get("smoke"):
                raise Refused(f"{path} is a smoke run, not a measurement")
            if not result.get("correct"):
                raise Refused(f"{path} failed its correctness checks")
            pair.append(result)
        parent, change = pair
        for key in ("workload", "trace"):
            if parent.get(key) != change.get(key):
                raise Refused(
                    f"{parent_path} and {change_path} differ in {key}"
                )
        digests = [r["provenance"]["input_sha256"] for r in pair]
        if digests[0] != digests[1]:
            raise Refused(
                f"{parent_path} and {change_path} ran on different inputs "
                "(input_sha256 differs): the generators changed"
            )
        by_workload[parent["workload"]].append((parent, change))
    return by_workload


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """The verdict for one metric, and the change's win fraction."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_fraction = wins / len(parent)
    p1, p_med, p3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and gain > 0 and abs(c_med - p_med) > p3 - p1):
        return "improved", win_fraction
    if bound is None:
        return "no claim", win_fraction
    scale = abs(p_med) or 1.0
    if (p3 - p1) / scale > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("within bound" if all_better else "unresolved"), win_fraction
    if gain / scale < -bound:
        return "worse", win_fraction
    return "within bound", win_fraction


def exact_verdict(parent: List[float], change: List[float],
                  better: str) -> Tuple[str, float]:
    """The verdict for a metric every same-seed pair must repeat exactly."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    win_fraction = sum(g > 0 for g in gains) / len(gains)
    if any(g < 0 for g in gains):
        return "worse", win_fraction
    return ("changed" if win_fraction else "identical"), win_fraction


def value(result: dict, name: str) -> float:
    if name == "fail_frac":
        return result["failed"] / result["attempted"]
    return result["metrics"][name]["value"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        fitted = json.loads(BASELINE_PATH.read_text())["workloads"]
    except OSError:
        fitted = {}
    try:
        by_workload = load_pairs(argv)
    except (Refused, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    worse = False
    header = (f"{'workload':<8} {'metric':<28} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    print(header)
    for workload, pairs in sorted(by_workload.items()):
        names = [n for n in pairs[0][0]["metrics"] if n in metrics]
        for name in names + ["fail_frac"]:
            parent = [value(p, name) for p, _ in pairs]
            change = [value(c, name) for _, c in pairs]
            if name in EXACT:
                outcome, win_fraction = exact_verdict(
                    parent, change, EXACT[name]
                )
            else:
                meta = metrics[name]
                bound = fitted.get(workload, {}).get(name, {}).get(
                    "bound", meta.get("bound")
                )
                outcome, win_fraction = verdict(
                    parent, change, meta["better"], bound
                )
            worse = worse or outcome == "worse"
            cells = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<8} {name:<28} {cells[0]:>36} {cells[1]:>36} "
                  f"{win_fraction:>6.0%}  {outcome}")
        print(f"{workload:<8} ({len(pairs)} pairs)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
