"""Run the service benchmark: one or more workloads, each in a fresh interpreter.

Usage::

    python3 bench/run.py                         # all four workloads
    python3 bench/run.py --workload live --seed 3
    python3 bench/run.py --workload dense --trace      # per-layer run

Each workload prints its metrics as ``workload metric value unit`` lines
(a traced run also prints its per-layer share table) and writes a JSON
result with provenance under ``--out``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``, or its
per-layer metrics with ``--trace``.  With several workloads the metric
names are prefixed ``<workload>.``.  The exit code is non-zero if any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from common import BENCH_DIR, CheckoutError, load_spec, use_checkout_src

WORKLOADS = ("dense", "wide", "live", "tune")


def run_workload(workload: str, args) -> Optional[dict]:
    """Run one workload in a child interpreter; its result, or ``None``."""
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=100 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        print(f"run: {workload} timed out", file=sys.stderr)
        out = ""
    finally:
        # The child's own children (pool workers, the load generator)
        # share its session; none may outlive the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for result files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-test scale; results are marked smoke")
    args = parser.parse_args(argv)
    try:
        use_checkout_src()
        spec = load_spec()
    except (CheckoutError, OSError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args)
        if result is None:
            print(f"run: {workload} produced no result", file=sys.stderr)
            return 1
        for line in result.get("table", []):
            print(f"{workload} | {line}")
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, metric in result["metrics"].items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
