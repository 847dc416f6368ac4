"""Shared helpers: checkout layout, provenance, percentiles, timing sources.

Every entry point of the benchmark runs from a checkout whose ``src/``
holds the system under test.  :func:`use_checkout_src` puts exactly that
tree first on ``sys.path`` and refuses to run without it, so a benchmark
copied away from its source never measures some other installed copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Workers of every pool arm: one per core, at most four.
POOL_WORKERS = max(1, min(os.cpu_count() or 1, 4))


class CheckoutError(RuntimeError):
    """The benchmark is not sitting in a checkout of the system."""


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no system source at {SRC}/repro; run the benchmark from a "
            "checkout of the repository"
        )
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def arrays_sha256(arrays: Iterable) -> str:
    """Digest of generated input arrays: dtype, shape and raw bytes."""
    import numpy as np

    digest = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array)
        digest.update(f"{data.dtype.str}{data.shape}".encode("ascii"))
        digest.update(data.tobytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def provenance(seed: int, input_sha256: str) -> Dict[str, object]:
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "pool_workers": POOL_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "input_sha256": input_sha256,
    }


class TimedSource:
    """Bench-owned wrapper around a tick source that timestamps the stream.

    Records when fleet metadata first became available (``ready_at`` —
    for a network source, the collector handshake), when the scheduler
    first pulled on the stream (``first_pull``), and the pull time of
    every tick, so round latencies are measured from outside the
    service, with no access to its internals.  Times come from ``clock``.
    """

    def __init__(self, inner, clock, tracer=None):
        self._inner = inner
        self._clock = clock
        self._tracer = tracer
        self.ready_at: Optional[float] = None
        self.first_pull: Optional[float] = None
        self.pulled: Dict[str, List[float]] = {}

    @property
    def units(self) -> Dict[str, int]:
        units = self._inner.units
        if self.ready_at is None:
            self.ready_at = self._clock()
            if self._tracer is not None:
                self._tracer.begin_setup()
        return units

    @property
    def kpi_names(self):
        return self._inner.kpi_names

    @property
    def interval_seconds(self) -> float:
        return self._inner.interval_seconds

    def __iter__(self) -> Iterator:
        clock = self._clock
        tracer = self._tracer
        self.first_pull = clock()
        if tracer is not None:
            tracer.end_setup()
        pulled = self.pulled
        stream = iter(self._inner)
        while True:
            if tracer is not None:
                record = tracer.begin("source", "source.next")
                event = next(stream, None)
                tracer.end(record)
            else:
                event = next(stream, None)
            if event is None:
                return
            times = pulled.get(event.unit)
            if times is None:
                times = pulled[event.unit] = []
            times.append(clock())
            yield event
