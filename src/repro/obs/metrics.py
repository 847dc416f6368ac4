"""Metric instruments: counters, gauges, fixed-bucket histograms.

The paper reports operational numbers — per-component computation time,
online throughput (§IV-D4) — that a deployed system would expose through a
metrics endpoint.  This module is the dependency-free core of such an
endpoint: three instrument kinds behind one thread-safe registry whose
:meth:`MetricsRegistry.snapshot` returns a plain dict suitable for
printing, JSON-encoding, or asserting on in tests.

Two registry flavours share one surface:

* :class:`MetricsRegistry` — the live implementation;
* :class:`NullRegistry` — the off-by-default no-op.  Every accessor
  returns a shared null instrument whose methods do nothing, so
  instrumented hot paths cost one attribute call when observability is
  disabled (the component-time bench pins the overhead at <= 5 % even
  with a *live* registry).
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "RegistryLike",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default latency buckets in seconds: microseconds through tens of seconds,
#: roughly log-spaced — tick ingest sits at the bottom, a full worker
#: round-trip over a big batch at the top.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """Last-written value plus the maximum ever observed.

    Queue depths are the main consumer: the instantaneous value tells the
    operator where the system is now, the max tells them how close to the
    bound the backlog ever got.
    """

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if value > self._max:
                self._max = float(value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value, "max": self._max}


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max.

    Bucket ``i`` stores observations in ``(bounds[i-1], bounds[i]]``; one
    implicit overflow bucket catches everything above ``bounds[-1]``.
    The Prometheus exporter re-accumulates these per-interval counts into
    the cumulative ``_bucket{le=...}`` form at render time.
    """

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left on the sorted bounds finds the first bound >= value,
        # i.e. the (bounds[i-1], bounds[i]] interval bucket; values above
        # bounds[-1] land on the overflow index.  C-level search keeps the
        # hot span-exit path cheap.
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def time(self) -> "_Timer":
        """Context manager recording the elapsed wall-clock seconds."""
        return _Timer(self)

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a same-bounds histogram's :meth:`snapshot` (say, from a
        pool worker process) into this one."""
        counts = list(snapshot["buckets"].values())
        if len(counts) != len(self._counts):
            raise ValueError("cannot merge histograms with different bounds")
        low, high = snapshot["min"], snapshot["max"]
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._count += int(snapshot["count"])
            self._sum += float(snapshot["sum"])
            if low is not None and (self._min is None or low < self._min):
                self._min = float(low)
            if high is not None and (self._max is None or high > self._max):
                self._max = float(high)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-th percentile.

        Linear interpolation inside the bucket the rank falls in, with the
        recorded min / max tightening the first and overflow buckets.  The
        estimate is exact at bucket boundaries and conservative (never
        below the bucket's lower bound) elsewhere — the usual trade of
        fixed-bucket latency histograms.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")
        with self._lock:
            if self._count == 0:
                return 0.0
            observed_min = self._min if self._min is not None else 0.0
            observed_max = self._max if self._max is not None else 0.0
            rank = (q / 100.0) * self._count
            cumulative = 0
            estimate = observed_max
            for i, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= rank:
                    if i < len(self.bounds):
                        lower = self.bounds[i - 1] if i > 0 else 0.0
                        upper = self.bounds[i]
                    else:  # overflow bucket: bounded by the observed max
                        lower = self.bounds[-1]
                        upper = observed_max
                    fraction = (rank - previous) / bucket_count
                    estimate = lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
                    break
            # The observed range always brackets the true value.
            return min(max(estimate, observed_min), observed_max)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self.mean,
                "min": self._min,
                "max": self._max,
                "buckets": dict(zip(
                    [f"le_{b:g}" for b in self.bounds] + ["overflow"],
                    list(self._counts),
                )),
            }


class _Timer:
    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """Named metric instruments, created on first use.

    ``registry.counter("ticks_ingested").increment()`` is the whole API:
    asking twice for the same name returns the same instrument, asking for
    a name already registered as a different kind raises.
    """

    #: Distinguishes live registries from :class:`NullRegistry` without
    #: isinstance checks on the hot path.
    enabled = True

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                existing = kind(name, **kwargs)
                self._metrics[name] = existing
            elif not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, bounds=bounds)

    def instruments(self) -> Dict[str, object]:
        """Name -> live instrument, sorted by name (for exposition)."""
        with self._lock:
            return dict(sorted(self._metrics.items()))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def snapshot(self) -> Dict[str, object]:
        """One plain dict of every instrument's current state."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}


class _NullCounter:
    """Counter that forgets; shared by every disabled call site."""

    name = ""
    value = 0

    def increment(self, amount: int = 1) -> None:
        pass

    def snapshot(self) -> int:
        return 0


class _NullGauge:
    name = ""
    value = 0.0
    max = 0.0

    def set(self, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, float]:
        return {"value": 0.0, "max": 0.0}


class _NullTimer:
    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _NullHistogram:
    name = ""
    bounds: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    mean = 0.0

    _timer = _NullTimer()

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return self._timer

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, object]:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": None, "max": None,
                "buckets": {}}


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op.

    Instrumented code never branches on whether observability is on; it
    asks the ambient registry for an instrument and uses it.  When the
    ambient registry is this one, the ask returns a singleton whose
    methods do nothing — no allocation, no locking, no dict growth.
    """

    enabled = False

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str) -> _NullGauge:
        return self._gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> _NullHistogram:
        return self._histogram

    def instruments(self) -> Dict[str, object]:
        return {}

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def snapshot(self) -> Dict[str, object]:
        return {}


RegistryLike = Union[MetricsRegistry, NullRegistry]
