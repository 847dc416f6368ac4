"""Observability layer: metrics, tracing spans, exposition, HTTP endpoint.

The paper attributes ~70 % of DBCatcher's detection time to correlation
computation (§IV-D4); keeping that claim honest in a living codebase needs
continuous measurement of the pipeline's own hot paths.  This package is
that measurement layer, dependency-free and off by default:

* :mod:`~repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  (with percentile estimates) behind :class:`MetricsRegistry`, plus the
  no-op :class:`NullRegistry`;
* :mod:`~repro.obs.spans` — nestable, thread-safe tracing spans recording
  wall and per-thread CPU seconds, named ``<layer>.<what>``, with a
  profiling-hook API;
* :mod:`~repro.obs.runtime` — the ambient process-wide runtime every
  instrumented call site asks for instruments (``obs.span(...)``,
  ``obs.counter(...)``); disabled means shared no-op objects;
* :mod:`~repro.obs.export` — Prometheus text and JSON exposition;
* :mod:`~repro.obs.http` — an optional stdlib HTTP snapshot endpoint.

Quick start::

    from repro.obs import runtime as obs
    from repro.obs import to_prometheus

    registry = obs.enable()            # instrumentation now records
    ...                                # run detection
    print(to_prometheus(registry))     # scrape-ready exposition
    obs.disable()

``python -m repro obs`` wraps exactly this flow around a detection run.
"""

from repro.obs.export import metric_name, snapshot, to_json, to_prometheus
from repro.obs.http import ObsServer
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.spans import SpanRecord, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "ObsServer",
    "SpanRecord",
    "Tracer",
    "metric_name",
    "snapshot",
    "to_json",
    "to_prometheus",
]
