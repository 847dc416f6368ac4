"""The ambient observability runtime: one process-wide registry + tracer.

Instrumented code throughout the library asks *this module* for its
instruments::

    from repro.obs import runtime as obs

    obs.counter("kcd.matrix_calls").increment()
    with obs.span("engine.correlate"):
        ...

By default the ambient registry is a shared
:class:`~repro.obs.metrics.NullRegistry` and ``span`` returns a shared
no-op context manager, so an uninstrumented-feeling cost — one module
attribute load and one method call per site — is all a disabled process
pays (the layer-profile bench pins the *enabled* overhead too).

:func:`enable` swaps in a live registry; :func:`scoped` does so
temporarily (what the ``repro obs`` CLI command and the chaos runner
use); :func:`disable` restores the null runtime.  Worker processes
inherit the parent's state at fork time — enabling after the pool is up
only instruments the parent.  A pool worker forked from an enabled
parent hands its span histograms back when it stops.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    RegistryLike,
)
from repro.obs.spans import NULL_SPAN, SpanHook, Tracer

__all__ = [
    "enable",
    "disable",
    "scoped",
    "is_enabled",
    "get_registry",
    "get_tracer",
    "counter",
    "gauge",
    "histogram",
    "span",
    "add_span_hook",
    "remove_span_hook",
]

_NULL_REGISTRY = NullRegistry()
_registry: RegistryLike = _NULL_REGISTRY
_tracer = Tracer(_NULL_REGISTRY)
_lock = threading.Lock()


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Switch the ambient runtime to a live registry and return it.

    Hooks registered on the tracer survive the swap; metrics recorded so
    far do not move (they belong to whichever registry was live).
    """
    global _registry
    with _lock:
        if registry is None:
            registry = (
                _registry if isinstance(_registry, MetricsRegistry)
                else MetricsRegistry()
            )
        _registry = registry
        _tracer.registry = registry
        return registry


def disable() -> None:
    """Restore the no-op runtime (the default state)."""
    global _registry
    with _lock:
        _registry = _NULL_REGISTRY
        _tracer.registry = _NULL_REGISTRY


@contextlib.contextmanager
def scoped(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily enable observability; restores the prior state on exit."""
    global _registry
    previous = _registry
    live = enable(registry if registry is not None else MetricsRegistry())
    try:
        yield live
    finally:
        with _lock:
            _registry = previous
            _tracer.registry = previous


def is_enabled() -> bool:
    return _registry.enabled


def get_registry() -> RegistryLike:
    return _registry


def get_tracer() -> Tracer:
    return _tracer


def counter(name: str):
    """The ambient counter ``name`` (a shared no-op when disabled)."""
    return _registry.counter(name)


def gauge(name: str):
    return _registry.gauge(name)


def histogram(name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
    return _registry.histogram(name, bounds=bounds)


def span(name: str):
    """Open an ambient span; a shared no-op when disabled."""
    if not _registry.enabled:
        return NULL_SPAN
    return _tracer.span(name)


def add_span_hook(hook: SpanHook) -> None:
    """Register a profiling hook fed every finished (enabled) span."""
    _tracer.add_hook(hook)


def remove_span_hook(hook: SpanHook) -> None:
    _tracer.remove_hook(hook)
