"""Exposition: render a registry as Prometheus text or a JSON snapshot.

Two formats cover the two consumers a deployed DBCatcher has:

* :func:`to_prometheus` — the Prometheus text format (v0.0.4), ready for
  a scrape target or ``curl | promtool check metrics``.  Counters map to
  ``counter`` families, gauges to a pair of ``gauge`` families (value and
  high-water mark), histograms to the standard cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.
* :func:`to_json` / :func:`snapshot` — the registry's plain-dict snapshot
  (JSON-encoded or raw), for dashboards, tests and artifact files.

Metric names such as ``span.engine.correlate.wall_seconds`` are
sanitized to Prometheus' ``[a-zA-Z_:][a-zA-Z0-9_:]*`` grammar (dots and
other separators become underscores) and prefixed with ``repro_``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from repro.obs.metrics import Counter, Gauge, Histogram, RegistryLike

__all__ = ["metric_name", "to_prometheus", "to_json", "snapshot"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitize one registry name into a legal Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _render_histogram(name: str, histogram: Histogram) -> List[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    snap = histogram.snapshot()
    counts = list(snap["buckets"].values())
    for bound, count in zip(histogram.bounds, counts):
        cumulative += count
        lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
    total = snap["count"]
    lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
    lines.append(f"{name}_sum {_format_value(snap['sum'])}")
    lines.append(f"{name}_count {total}")
    return lines


def to_prometheus(registry: RegistryLike, prefix: str = "repro") -> str:
    """Render every instrument in the Prometheus text exposition format."""
    lines: List[str] = []
    for raw_name, instrument in registry.instruments().items():
        name = metric_name(raw_name, prefix=prefix)
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {instrument.value}")
        elif isinstance(instrument, Gauge):
            snap = instrument.snapshot()
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(snap['value'])}")
            lines.append(f"# TYPE {name}_max gauge")
            lines.append(f"{name}_max {_format_value(snap['max'])}")
        elif isinstance(instrument, Histogram):
            lines.extend(_render_histogram(name, instrument))
        else:  # pragma: no cover - registries only hold the three kinds
            continue
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: RegistryLike) -> Dict[str, object]:
    """The registry's plain-dict snapshot (alias for ``registry.snapshot``)."""
    return registry.snapshot()


def to_json(registry: RegistryLike, indent: int = 2) -> str:
    """JSON-encode the registry snapshot (stable key order)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)
