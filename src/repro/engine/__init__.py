"""Pluggable KCD compute engines (the correlation-measurement module).

One observation window in, the unit's ``Q`` correlation matrices out —
behind a single :class:`~repro.engine.base.KCDEngine` interface with two
backends:

* :class:`~repro.engine.batched.BatchedEngine` (``backend="batched"``,
  the default) — all database pairs and all KPIs in one vectorized FFT
  pass through the shared KCD kernel;
* :class:`~repro.engine.reference.ReferenceEngine`
  (``backend="reference"``) — the per-pair, per-lag oracle loop, also
  home to the pluggable Table X measures.

Select a backend through ``DBCatcherConfig(backend=...)`` (the detector,
service workers, chaos runner and CLI all honour it), or build one
directly with :func:`make_engine` and hand it to
:func:`repro.core.matrices.build_correlation_matrices`.
"""

from repro.engine.base import KCDEngine, make_engine, validate_window
from repro.engine.batched import BatchedEngine
from repro.engine.reference import ReferenceEngine

__all__ = [
    "BatchedEngine",
    "KCDEngine",
    "ReferenceEngine",
    "make_engine",
    "validate_window",
]
