"""Engine API: pluggable KCD compute backends behind one interface.

A *KCD engine* turns one observation window of a unit — shape
``(n_databases, n_kpis, n_points)`` — into the unit's ``Q`` correlation
matrices (Eq. 5).  Two backends ship (:data:`~repro.core.config.BACKENDS`):

* ``batched`` (:class:`~repro.engine.batched.BatchedEngine`) — all pairs
  and all KPIs in one vectorized FFT pass;
* ``reference`` (:class:`~repro.engine.reference.ReferenceEngine`) — the
  straightforward per-pair, per-lag oracle loop the batched engine is
  differentially tested against.

The detector selects its engine from ``DBCatcherConfig.backend``; callers
with a window in hand can also pass an engine straight to
:func:`repro.core.matrices.build_correlation_matrices`.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.config import BACKENDS
from repro.core.matrices import CorrelationMatrix

__all__ = ["KCDEngine", "make_engine", "validate_window"]


@runtime_checkable
class KCDEngine(Protocol):
    """What every KCD compute backend must provide.

    Engines are stateless: a call's matrices depend only on its
    arguments, so two engines of the same backend fed the same window
    produce identical matrices whatever either saw before.  Engines must
    stay picklable so detectors can cross the service's worker-process
    boundary.
    """

    #: Backend name, one of :data:`repro.core.config.BACKENDS`.
    backend: str

    def matrices(
        self,
        window: np.ndarray,
        kpi_names: Sequence[str],
        max_delay: Optional[int] = None,
        active: Optional[np.ndarray] = None,
    ) -> List[CorrelationMatrix]:
        """All ``Q`` correlation matrices for one observation window."""
        ...


def validate_window(
    window: np.ndarray,
    kpi_names: Sequence[str],
    max_delay: Optional[int],
    active: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Shared engine input validation.

    Returns the float64 window, the boolean active mask, and the resolved
    delay bound ``m`` — with the same error behaviour as
    :func:`repro.core.kcd.kcd_matrix` so backends are interchangeable on
    bad input too.
    """
    data = np.asarray(window, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError(
            f"expected (n_databases, n_kpis, n_points), got shape {data.shape}"
        )
    n_dbs, n_kpis, n_points = data.shape
    if n_kpis != len(kpi_names):
        raise ValueError(
            f"window has {n_kpis} KPI rows but {len(kpi_names)} names"
        )
    if n_dbs < 2:
        raise ValueError("a unit needs at least 2 databases to correlate")
    if n_points < 2:
        raise ValueError("need at least 2 data points to correlate")
    if active is None:
        active_mask = np.ones(n_dbs, dtype=bool)
    else:
        active_mask = np.asarray(active, dtype=bool)
        if active_mask.shape != (n_dbs,):
            raise ValueError("active mask must have one entry per database")
    m = n_points // 2 if max_delay is None else int(max_delay)
    if m < 0 or m >= n_points:
        raise ValueError(f"max_delay must lie in [0, {n_points - 1}], got {m}")
    return data, active_mask, m


def make_engine(backend: str = "batched", measure=None) -> "KCDEngine":
    """Build the engine for a backend name.

    Parameters
    ----------
    backend:
        One of :data:`repro.core.config.BACKENDS`.
    measure:
        Optional replacement correlation measure ``measure(x, y,
        max_delay) -> float`` (the Table X comparators).  An arbitrary
        measure cannot be batched, so any ``measure`` forces the
        reference engine regardless of ``backend``.
    """
    from repro.engine.batched import BatchedEngine
    from repro.engine.reference import ReferenceEngine

    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if measure is not None or backend == "reference":
        return ReferenceEngine(measure=measure)
    return BatchedEngine()
