"""Batched KCD engine: every pair and every KPI in one vectorized pass.

The correlation-measurement module dominates DBCatcher's per-round cost
(the paper measures it at ~70 % of detection time).  This engine stacks
*all* ``n_databases * n_kpis`` normalized window rows into a single
matrix and computes every lagged cross-correlation profile of the round
— all pairs x all KPIs — with one call of the shared KCD kernel
(:func:`repro.core.kcd._pairwise_profiles`: one batched FFT plus prefix
sums, with the flat-sentinel rules applied elementwise).  For a
5-database, 14-KPI unit that folds 14 per-KPI passes into one.

The engine is stateless: every call normalizes and scores its window
from scratch, so a result depends only on the call's arguments.

Numerical contract: :func:`repro.core.kcd.kcd_matrix` runs the same
kernel per KPI, so batched output matches it elementwise (the
differential suite demands 1e-9; in practice the two are bit-identical).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.kcd import _pairwise_profiles
from repro.core.matrices import CorrelationMatrix
from repro.core.normalize import _normalize_rows
from repro.engine.base import validate_window
from repro.obs import runtime as obs

__all__ = ["BatchedEngine"]


class BatchedEngine:
    """Vectorized all-pairs, all-KPIs KCD backend."""

    backend = "batched"

    def matrices(
        self,
        window: np.ndarray,
        kpi_names: Sequence[str],
        max_delay: Optional[int] = None,
        active: Optional[np.ndarray] = None,
    ) -> List[CorrelationMatrix]:
        data, active_mask, m = validate_window(window, kpi_names, max_delay, active)
        n_dbs, n_kpis, n_points = data.shape
        if obs.is_enabled():
            obs.counter("engine.batched_rounds").increment()

        pair_i, pair_j = np.triu_indices(n_dbs, k=1)
        live = active_mask[pair_i] & active_mask[pair_j]
        live_i = pair_i[live]
        live_j = pair_j[live]
        n_pairs = live_i.shape[0]
        matrices: List[np.ndarray] = [
            np.eye(n_dbs, dtype=np.float64) for _ in kpi_names
        ]
        if n_pairs:
            rows = _normalize_rows(data.reshape(n_dbs * n_kpis, n_points))
            # Row of (database d, KPI k) in the stacked layout.
            kpi_offsets = np.arange(n_kpis)
            rows_i = (
                kpi_offsets[:, None] + live_i[None, :] * n_kpis
            ).ravel()
            rows_j = (
                kpi_offsets[:, None] + live_j[None, :] * n_kpis
            ).ravel()
            with obs.span("engine.batched_profiles"):
                profiles = _pairwise_profiles(rows, rows_i, rows_j, m)
            scores = profiles.max(axis=1).reshape(n_kpis, n_pairs)
            if obs.is_enabled():
                obs.counter("engine.pairs_scored").increment(
                    int(n_pairs * n_kpis)
                )
            for index in range(n_kpis):
                dense = matrices[index]
                dense[live_i, live_j] = scores[index]
                dense[live_j, live_i] = scores[index]
        return [
            CorrelationMatrix.from_dense(kpi, matrices[index])
            for index, kpi in enumerate(kpi_names)
        ]
