"""Reference KCD engine: the per-pair, per-lag oracle backend.

Straightforward Python loops over databases, pairs and delays, scoring
each lag with explicitly centered segments
(:func:`repro.core.kcd._profile_reference`).  Orders of magnitude slower
than the batched engine — that gap is exactly what
``benchmarks/test_engine_batched.py`` pins — but trivially auditable
against Eq. (1)-(5), which is why the differential suite uses it (via
:func:`repro.core.kcd.kcd_matrix`, itself verified against the same
per-lag loop) as ground truth.

This engine also carries the pluggable-measure path: a Table X
replacement measure is an arbitrary Python callable, so it cannot be
batched and always runs here regardless of the configured backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.kcd import _profile_reference
from repro.core.matrices import CorrelationMatrix
from repro.core.normalize import minmax_normalize
from repro.engine.base import validate_window

__all__ = ["ReferenceEngine"]


class ReferenceEngine:
    """Per-pair, per-lag KCD backend (oracle; optional custom measure).

    Parameters
    ----------
    measure:
        Optional replacement correlation measure with signature
        ``measure(x, y, max_delay) -> float`` operating on normalized
        series; ``None`` scores pairs with the KCD per-lag loop.
    """

    backend = "reference"

    def __init__(self, measure=None) -> None:
        self.measure = measure

    def matrices(
        self,
        window: np.ndarray,
        kpi_names: Sequence[str],
        max_delay: Optional[int] = None,
        active: Optional[np.ndarray] = None,
    ) -> List[CorrelationMatrix]:
        data, active_mask, m = validate_window(window, kpi_names, max_delay, active)
        n_dbs = data.shape[0]
        pair_i, pair_j = np.triu_indices(n_dbs, k=1)
        out: List[CorrelationMatrix] = []
        for index, kpi in enumerate(kpi_names):
            normalized = np.vstack(
                [minmax_normalize(row) for row in data[:, index, :]]
            )
            dense = np.eye(n_dbs, dtype=np.float64)
            for i, j in zip(pair_i, pair_j):
                if not (active_mask[i] and active_mask[j]):
                    continue
                if self.measure is not None:
                    score = float(self.measure(normalized[i], normalized[j], m))
                else:
                    score = float(
                        _profile_reference(normalized[i], normalized[j], m).max()
                    )
                dense[i, j] = score
                dense[j, i] = score
            out.append(CorrelationMatrix.from_dense(kpi, dense))
        return out
