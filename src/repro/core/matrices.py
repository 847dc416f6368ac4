"""Correlation matrices (Eq. 5) with upper-triangular storage.

One :class:`CorrelationMatrix` per KPI preserves the pairwise KCD scores of
all databases in a unit over one time window.  Because the matrix is
symmetric with a unit diagonal, only the strict upper triangle is stored —
``N * (N - 1) / 2`` floats per KPI — matching the paper's remark that the
lower triangle need not be saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.kcd import kcd_matrix

__all__ = ["CorrelationMatrix", "build_correlation_matrices"]


def _triangle_size(n_databases: int) -> int:
    return n_databases * (n_databases - 1) // 2


def _pair_index(i: int, j: int, n: int) -> int:
    """Flat index of pair ``(i, j)`` with ``i < j`` in the upper triangle."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric pairwise-KCD matrix for one KPI, stored as its triangle.

    Parameters
    ----------
    kpi:
        Name of the KPI this matrix covers (``j`` in ``CM_j``).
    n_databases:
        Matrix dimension ``N``.
    triangle:
        Row-major strict upper triangle, length ``N * (N - 1) / 2``.
    """

    kpi: str
    n_databases: int
    triangle: np.ndarray

    def __post_init__(self) -> None:
        if self.n_databases < 2:
            raise ValueError("a unit needs at least 2 databases to correlate")
        tri = np.asarray(self.triangle, dtype=np.float64)
        expected = _triangle_size(self.n_databases)
        if tri.shape != (expected,):
            raise ValueError(
                f"triangle for N={self.n_databases} must have {expected} "
                f"entries, got shape {tri.shape}"
            )
        object.__setattr__(self, "triangle", tri)

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would compare the triangle
        # arrays elementwise and raise on truth-testing the result;
        # results carry these matrices, so equality must stay usable.
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return (
            self.kpi == other.kpi
            and self.n_databases == other.n_databases
            and np.array_equal(self.triangle, other.triangle, equal_nan=True)
        )

    @classmethod
    def from_dense(cls, kpi: str, matrix: np.ndarray) -> "CorrelationMatrix":
        """Build from a dense symmetric matrix (e.g. :func:`kcd_matrix`)."""
        dense = np.asarray(matrix, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got {dense.shape}")
        n = dense.shape[0]
        triangle = dense[np.triu_indices(n, k=1)]
        return cls(kpi=kpi, n_databases=n, triangle=triangle)

    @classmethod
    def from_window(
        cls,
        kpi: str,
        series: np.ndarray,
        max_delay: int | None = None,
        active: np.ndarray | None = None,
        measure=None,
    ) -> "CorrelationMatrix":
        """Compute the matrix from a ``(n_databases, n_points)`` window."""
        return cls.from_dense(
            kpi,
            kcd_matrix(series, max_delay=max_delay, active=active, measure=measure),
        )

    def score(self, i: int, j: int) -> float:
        """KCD between databases ``i`` and ``j`` (1.0 on the diagonal)."""
        n = self.n_databases
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"database index out of range for N={n}")
        if i == j:
            return 1.0
        if i > j:
            i, j = j, i
        return float(self.triangle[_pair_index(i, j, n)])

    def scores_for(self, database: int, active: np.ndarray | None = None) -> np.ndarray:
        """All KCDs of one database against its peers (the ``Search`` step).

        Parameters
        ----------
        database:
            Index of the database of interest.
        active:
            Optional in-use mask; inactive peers are excluded from the
            returned scores (an unused database must not drag its peers'
            correlation levels down).

        Returns
        -------
        numpy.ndarray
            KCD scores against each active peer, in peer-index order.
        """
        n = self.n_databases
        if not 0 <= database < n:
            raise IndexError(f"database index out of range for N={n}")
        peers = [p for p in range(n) if p != database]
        if active is not None:
            mask = np.asarray(active, dtype=bool)
            if mask.shape != (n,):
                raise ValueError("active mask must have one entry per database")
            peers = [p for p in peers if mask[p]]
        return np.array([self.score(database, p) for p in peers], dtype=np.float64)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full symmetric matrix with unit diagonal."""
        n = self.n_databases
        dense = np.eye(n, dtype=np.float64)
        rows, cols = np.triu_indices(n, k=1)
        dense[rows, cols] = self.triangle
        dense[cols, rows] = self.triangle
        return dense


def build_correlation_matrices(
    window: np.ndarray,
    kpi_names: Sequence[str],
    max_delay: int | None = None,
    active: np.ndarray | None = None,
    measure=None,
    engine=None,
) -> List[CorrelationMatrix]:
    """Compute all ``Q`` correlation matrices for one observation window.

    Parameters
    ----------
    window:
        Array of shape ``(n_databases, n_kpis, n_points)``.
    kpi_names:
        KPI names, one per KPI axis entry.
    max_delay:
        Delay scan bound forwarded to the KCD.
    active:
        Optional in-use database mask.
    measure:
        Optional replacement correlation measure (see
        :func:`repro.core.kcd.kcd_matrix`); it runs on the reference
        engine.  Mutually exclusive with ``engine``.
    engine:
        Optional :class:`repro.engine.KCDEngine` to delegate to.  ``None``
        builds :func:`repro.engine.make_engine` for ``measure`` (the
        batched engine when there is none), so both paths score through
        the same engine code.

    Returns
    -------
    list of CorrelationMatrix
        One matrix per KPI, in ``kpi_names`` order.
    """
    if engine is None:
        # Local import: repro.engine builds on this module.
        from repro.engine.base import make_engine

        engine = make_engine(measure=measure)
    elif measure is not None:
        raise ValueError("pass either engine or measure, not both")
    return engine.matrices(window, kpi_names, max_delay=max_delay, active=active)
