"""Time-series normalization primitives.

The paper's Eq. (1) rescales each series into ``[0, 1]`` before correlation
measurement so that only the *trend*, not the magnitude, matters:

    x_i <- (x_i - x_min) / (x_max - x_min)

A constant series has no trend; by convention it normalizes to all zeros so
that downstream correlation code can detect and special-case it.
"""

from __future__ import annotations

import numpy as np


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Min-max normalize a series into ``[0, 1]`` (paper Eq. 1).

    Parameters
    ----------
    values:
        One-dimensional array of KPI samples.

    Returns
    -------
    numpy.ndarray
        A new float64 array in ``[0, 1]``.  A constant input maps to all
        zeros (a flat series carries no trend information).
    """
    series = np.asarray(values, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {series.shape}")
    if series.size == 0:
        return series.copy()
    low = series.min()
    high = series.max()
    span = high - low
    if span == 0.0 or not np.isfinite(span):
        return np.zeros_like(series)
    return (series - low) / span


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Min-max normalize every row of a 2-D array (vectorized Eq. 1).

    Elementwise identical to mapping :func:`minmax_normalize` over the
    rows: constant and non-finite rows normalize to zeros, everything
    else to ``(x - min) / (max - min)``.  The KCD kernels normalize
    their stacked window rows through this one function.
    """
    lows = raw.min(axis=1)
    spans = raw.max(axis=1) - lows
    usable = np.isfinite(spans) & (spans != 0.0)
    out = np.zeros_like(raw)
    if usable.any():
        out[usable] = (raw[usable] - lows[usable, None]) / spans[usable, None]
    return out


def zscore_normalize(values: np.ndarray) -> np.ndarray:
    """Standardize a series to zero mean and unit variance.

    Used by the machine-learning baselines (SR-CNN, OmniAnomaly,
    JumpStarter), which are conventionally trained on standardized inputs.
    A constant input maps to all zeros.
    """
    series = np.asarray(values, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {series.shape}")
    if series.size == 0:
        return series.copy()
    std = series.std()
    if std == 0.0 or not np.isfinite(std):
        return np.zeros_like(series)
    return (series - series.mean()) / std
