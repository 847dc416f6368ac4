"""Key Correlation Distance (KCD): delay-tolerant trend correlation.

Implements Section III-B of the paper.  Two same-KPI series from databases
of one unit may be offset by a small *point-in-time delay* caused by the
collection pipeline.  The KCD therefore evaluates a normalized
cross-correlation at every candidate delay ``s`` in ``[-m, m]`` (where
``m = n // 2``) and keeps the best score:

* Eq. (1) — min-max normalize both series;
* Eq. (2)/(3) — for each delay ``s``, correlate the overlapping portions
  ``x[s:]`` against ``y[:n-s]`` (and the mirrored case for ``s < 0``);
* Eq. (4) — normalize each lagged product sum by the L2 norms of the
  centered overlapping segments and take the maximum over delays.

The resulting score lies in ``[-1, 1]``; values near ``1`` mean the two
databases share the same trend (possibly shifted), low values mean the
trend of one database has deviated — the anomaly signal DBCatcher uses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.normalize import minmax_normalize
from repro.obs import runtime as obs

__all__ = ["kcd", "kcd_matrix", "lagged_correlation_profile"]

#: Score assigned when both series are flat: two idle databases trivially
#: share the same (empty) trend and must not be flagged as deviating.
_BOTH_FLAT_SCORE = 1.0

#: Score assigned when exactly one series is flat: one database shows a trend
#: the other does not follow, which is maximal decorrelation evidence.
_ONE_FLAT_SCORE = 0.0

#: Shared flatness criterion: a segment is flat when its centered variance
#: is below ``_FLAT_REL_VAR`` of its raw sum of squares (plus an absolute
#: floor for all-zero segments).  Judging flatness *relative* to the
#: segment's magnitude absorbs the ~1e-15 cancellation residue float math
#: leaves on mathematically constant segments.  Every profile
#: implementation uses this one rule so the differential oracle test can
#: demand elementwise agreement.
_FLAT_REL_VAR = 1e-9
_FLAT_ABS_VAR = 1e-30


def _centered_segment_score(x_seg: np.ndarray, y_seg: np.ndarray) -> float:
    """Correlation of two aligned segments, centered on their own means.

    This is the per-delay term of Eq. (3)/(4).  Segments that are flat
    after centering have a zero norm; see the module constants for how the
    degenerate cases are scored.
    """
    x_c = x_seg - x_seg.mean()
    y_c = y_seg - y_seg.mean()
    var_x = float(np.dot(x_c, x_c))
    var_y = float(np.dot(y_c, y_c))
    x_flat = var_x <= _FLAT_REL_VAR * (float(np.dot(x_seg, x_seg)) + _FLAT_ABS_VAR)
    y_flat = var_y <= _FLAT_REL_VAR * (float(np.dot(y_seg, y_seg)) + _FLAT_ABS_VAR)
    if x_flat and y_flat:
        return _BOTH_FLAT_SCORE
    if x_flat or y_flat:
        return _ONE_FLAT_SCORE
    return float(np.dot(x_c, y_c) / np.sqrt(var_x * var_y))


def _profile_reference(x_arr: np.ndarray, y_arr: np.ndarray, m: int) -> np.ndarray:
    """Straightforward per-lag loop; kept as the oracle for the fast path."""
    n = x_arr.shape[0]
    profile = np.empty(2 * m + 1, dtype=np.float64)
    for offset, delay in enumerate(range(-m, m + 1)):
        if delay >= 0:
            x_seg = x_arr[delay:]
            y_seg = y_arr[: n - delay]
        else:
            x_seg = x_arr[: n + delay]
            y_seg = y_arr[-delay:]
        profile[offset] = _centered_segment_score(x_seg, y_seg)
    return profile


def _profile_fast(x_arr: np.ndarray, y_arr: np.ndarray, m: int) -> np.ndarray:
    """All lags at once via one cross-correlation plus prefix sums.

    For every lag the overlapping segments' dot product comes from one
    ``np.correlate`` call, and their means/norms from cumulative sums, so
    the whole profile costs O(n^2) flops in vectorized numpy instead of
    ``2m + 1`` Python-level passes.  This is the library's hot path: the
    paper measures correlation computation at ~70 % of detection time.
    """
    n = x_arr.shape[0]
    lags = np.arange(-m, m + 1)
    lengths = (n - np.abs(lags)).astype(np.float64)

    # Raw segment dot products for every lag:
    # full cross-correlation c[k] = sum_i x[i + k - (n-1)] * y[i].
    correlation = np.correlate(x_arr, y_arr, mode="full")
    dots = correlation[(n - 1) + lags]

    # Segment sums / sums of squares via prefix and suffix cumsums.
    x_prefix = np.concatenate(([0.0], np.cumsum(x_arr)))
    y_prefix = np.concatenate(([0.0], np.cumsum(y_arr)))
    x2_prefix = np.concatenate(([0.0], np.cumsum(x_arr**2)))
    y2_prefix = np.concatenate(([0.0], np.cumsum(y_arr**2)))

    sum_x = np.empty_like(lengths)
    sum_y = np.empty_like(lengths)
    sum_x2 = np.empty_like(lengths)
    sum_y2 = np.empty_like(lengths)
    non_negative = lags >= 0
    s_pos = lags[non_negative]
    # lag s >= 0: x[s:], y[:n-s].
    sum_x[non_negative] = x_prefix[n] - x_prefix[s_pos]
    sum_x2[non_negative] = x2_prefix[n] - x2_prefix[s_pos]
    sum_y[non_negative] = y_prefix[n - s_pos]
    sum_y2[non_negative] = y2_prefix[n - s_pos]
    s_neg = -lags[~non_negative]
    # lag s < 0: x[:n+s], y[-s:].
    sum_x[~non_negative] = x_prefix[n - s_neg]
    sum_x2[~non_negative] = x2_prefix[n - s_neg]
    sum_y[~non_negative] = y_prefix[n] - y_prefix[s_neg]
    sum_y2[~non_negative] = y2_prefix[n] - y2_prefix[s_neg]

    mean_x = sum_x / lengths
    mean_y = sum_y / lengths
    centered_dot = dots - lengths * mean_x * mean_y
    var_x = sum_x2 - lengths * mean_x**2
    var_y = sum_y2 - lengths * mean_y**2
    norm_x = np.sqrt(np.clip(var_x, 0.0, None))
    norm_y = np.sqrt(np.clip(var_y, 0.0, None))

    flat_x = var_x <= _FLAT_REL_VAR * (sum_x2 + _FLAT_ABS_VAR)
    flat_y = var_y <= _FLAT_REL_VAR * (sum_y2 + _FLAT_ABS_VAR)
    denominator = np.where(flat_x | flat_y, 1.0, norm_x * norm_y)
    profile = centered_dot / denominator
    profile[flat_x & flat_y] = _BOTH_FLAT_SCORE
    profile[flat_x ^ flat_y] = _ONE_FLAT_SCORE
    if obs.is_enabled():
        obs.counter("kcd.flat_segments").increment(
            int(np.count_nonzero(flat_x | flat_y))
        )
    return np.clip(profile, -1.0, 1.0)


def lagged_correlation_profile(
    x: np.ndarray,
    y: np.ndarray,
    max_delay: int | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Correlation score at every candidate delay (the ``cs`` queue).

    Parameters
    ----------
    x, y:
        Same-KPI series of equal length ``n`` from two databases.
    max_delay:
        Largest delay magnitude ``m`` to scan.  Defaults to ``n // 2`` as in
        the paper (``n = 2m``).
    normalize:
        Apply Eq. (1) min-max normalization first.  Disable only when the
        caller already normalized.

    Returns
    -------
    numpy.ndarray
        Array of ``2 * m + 1`` scores for delays ``-m .. m``; index ``m``
        is the zero-delay (plain Pearson) score.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.ndim != 1 or y_arr.ndim != 1:
        raise ValueError("kcd operates on 1-D series")
    if x_arr.shape != y_arr.shape:
        raise ValueError(
            f"series lengths differ: {x_arr.shape[0]} vs {y_arr.shape[0]}"
        )
    n = x_arr.shape[0]
    if n < 2:
        raise ValueError("need at least 2 data points to correlate")
    m = n // 2 if max_delay is None else int(max_delay)
    if m < 0 or m >= n:
        raise ValueError(f"max_delay must lie in [0, {n - 1}], got {m}")
    if normalize:
        x_arr = minmax_normalize(x_arr)
        y_arr = minmax_normalize(y_arr)
    obs.counter("kcd.profile_calls").increment()
    with obs.span("engine.profile"):
        return _profile_fast(x_arr, y_arr, m)


def kcd(
    x: np.ndarray,
    y: np.ndarray,
    max_delay: int | None = None,
    normalize: bool = True,
) -> float:
    """Key Correlation Distance between two same-KPI series (Eq. 4).

    The maximum normalized lagged correlation over delays ``[-m, m]``.
    High (near 1) means the two databases follow the same trend up to a
    bounded point-in-time delay; low means the trends deviate.

    Examples
    --------
    >>> import numpy as np
    >>> t = np.linspace(0, 4 * np.pi, 40)
    >>> base = np.sin(t)
    >>> round(kcd(base, np.roll(base, 3)), 2) >= 0.95
    True
    """
    profile = lagged_correlation_profile(x, y, max_delay=max_delay, normalize=normalize)
    return float(profile.max())


def _row_prefix_sums(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row prefix sums and prefix sums of squares, zero-padded.

    The returned arrays have shape ``(n_rows, n + 1)`` so segment sums over
    ``[a, b)`` are ``prefix[:, b] - prefix[:, a]``.  Shared by the in-place
    fast path and the batched engine's incremental window cache.
    """
    n_rows = rows.shape[0]
    prefix = np.concatenate(
        [np.zeros((n_rows, 1)), np.cumsum(rows, axis=1)], axis=1
    )
    prefix_sq = np.concatenate(
        [np.zeros((n_rows, 1)), np.cumsum(rows**2, axis=1)], axis=1
    )
    return prefix, prefix_sq


def _pair_profiles_from_stats(
    dots: np.ndarray,
    prefix: np.ndarray,
    prefix_sq: np.ndarray,
    pairs_i: np.ndarray,
    pairs_j: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """Finish batched lag profiles from raw dots and per-row prefix sums.

    Applies the mean/variance bookkeeping of Eq. (3)/(4) and the shared
    flat-sentinel rules elementwise over a ``(n_pairs, 2 * m + 1)`` grid.
    Both :func:`_pairwise_profiles` and the batched engine
    (:mod:`repro.engine.batched`) call this, so the two stay elementwise
    identical by construction.
    """
    lags = np.arange(-m, m + 1)
    lengths = (n - np.abs(lags)).astype(np.float64)
    positive = lags >= 0
    s_pos = lags[positive]
    s_neg = -lags[~positive]

    n_pairs = pairs_i.shape[0]
    n_lags = lags.shape[0]
    sum_x = np.empty((n_pairs, n_lags))
    sum_y = np.empty((n_pairs, n_lags))
    sum_x2 = np.empty((n_pairs, n_lags))
    sum_y2 = np.empty((n_pairs, n_lags))
    px, px2 = prefix[pairs_i], prefix_sq[pairs_i]
    py, py2 = prefix[pairs_j], prefix_sq[pairs_j]
    # lag s >= 0: x[s:], y[:n-s]; lag s < 0: x[:n+s], y[-s:].
    sum_x[:, positive] = px[:, [n]] - px[:, s_pos]
    sum_x2[:, positive] = px2[:, [n]] - px2[:, s_pos]
    sum_y[:, positive] = py[:, n - s_pos]
    sum_y2[:, positive] = py2[:, n - s_pos]
    sum_x[:, ~positive] = px[:, n - s_neg]
    sum_x2[:, ~positive] = px2[:, n - s_neg]
    sum_y[:, ~positive] = py[:, [n]] - py[:, s_neg]
    sum_y2[:, ~positive] = py2[:, [n]] - py2[:, s_neg]

    mean_x = sum_x / lengths
    mean_y = sum_y / lengths
    centered_dot = dots - lengths * mean_x * mean_y
    var_x = sum_x2 - lengths * mean_x**2
    var_y = sum_y2 - lengths * mean_y**2
    norm = np.sqrt(np.clip(var_x, 0.0, None) * np.clip(var_y, 0.0, None))
    flat_x = var_x <= _FLAT_REL_VAR * (sum_x2 + _FLAT_ABS_VAR)
    flat_y = var_y <= _FLAT_REL_VAR * (sum_y2 + _FLAT_ABS_VAR)
    denominator = np.where(flat_x | flat_y, 1.0, norm)
    profiles = centered_dot / denominator
    profiles[flat_x & flat_y] = _BOTH_FLAT_SCORE
    profiles[flat_x ^ flat_y] = _ONE_FLAT_SCORE
    if obs.is_enabled():
        obs.counter("kcd.flat_segments").increment(
            int(np.count_nonzero(flat_x | flat_y))
        )
    return np.clip(profiles, -1.0, 1.0)


def _lagged_raw_dots(
    rows: np.ndarray, pairs_i: np.ndarray, pairs_j: np.ndarray, m: int
) -> np.ndarray:
    """Raw lagged segment dot products for many row pairs via one FFT.

    Computes ``dots[p, k] = sum_i x[i + lag_k] * y[i]`` over the overlap
    for every pair ``p`` and lag ``-m .. m`` using a single batched
    circular cross-correlation (zero-padded to the next power of two).
    """
    n = rows.shape[1]
    size = 1 << int(np.ceil(np.log2(max(2 * n, 2))))
    spectra = np.fft.rfft(rows, size, axis=1)
    cross = spectra[pairs_i] * np.conj(spectra[pairs_j])
    circular = np.fft.irfft(cross, size, axis=1)  # (P, size)
    lags = np.arange(-m, m + 1)
    dot_index = np.where(lags >= 0, lags, size + lags)
    return circular[:, dot_index]


def _pairwise_profiles(
    rows: np.ndarray, pairs_i: np.ndarray, pairs_j: np.ndarray, m: int
) -> np.ndarray:
    """Lagged correlation profiles for many row pairs at once.

    One batched FFT cross-correlation plus shared prefix sums replaces the
    per-pair scans: for a unit's 10 database pairs over 14 KPIs this is
    the difference between ~3000 small numpy calls per detection round and
    ~10 vectorized ones.

    Parameters
    ----------
    rows:
        ``(n_rows, n)`` of already min-max-normalized series.
    pairs_i, pairs_j:
        Row indices of each pair.
    m:
        Delay scan bound.

    Returns
    -------
    numpy.ndarray
        ``(n_pairs, 2 * m + 1)`` profiles for lags ``-m .. m``.
    """
    n = rows.shape[1]
    dots = _lagged_raw_dots(rows, pairs_i, pairs_j, m)
    prefix, prefix_sq = _row_prefix_sums(rows)
    return _pair_profiles_from_stats(
        dots, prefix, prefix_sq, pairs_i, pairs_j, m, n
    )


def kcd_matrix(
    series: np.ndarray,
    max_delay: int | None = None,
    active: np.ndarray | None = None,
    measure=None,
) -> np.ndarray:
    """Pairwise KCD matrix for one KPI across all databases of a unit.

    Parameters
    ----------
    series:
        Array of shape ``(n_databases, n_points)`` holding the same KPI for
        every database in the unit over one time window.
    max_delay:
        Forwarded to :func:`kcd`.
    active:
        Optional boolean mask of in-use databases.  Rows/columns of unused
        databases are scored ``0`` (the paper sets all correlation scores of
        an unused database to zero), except the diagonal which stays ``1``.
    measure:
        Optional replacement correlation measure with signature
        ``measure(x, y, max_delay) -> float`` operating on normalized
        series; ``None`` uses the KCD.  Used by the Table X comparators
        (Pearson, DTW).

    Returns
    -------
    numpy.ndarray
        Symmetric ``(n_databases, n_databases)`` matrix with unit diagonal:
        the Correlation Matrix ``CM_j`` of Eq. (5) for KPI ``j``.
    """
    data = np.asarray(series, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (n_databases, n_points), got {data.shape}")
    n_dbs = data.shape[0]
    if active is None:
        active_mask = np.ones(n_dbs, dtype=bool)
    else:
        active_mask = np.asarray(active, dtype=bool)
        if active_mask.shape != (n_dbs,):
            raise ValueError("active mask must have one entry per database")
    n_points = data.shape[1]
    if n_points < 2:
        raise ValueError("need at least 2 data points to correlate")
    m = n_points // 2 if max_delay is None else int(max_delay)
    if m < 0 or m >= n_points:
        raise ValueError(f"max_delay must lie in [0, {n_points - 1}], got {m}")
    if obs.is_enabled():
        obs.counter("kcd.matrix_calls").increment()
    # Normalize each row once instead of per pair.
    normalized = np.vstack([minmax_normalize(row) for row in data])
    matrix = np.eye(n_dbs, dtype=np.float64)
    rows_i, rows_j = np.triu_indices(n_dbs, k=1)
    both_active = active_mask[rows_i] & active_mask[rows_j]
    if measure is None:
        live_i = rows_i[both_active]
        live_j = rows_j[both_active]
        if live_i.size:
            if obs.is_enabled():
                obs.counter("kcd.pairs_scored").increment(int(live_i.size))
            with obs.span("engine.pairwise_profiles"):
                profiles = _pairwise_profiles(normalized, live_i, live_j, m)
            scores = profiles.max(axis=1)
            matrix[live_i, live_j] = scores
            matrix[live_j, live_i] = scores
    else:
        for i, j, live in zip(rows_i, rows_j, both_active):
            score = (
                float(measure(normalized[i], normalized[j], m)) if live else 0.0
            )
            matrix[i, j] = score
            matrix[j, i] = score
    return matrix
