"""Differential oracle: the KCD kernel versus ``_profile_reference``.

The kernel (``_pairwise_profiles``, which every KCD entry point and the
batched engine score through) computes every lag's correlation from one
FFT cross-correlation plus prefix sums; the reference loops per lag over
explicitly centered segments.  These tests drive both over
hypothesis-generated series — flat, near-flat, constant tails, spikes,
extreme magnitudes, every legal ``max_delay`` — and demand elementwise
agreement within 1e-9.

Series values are drawn from coarse grids (integer steps, or 1/8 steps on
a unit range) and then scaled.  On a grid, any non-constant segment has
centered variance at least ``step**2 / 2`` while its sum of squares is
bounded by ``n * max_value**2``, which keeps the variance-to-magnitude
ratio far above both the flatness threshold (no borderline flat/non-flat
classification flips between the two implementations) and the regime
where the kernel's prefix-sum cancellation error could exceed the
1e-9 agreement tolerance.  Scaling by powers of ten preserves those
ratios exactly, so magnitude extremes are exercised without manufacturing
ill-conditioned inputs that no normalized caller can produce (the public
entry point min-max normalizes onto ``[0, 1]`` first).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kcd import (
    _BOTH_FLAT_SCORE,
    _ONE_FLAT_SCORE,
    _pairwise_profiles,
    _profile_reference,
    lagged_correlation_profile,
)

TOLERANCE = 1e-9

#: Scale factors covering ~24 decades of magnitude, both signs.
SCALES = (1.0, -1.0, 1e-12, 1e-6, 1e6, 1e12, -1e12, -1e-12)


def _kernel_profile(x, y, m):
    """One pair's profile from the batched kernel (rows ``x`` and ``y``)."""
    return _pairwise_profiles(np.vstack([x, y]), np.array([0]), np.array([1]), m)[0]


@st.composite
def grid_series(draw, n=None):
    """One series of length ``n`` on a coarse grid, then scaled.

    ``kind`` mixes in the shapes the kernel's bookkeeping finds
    hardest: exactly constant series, constant tails/heads (half-flat
    segments at large lags), and single spikes in a flat floor.
    """
    if n is None:
        n = draw(st.integers(min_value=2, max_value=64))
    family = draw(st.sampled_from(["coarse", "fine"]))
    if family == "coarse":
        values = draw(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        )
        series = np.array(values, dtype=np.float64)
    else:
        values = draw(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        )
        series = np.array(values, dtype=np.float64) / 8.0
    kind = draw(st.sampled_from(["free", "constant", "tail", "head", "spike"]))
    if kind == "constant":
        series[:] = series[0]
    elif kind == "tail":
        cut = draw(st.integers(min_value=0, max_value=n - 1))
        series[cut:] = series[cut]
    elif kind == "head":
        cut = draw(st.integers(min_value=0, max_value=n - 1))
        series[: cut + 1] = series[cut]
    elif kind == "spike":
        series[:] = series[0]
        series[draw(st.integers(min_value=0, max_value=n - 1))] += 8.0
    scale = draw(st.sampled_from(SCALES))
    return series * scale


@st.composite
def profile_cases(draw):
    """A pair of equal-length series plus one legal ``max_delay``."""
    n = draw(st.integers(min_value=2, max_value=64))
    x = draw(grid_series(n=n))
    y = draw(grid_series(n=n))
    m = draw(st.integers(min_value=0, max_value=n - 1))
    return x, y, m


@settings(max_examples=300, deadline=None)
@given(profile_cases())
def test_fast_profile_matches_reference_elementwise(case):
    x, y, m = case
    fast = _kernel_profile(x, y, m)
    reference = np.clip(_profile_reference(x, y, m), -1.0, 1.0)
    assert fast.shape == reference.shape == (2 * m + 1,)
    np.testing.assert_allclose(fast, reference, rtol=0.0, atol=TOLERANCE)


@settings(max_examples=200, deadline=None)
@given(profile_cases())
def test_fast_profile_matches_full_entry_point(case):
    """Through the public entry point (normalization off, same oracle)."""
    x, y, m = case
    via_entry = lagged_correlation_profile(x, y, max_delay=m, normalize=False)
    reference = np.clip(_profile_reference(x, y, m), -1.0, 1.0)
    np.testing.assert_allclose(via_entry, reference, rtol=0.0, atol=TOLERANCE)


@settings(max_examples=150, deadline=None)
@given(
    grid_series(),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)
def test_constant_against_anything_scores_identically(y, constant):
    """Flat-case scoring is *identical*, not merely close.

    A constant ``x`` makes every lag's x-segment flat, so each profile
    entry must be exactly ``_BOTH_FLAT_SCORE`` (y-segment also flat) or
    ``_ONE_FLAT_SCORE`` — the same sentinel from both implementations.
    """
    n = y.shape[0]
    x = np.full(n, constant)
    for m in (0, n // 2, n - 1):
        fast = _kernel_profile(x, y, m)
        reference = _profile_reference(x, y, m)
        np.testing.assert_array_equal(fast, reference)
        assert set(np.unique(fast)) <= {_BOTH_FLAT_SCORE, _ONE_FLAT_SCORE}


@settings(max_examples=100, deadline=None)
@given(grid_series())
def test_self_correlation_peaks_at_zero_lag(x):
    """x against itself: both paths agree, and lag 0 scores 1 (or flat)."""
    n = x.shape[0]
    m = n // 2
    fast = _kernel_profile(x, x, m)
    reference = np.clip(_profile_reference(x, x, m), -1.0, 1.0)
    np.testing.assert_allclose(fast, reference, rtol=0.0, atol=TOLERANCE)
    assert fast[m] == pytest.approx(1.0, abs=TOLERANCE)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_every_legal_max_delay_agrees_exhaustively(n):
    """Tiny series: sweep *every* legal ``max_delay`` deterministically."""
    rng = np.random.default_rng(20230815 + n)
    for _ in range(25):
        x = rng.integers(-8, 9, size=n).astype(np.float64)
        y = rng.integers(-8, 9, size=n).astype(np.float64)
        for m in range(n):
            fast = _kernel_profile(x, y, m)
            reference = np.clip(_profile_reference(x, y, m), -1.0, 1.0)
            np.testing.assert_allclose(
                fast, reference, rtol=0.0, atol=TOLERANCE,
                err_msg=f"n={n} m={m} x={x} y={y}",
            )


def test_two_point_series_edge():
    """The minimum legal length, all delays, mixed flat/non-flat."""
    cases = [
        (np.array([0.0, 0.0]), np.array([0.0, 0.0])),
        (np.array([0.0, 1.0]), np.array([5.0, 5.0])),
        (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        (np.array([1e12, -1e12]), np.array([-1e-12, 1e-12])),
    ]
    for x, y in cases:
        for m in (0, 1):
            fast = _kernel_profile(x, y, m)
            reference = np.clip(_profile_reference(x, y, m), -1.0, 1.0)
            np.testing.assert_allclose(fast, reference, rtol=0.0, atol=TOLERANCE)
