"""Differential oracle: the batched engine versus ``kcd_matrix``.

The batched engine stacks every (database, KPI) row into one FFT pass;
``kcd_matrix`` is the audited per-KPI path.  These tests drive both over
hypothesis-generated windows — fleet sizes 2..8, every window size and
``max_delay`` regime, flat KPI columns, NaN-degraded inactive databases —
and demand elementwise agreement within 1e-9, including along the
flexible window's call sequence (expand in place, slide, membership
change) that the one-shot comparison never exercises.

Values come from the same coarse-grid-then-scale construction as
``test_kcd_differential``: on a grid, non-constant segments keep their
variance far above the flatness threshold, so the two implementations can
never disagree on a borderline flat classification, and powers-of-ten
scaling exercises magnitude extremes without manufacturing inputs the
min-max-normalizing entry point could never see.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kcd import kcd_matrix
from repro.engine import BatchedEngine, ReferenceEngine, make_engine

TOLERANCE = 1e-9

SCALES = (1.0, -1.0, 1e-6, 1e6, -1e6)


def _reference_matrices(window, max_delay, active):
    """Dense per-KPI oracle matrices straight from ``kcd_matrix``."""
    return [
        kcd_matrix(window[:, k, :], max_delay=max_delay, active=active)
        for k in range(window.shape[1])
    ]


def _assert_engine_matches(engine, window, kpi_names, max_delay, active):
    matrices = engine.matrices(
        window, kpi_names, max_delay=max_delay, active=active
    )
    expected = _reference_matrices(window, max_delay, active)
    assert len(matrices) == len(kpi_names)
    for k, matrix in enumerate(matrices):
        assert matrix.kpi == kpi_names[k]
        np.testing.assert_allclose(
            matrix.to_dense(), expected[k], rtol=0.0, atol=TOLERANCE,
            err_msg=f"kpi {k} max_delay={max_delay}",
        )


@st.composite
def windows(draw):
    """One unit window plus a legal delay bound and an active mask.

    Rows mix free grid series, exactly flat rows, and flat-tail rows (a
    row whose extremes stop moving as the window grows).  An
    optional inactive database is degraded to NaN, as the detector's
    finite-data guard produces.
    """
    n_dbs = draw(st.integers(min_value=2, max_value=8))
    n_kpis = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=48))
    rows = []
    for _ in range(n_dbs * n_kpis):
        kind = draw(st.sampled_from(["free", "free", "constant", "tail"]))
        values = np.array(
            draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)),
            dtype=np.float64,
        )
        if kind == "constant":
            values[:] = values[0]
        elif kind == "tail":
            cut = draw(st.integers(min_value=0, max_value=n - 1))
            values[cut:] = values[cut]
        rows.append(values * draw(st.sampled_from(SCALES)))
    window = np.stack(rows).reshape(n_dbs, n_kpis, n)
    m = draw(st.integers(min_value=0, max_value=n - 1))
    active = np.ones(n_dbs, dtype=bool)
    if n_dbs > 2 and draw(st.booleans()):
        victim = draw(st.integers(min_value=0, max_value=n_dbs - 1))
        active[victim] = False
        if draw(st.booleans()):
            window[victim] = np.nan  # inactive rows may carry garbage
    return window, m, active


@settings(max_examples=200, deadline=None)
@given(windows())
def test_batched_matches_kcd_matrix_elementwise(case):
    window, m, active = case
    kpi_names = [f"k{i}" for i in range(window.shape[1])]
    _assert_engine_matches(BatchedEngine(), window, kpi_names, m, active)


@settings(max_examples=50, deadline=None)
@given(windows())
def test_reference_engine_matches_kcd_matrix(case):
    window, m, active = case
    kpi_names = [f"k{i}" for i in range(window.shape[1])]
    _assert_engine_matches(ReferenceEngine(), window, kpi_names, m, active)


@settings(max_examples=60, deadline=None)
@given(windows(), st.data())
def test_one_engine_is_stateless_across_calls(case, data):
    """A result depends on its call alone, never on what the engine saw.

    One engine is fed the flexible window's traffic: a same-start
    expansion sweep, a slide, an active-membership flip, and a return to
    the first window.  Every call must equal a fresh engine's exactly and
    the reference engine's within 1e-9.
    """
    window, m, active = case
    _, n_kpis, n = window.shape
    kpi_names = [f"k{i}" for i in range(n_kpis)]
    sizes = sorted({data.draw(st.integers(min_value=2, max_value=n), label="size")
                    for _ in range(3)} | {n})
    calls = [(window[:, :, :size], size // 2, active) for size in sizes]
    shifted = np.roll(window, 1, axis=2)
    flipped = active.copy()
    flipped[int(np.argmax(flipped))] = False
    calls += [(shifted, m, active), (shifted, m, flipped), calls[0]]

    engine = BatchedEngine()
    reference = ReferenceEngine()
    for sub, max_delay, mask in calls:
        got = engine.matrices(sub, kpi_names, max_delay, mask)
        fresh = BatchedEngine().matrices(sub, kpi_names, max_delay, mask)
        oracle = reference.matrices(sub, kpi_names, max_delay, mask)
        for left, right, expected in zip(got, fresh, oracle):
            np.testing.assert_array_equal(left.to_dense(), right.to_dense())
            np.testing.assert_allclose(
                left.to_dense(), expected.to_dense(), rtol=0.0, atol=TOLERANCE,
                err_msg=f"kpi {left.kpi} max_delay={max_delay}",
            )


def test_growing_detector_window_sequence_matches_reference():
    """The detector's actual pattern: W, W+step, ... W_M at one start."""
    rng = np.random.default_rng(11)
    base = np.cumsum(rng.normal(size=(4, 3, 90)), axis=2)
    base[1, 2, :] = 3.25  # one flat KPI row
    kpi_names = ["a", "b", "c"]
    engine = make_engine("batched")
    for size in (20, 30, 40, 60, 90):
        sub = base[:, :, :size]
        _assert_engine_matches(
            engine, sub, kpi_names, size // 2, np.ones(4, dtype=bool)
        )


def test_engine_validation_matches_kcd_matrix_errors():
    """Both backends reject bad input the way ``kcd_matrix`` does."""
    window = np.zeros((3, 2, 10))
    names = ["a", "b"]
    for engine in (BatchedEngine(), ReferenceEngine()):
        with pytest.raises(ValueError):
            engine.matrices(np.zeros((3, 10)), names)
        with pytest.raises(ValueError):
            engine.matrices(window, ["a"])
        with pytest.raises(ValueError):
            engine.matrices(np.zeros((1, 2, 10)), names)
        with pytest.raises(ValueError):
            engine.matrices(window, names, max_delay=10)
        with pytest.raises(ValueError):
            engine.matrices(window, names, active=np.ones(2, dtype=bool))
