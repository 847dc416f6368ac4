"""Unit tests for Eq. (1) normalization."""

import numpy as np
import pytest

from repro.core.normalize import _normalize_rows, minmax_normalize, zscore_normalize


class TestMinMax:
    def test_range_is_zero_one(self, rng):
        series = rng.normal(50, 10, 100)
        out = minmax_normalize(series)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_preserves_ordering(self):
        series = np.array([3.0, 1.0, 2.0])
        out = minmax_normalize(series)
        assert np.argsort(out).tolist() == np.argsort(series).tolist()

    def test_constant_maps_to_zeros(self):
        assert np.all(minmax_normalize(np.full(10, 7.5)) == 0.0)

    def test_empty_series(self):
        assert minmax_normalize(np.array([])).size == 0

    def test_does_not_mutate_input(self):
        series = np.array([1.0, 2.0, 3.0])
        copy = series.copy()
        minmax_normalize(series)
        assert np.array_equal(series, copy)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            minmax_normalize(np.zeros((3, 3)))

    def test_exact_values(self):
        out = minmax_normalize(np.array([0.0, 5.0, 10.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_negative_values(self):
        out = minmax_normalize(np.array([-10.0, 0.0, 10.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestNormalizeRows:
    def test_rows_match_minmax_elementwise(self, rng):
        """The vectorized Eq. 1 is bitwise the per-row one, edge rows too."""
        rows = rng.normal(50, 10, size=(7, 40))
        rows[1] = 7.5                      # constant
        rows[2, 3] = np.nan                # non-finite extreme
        rows[3, 0] = np.inf
        rows[4] *= 1e12                    # extreme magnitude
        rows[5] = np.arange(40.0) * -1e-12
        expected = np.vstack([minmax_normalize(row) for row in rows])
        np.testing.assert_array_equal(_normalize_rows(rows), expected)


class TestZScore:
    def test_zero_mean_unit_std(self, rng):
        out = zscore_normalize(rng.normal(5, 2, 500))
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-9)

    def test_constant_maps_to_zeros(self):
        assert np.all(zscore_normalize(np.full(5, 3.0)) == 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            zscore_normalize(np.zeros((2, 2)))
