"""Differential tests: VectorizedObjective vs the per-genome replay objective.

The vectorized objective precomputes threshold-independent score tensors
and resolves every genome's rounds in array passes; these tests pin that
its per-genome confusion counts — and so its fitness — are *identical*
(not approximately equal — the arithmetic is the same kernels) to
``DetectionObjective``'s full detector replay, on clean and NaN-degraded
data, blocked tails, multi-segment labels and mixed unit shapes alike.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.tuning import DetectionObjective, ThresholdGenome, VectorizedObjective

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)


def _unit(seed, n_db=4, n_ticks=160):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 10, n_ticks)) + 2.0
    values = np.stack(
        [
            np.stack([trend, 0.6 * trend]) + 0.01 * rng.standard_normal((2, n_ticks))
            for _ in range(n_db)
        ]
    )
    labels = np.zeros((n_db, n_ticks), dtype=bool)
    values[2, :, 60:100] = rng.random((2, 40)) * 3.0
    labels[2, 60:100] = True
    return values, labels


def _genome_panel(n_kpis, seed=3, n_random=8):
    rng = np.random.default_rng(seed)
    panel = [ThresholdGenome.random(n_kpis, rng) for _ in range(n_random)]
    panel.append(ThresholdGenome.from_config(CONFIG))
    # Edge thresholds: everything abnormal / nothing ever flagged.
    panel.append(ThresholdGenome(alphas=(1.0,) * n_kpis, theta=0.0, tolerance=0))
    panel.append(ThresholdGenome(alphas=(-1.0,) * n_kpis, theta=2.0, tolerance=99))
    # Everything OBSERVABLE: every round expands until W_M forces it.
    panel.append(ThresholdGenome(alphas=(1.0,) * n_kpis, theta=2.0, tolerance=99))
    return panel


def _assert_counts_match(config, values, labels, panel):
    replay = DetectionObjective(config, values, labels)
    vectorized = VectorizedObjective(config, values, labels)
    expected = replay.confusion_counts(panel)
    np.testing.assert_array_equal(vectorized.confusion_counts(panel), expected)
    assert vectorized.evaluate_population(panel) == replay.evaluate_population(panel)
    return expected


class TestDifferential:
    @pytest.fixture(scope="class")
    def data(self):
        return _unit(42)

    def test_matches_replay_objective_exactly(self, data):
        values, labels = data
        replay = DetectionObjective(CONFIG, values, labels)
        vectorized = VectorizedObjective(CONFIG, values, labels)
        for genome in _genome_panel(CONFIG.n_kpis):
            assert vectorized(genome) == replay(genome), genome

    def test_matches_on_nan_degraded_data(self, data):
        values, labels = data
        degraded = values.copy()
        # One database loses a stretch of one KPI: rounds overlapping the
        # gap must drop it from the pending set, exactly like the detector.
        degraded[1, 0, 50:90] = np.nan
        replay = DetectionObjective(CONFIG, degraded, labels)
        vectorized = VectorizedObjective(CONFIG, degraded, labels)
        for genome in _genome_panel(CONFIG.n_kpis, seed=5):
            assert vectorized(genome) == replay(genome), genome

    def test_multi_unit_matches(self, data):
        values, labels = data
        other_values, other_labels = _unit(43)
        replay = DetectionObjective(
            CONFIG, [values, other_values], [labels, other_labels]
        )
        vectorized = VectorizedObjective(
            CONFIG, [values, other_values], [labels, other_labels]
        )
        genome = ThresholdGenome.from_config(CONFIG)
        assert vectorized(genome) == replay(genome)

    def test_counts_match_without_forced_abnormal_resolution(self, data):
        config = dataclasses.replace(CONFIG, resolve_max_window_as_abnormal=False)
        values, labels = data
        panel = _genome_panel(CONFIG.n_kpis, seed=11)
        counts = _assert_counts_match(config, values, labels, panel)
        forced = DetectionObjective(CONFIG, values, labels).confusion_counts(panel)
        # The all-OBSERVABLE genome is where the flag bites.
        assert not np.array_equal(counts, forced)

    def test_counts_match_when_the_tail_round_blocks(self, data):
        values, labels = data
        # 165 ticks: a round can start at 150 (W = 10 fits) but the
        # all-OBSERVABLE genome expands it past the end, where it blocks.
        values, labels = values[:, :, :165], labels[:, :165]
        panel = _genome_panel(CONFIG.n_kpis, seed=13)
        all_observable = panel[-1]
        replay = DetectionObjective(CONFIG, values, labels)
        # Rounds [0, 30) .. [120, 150) record all 4 databases; none survive
        # from the blocked round at 150.
        assert replay.confusion_counts([all_observable]).sum() == 4 * 5
        _assert_counts_match(CONFIG, values, labels, panel)

    def test_counts_match_with_many_label_segments(self):
        values, labels = _unit(44)
        rng = np.random.default_rng(44)
        for start, stop in [(10, 18), (40, 45), (110, 130), (140, 150)]:
            values[1, :, start:stop] = rng.random((2, stop - start)) * 3.0
            labels[1, start:stop] = True
        panel = _genome_panel(CONFIG.n_kpis, seed=17)
        _assert_counts_match(CONFIG, values, labels, panel)

    def test_counts_match_across_units_of_different_widths(self, data):
        values, labels = data
        narrow_values, narrow_labels = _unit(45, n_db=3, n_ticks=140)
        panel = _genome_panel(CONFIG.n_kpis, seed=19)
        _assert_counts_match(
            CONFIG, [values, narrow_values], [labels, narrow_labels], panel
        )

    def test_memoized_and_duplicate_genomes_match(self, data):
        values, labels = data
        panel = _genome_panel(CONFIG.n_kpis, seed=23)
        replay = DetectionObjective(CONFIG, values, labels)
        vectorized = VectorizedObjective(CONFIG, values, labels)
        first = panel[:4]
        assert vectorized.evaluate_population(first) == replay.evaluate_population(first)
        # Memo hits, fresh genomes and in-batch duplicates in one call.
        mixed = [panel[1], panel[5], panel[5], panel[0], panel[7], panel[1]]
        assert vectorized.evaluate_population(mixed) == replay.evaluate_population(mixed)
        assert vectorized.evaluations == replay.evaluations == 6
        np.testing.assert_array_equal(
            vectorized.confusion_counts(mixed), replay.confusion_counts(mixed)
        )

    def test_population_call_matches_single_calls(self, data):
        values, labels = data
        vectorized = VectorizedObjective(CONFIG, values, labels)
        panel = _genome_panel(CONFIG.n_kpis, seed=9)
        batch = vectorized.evaluate_population(panel)
        fresh = VectorizedObjective(CONFIG, values, labels)
        assert batch == [fresh(genome) for genome in panel]


class TestSurface:
    @pytest.fixture(scope="class")
    def data(self):
        return _unit(42)

    def test_memoization_counts_like_replay(self, data):
        values, labels = data
        vectorized = VectorizedObjective(CONFIG, values, labels)
        genome = ThresholdGenome.from_config(CONFIG)
        vectorized(genome)
        assert vectorized.evaluations == 1
        vectorized(genome)
        assert vectorized.evaluations == 1
        # Duplicates inside one population batch are evaluated once too.
        other = ThresholdGenome(alphas=(0.5, 0.5), theta=0.1, tolerance=1)
        vectorized.evaluate_population([other, other, genome])
        assert vectorized.evaluations == 2

    def test_config_properties(self, data):
        values, labels = data
        vectorized = VectorizedObjective(CONFIG, values, labels)
        assert vectorized.config is CONFIG
        assert vectorized.n_kpis == CONFIG.n_kpis

    def test_shape_validation_matches_replay(self, data):
        values, labels = data
        for bad_args in [
            (values[:, :1, :], labels),
            (values, labels[:, :10]),
            (values[:, :, :5], labels[:, :5]),
            ([values], [labels, labels]),
        ]:
            with pytest.raises(ValueError):
                VectorizedObjective(CONFIG, *bad_args)
            with pytest.raises(ValueError):
                DetectionObjective(CONFIG, *bad_args)
        # The vectorized objective additionally rejects peerless units up
        # front (the replay objective would only fail once evaluated).
        with pytest.raises(ValueError):
            VectorizedObjective(CONFIG, values[:1], labels[:1])
