"""Edge-case tests for the streaming detector and window mechanics."""

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher
from repro.core.records import DatabaseState


def _config(**overrides):
    defaults = dict(kpi_names=("cpu",), initial_window=10, max_window=30)
    defaults.update(overrides)
    return DBCatcherConfig(**defaults)


def _correlated(n_dbs, n_ticks, seed=0):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 8, n_ticks)) + 2.0
    return np.stack(
        [trend[None, :] + 0.01 * rng.standard_normal((1, n_ticks))
         for _ in range(n_dbs)]
    )


class TestPartialData:
    def test_leftover_tail_is_not_judged(self):
        catcher = DBCatcher(_config(), n_databases=3)
        catcher.process(_correlated(3, 25), time_axis=-1)
        # 25 ticks with W=10: two rounds, 5 leftover ticks unjudged.
        assert len(catcher.results) == 2
        assert catcher.results[-1].end == 20

    def test_resume_after_partial(self):
        series = _correlated(3, 25)
        catcher = DBCatcher(_config(), n_databases=3)
        catcher.process(series, time_axis=-1)
        more = catcher.process(_correlated(3, 5, seed=1), time_axis=-1)
        assert len(more) == 1
        assert more[0].start == 20

    def test_exact_window_boundary(self):
        catcher = DBCatcher(_config(), n_databases=3)
        results = catcher.process(_correlated(3, 30), time_axis=-1)
        assert [r.start for r in results] == [0, 10, 20]


class TestDegenerateData:
    def test_all_zero_series_is_healthy(self):
        catcher = DBCatcher(_config(), n_databases=3)
        results = catcher.process(np.zeros((3, 1, 40)), time_axis=-1)
        for result in results:
            assert result.abnormal_databases == ()

    def test_identical_databases_are_healthy(self):
        trend = np.sin(np.linspace(0, 8, 40)) + 2.0
        series = np.broadcast_to(trend, (3, 1, 40)).copy()
        catcher = DBCatcher(_config(), n_databases=3)
        for result in catcher.process(series, time_axis=-1):
            assert result.abnormal_databases == ()

    def test_single_flat_database_is_abnormal(self):
        series = _correlated(3, 40)
        series[1] = 5.0  # stuck counter
        catcher = DBCatcher(_config(), n_databases=3)
        flagged = {
            db for r in catcher.process(series, time_axis=-1)
            for db in r.abnormal_databases
        }
        assert flagged == {1}

    def test_nan_free_pipeline_with_huge_values(self):
        series = _correlated(3, 40) * 1e12
        catcher = DBCatcher(_config(), n_databases=3)
        results = catcher.process(series, time_axis=-1)
        assert results
        for record in catcher.history:
            assert record.state in (DatabaseState.HEALTHY, DatabaseState.ABNORMAL)


class TestWindowExpansionAccounting:
    def test_expanded_round_consumes_expanded_span(self):
        # Force expansion by keeping one database in the level-2 band.
        rng = np.random.default_rng(3)
        n_ticks = 120
        trend = np.sin(np.linspace(0, 12, n_ticks)) + 2.0
        series = np.stack(
            [trend[None, :] + 0.01 * rng.standard_normal((1, n_ticks))
             for _ in range(3)]
        )
        series[2, 0] = trend * (1 + 0.3 * np.sin(np.linspace(0, 47, n_ticks)))
        config = _config(theta=0.45, max_window=40)
        catcher = DBCatcher(config, n_databases=3)
        results = catcher.process(series, time_axis=-1)
        for prev, cur in zip(results, results[1:]):
            assert cur.start == prev.end
        expanded = [r for r in results if r.window_size > 10]
        assert expanded, "this series must trigger at least one expansion"
        for result in expanded:
            record_sizes = {
                rec.window_size for rec in result.records.values()
            }
            assert max(record_sizes) == result.window_size

    def test_expansions_counted_in_records(self):
        rng = np.random.default_rng(3)
        n_ticks = 120
        trend = np.sin(np.linspace(0, 12, n_ticks)) + 2.0
        series = np.stack(
            [trend[None, :] + 0.01 * rng.standard_normal((1, n_ticks))
             for _ in range(3)]
        )
        series[2, 0] = trend * (1 + 0.3 * np.sin(np.linspace(0, 47, n_ticks)))
        catcher = DBCatcher(_config(theta=0.45, max_window=40), n_databases=3)
        catcher.process(series, time_axis=-1)
        assert any(rec.expansions > 0 for rec in catcher.history)


class TestBoundedServing:
    """Long-running serve loops must not grow detector memory unboundedly."""

    def test_buffer_stays_bounded_over_5k_ticks(self):
        """Regression: per-tick serving over >=5k ticks keeps the ring
        buffer trimmed to at most one round's worth of backlog."""
        config = _config(history_limit=4)
        catcher = DBCatcher(config, n_databases=3)
        rng = np.random.default_rng(0)
        n_ticks = 5000
        trend = np.sin(np.linspace(0, 400, n_ticks)) + 2.0
        peak_buffered = 0
        peak_capacity = 0
        for t in range(n_ticks):
            tick = trend[t] + 0.01 * rng.standard_normal((3, 1))
            catcher.process(tick)
            peak_buffered = max(peak_buffered, len(catcher._streams))
            peak_capacity = max(peak_capacity, catcher._streams.capacity)
        # The worst case holds one expanded-but-unfinished window, so the
        # buffer never outgrows its initial allocation hint.
        assert peak_buffered <= config.max_window + config.initial_window
        assert peak_capacity <= 256
        assert len(catcher.results) <= 4
        assert len(catcher.history) <= 4 * 3

    def test_idle_detector_trims_unusable_ticks(self):
        """With fewer than two active databases nothing can be judged, but
        the buffer must not hoard the unjudgeable backlog either."""
        catcher = DBCatcher(_config(), n_databases=3)
        catcher.set_active([True, False, False])
        for t in range(500):
            catcher.process(np.full((3, 1), float(t)))
        assert len(catcher._streams) <= 1
        assert catcher.results == ()

    def test_reactivation_after_idle_resumes_detection(self):
        catcher = DBCatcher(_config(), n_databases=3)
        catcher.set_active([True, False, False])
        for t in range(50):
            catcher.process(np.full((3, 1), float(t)))
        catcher.set_active([True, True, True])
        results = catcher.process(_correlated(3, 40), time_axis=-1)
        assert results
        # The fresh round starts at the stream position where the fleet
        # became judgeable again, not back at tick zero.
        assert results[0].start >= 50

    def test_history_limit_keeps_latest_rounds(self):
        catcher = DBCatcher(_config(history_limit=2), n_databases=3)
        catcher.process(_correlated(3, 100), time_axis=-1)
        assert len(catcher.results) == 2
        assert catcher.results[-1].end == 100
        assert catcher.export_state()["rounds_completed"] == 10
        assert len(catcher.history) <= 2 * 3

    def test_history_limit_validation(self):
        with pytest.raises(ValueError):
            _config(history_limit=0)

    def test_export_state_snapshot(self):
        catcher = DBCatcher(_config(), n_databases=3)
        catcher.process(_correlated(3, 25), time_axis=-1)
        state = catcher.export_state()
        assert state["rounds_completed"] == 2
        assert state["cursor"] == 20
        assert state["next_tick"] == 25
        assert state["buffered_ticks"] == 5


class TestDetectorPickling:
    def test_detector_round_trips_through_pickle(self):
        """The fleet scheduler ships detectors into worker processes."""
        import pickle

        series = _correlated(3, 35)
        catcher = DBCatcher(_config(), n_databases=3)
        first = catcher.process(series[:, :, :25], time_axis=-1)
        clone = pickle.loads(pickle.dumps(catcher))
        rest = series[:, :, 25:]
        assert clone.process(rest, time_axis=-1) == catcher.process(rest, time_axis=-1)
        assert clone.history == catcher.history
        assert first  # the pre-pickle rounds actually happened
