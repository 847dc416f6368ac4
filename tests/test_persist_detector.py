"""Detector state round-trips: to_state/from_state/apply_result.

The load-bearing property is *determinism transfer*: a detector restored
mid-stream must produce byte-identical verdicts for the remaining ticks,
because crash-warm restart is only sound if the restored process is
indistinguishable from one that never died.
"""

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher
from repro.persist import codec

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)


def _series(n_db=3, n_ticks=200, seed=19):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 9, n_ticks)) + 2.0
    values = np.stack(
        [trend[None, :] * (1 + 0.03 * d) + 0.01 * rng.standard_normal((2, n_ticks))
         for d in range(n_db)]
    )
    values[1, :, 60:90] = rng.standard_normal((2, 30)) * 3.0 + 9.0
    return np.moveaxis(values, -1, 0)  # (ticks, db, kpi)


@pytest.mark.parametrize("split", [37, 95, 120])
def test_restored_detector_matches_uninterrupted(split):
    series = _series()
    reference = DBCatcher(CONFIG, n_databases=3)
    expected = reference.process(series)

    first = DBCatcher(CONFIG, n_databases=3)
    head = first.process(series[:split])
    restored = DBCatcher.from_state(first.to_state())
    tail = restored.process(series[split:])

    assert list(head) + list(tail) == list(expected)
    assert restored.history == reference.history
    assert restored.cursor == reference.cursor


def test_pre_1_9_payload_with_timing_totals_still_restores():
    # Snapshots written before 1.9 carry a "component_seconds" key; a
    # --state-dir from then must keep restoring to identical verdicts.
    series = _series()
    reference = DBCatcher(CONFIG, n_databases=3)
    expected = reference.process(series)

    first = DBCatcher(CONFIG, n_databases=3)
    head = first.process(series[:95])
    state = first.to_state()
    assert "component_seconds" not in state
    state["component_seconds"] = {"correlation": 0.25, "observation": 0.1}
    assert state["version"] == codec.STATE_VERSION == 1
    restored = DBCatcher.from_state(state)
    tail = restored.process(series[95:])

    assert list(head) + list(tail) == list(expected)
    assert restored.history == reference.history
    assert "component_seconds" not in restored.to_state()


def test_state_is_json_serializable():
    import json

    detector = DBCatcher(CONFIG, n_databases=3)
    detector.process(_series()[:90])
    payload = json.dumps(detector.to_state())
    restored = DBCatcher.from_state(json.loads(payload))
    assert restored.results == detector.results
    assert restored.history == detector.history


def test_open_round_is_rederived_not_persisted():
    # Kill mid-round: the open (incomplete) round is deliberately not in
    # the state; re-feeding the same buffered ticks re-derives it exactly.
    series = _series()
    reference = DBCatcher(CONFIG, n_databases=3)
    expected = reference.process(series)

    first = DBCatcher(CONFIG, n_databases=3)
    split = 95  # mid-round for initial_window=10 detectors
    head = first.process(series[:split])
    state = first.to_state()
    # Ticks past the cursor ride along in the streams buffer.
    assert codec.state_next_tick(state) == split
    restored = DBCatcher.from_state(state)
    tail = restored.process(series[split:])
    assert list(head) + list(tail) == list(expected)


def test_apply_result_replays_without_recompute():
    series = _series()
    reference = DBCatcher(CONFIG, n_databases=3)
    results = reference.process(series)

    replayed = DBCatcher(CONFIG, n_databases=3)
    for result in results:
        replayed.apply_result(result)
    assert replayed.cursor == reference.cursor
    assert tuple(replayed.results) == tuple(results)
    assert replayed.history == reference.history
    assert replayed._rounds_completed == reference._rounds_completed


def test_apply_result_rejects_gaps():
    series = _series()
    results = DBCatcher(CONFIG, n_databases=3).process(series)
    detector = DBCatcher(CONFIG, n_databases=3)
    detector.apply_result(results[0])
    with pytest.raises(ValueError, match="gapless"):
        detector.apply_result(results[2])


def test_replay_then_live_matches_uninterrupted():
    series = _series()
    reference = DBCatcher(CONFIG, n_databases=3)
    expected = reference.process(series)

    # WAL-style recovery: apply the first k durable rounds, then resume
    # the live stream from the detector's own next_tick.
    k = len(expected) // 2
    recovered = DBCatcher(CONFIG, n_databases=3)
    for result in expected[:k]:
        recovered.apply_result(result)
    tail = recovered.process(series[recovered.next_tick:])
    assert list(expected[:k]) + list(tail) == list(expected)


def test_history_limit_override_on_restore():
    config = DBCatcherConfig(
        kpi_names=("cpu", "rps"), initial_window=10, max_window=30,
    )
    detector = DBCatcher(config, n_databases=3)
    detector.process(_series())
    assert len(detector.results) > 2
    restored = DBCatcher.from_state(detector.to_state(), history_limit=2)
    assert len(restored.results) == 2
    assert restored.results == detector.results[-2:]
    # And the limit keeps applying to new rounds, not just the restore.
    assert restored.config.history_limit == 2


def test_custom_measure_is_not_serializable():
    detector = DBCatcher(CONFIG, n_databases=3, measure=lambda a, b: 0.0)
    with pytest.raises(ValueError, match="measure"):
        detector.to_state()


def test_version_mismatch_rejected():
    detector = DBCatcher(CONFIG, n_databases=3)
    state = detector.to_state()
    state["version"] = 99
    with pytest.raises(ValueError, match="version"):
        DBCatcher.from_state(state)


class TestStreamsFastForward:
    def test_forward_past_buffer_empties_it(self):
        from repro.core.streams import KPIStreams

        streams = KPIStreams(n_databases=2, kpi_names=("cpu", "rps"))
        streams.extend(np.zeros((5, 2, 2)))
        streams.fast_forward(10)
        assert streams.next_tick == 10
        assert streams.to_state() == {"base": 10, "ticks": []}

    def test_forward_within_buffer_trims(self):
        from repro.core.streams import KPIStreams

        streams = KPIStreams(n_databases=2, kpi_names=("cpu", "rps"))
        block = np.arange(20, dtype=float).reshape(5, 2, 2)
        streams.extend(block)
        streams.fast_forward(3)
        state = streams.to_state()
        assert state["base"] == 3
        assert np.asarray(state["ticks"]).shape == (2, 2, 2)

    def test_backward_is_a_no_op(self):
        from repro.core.streams import KPIStreams

        streams = KPIStreams(n_databases=2, kpi_names=("cpu", "rps"))
        streams.extend(np.zeros((5, 2, 2)))
        streams.fast_forward(0)
        assert streams.next_tick == 5
