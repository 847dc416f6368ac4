"""Recovery-equivalence golden tests.

The contract the whole persistence layer exists to uphold: a fleet run
killed at an arbitrary round and restarted from its state directory must
finish with *exactly* the history an uninterrupted run produces —
verdicts, state paths, alert and incident history — in both the serial
and the process-pool pools.  One caveat is deliberate: compaction strips
correlation matrices from archived *healthy* rounds (only abnormal
rounds carry KCD evidence forward), so matrices are compared only when
both sides still have them.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.datasets.containers import Dataset, UnitSeries
from repro.persist import FleetStateStore
from repro.service import ServiceConfig, TuningCoordinator, detect_fleet
from repro.service.scheduler import DetectionService
from repro.service.sources import ReplaySource
from repro.tuning import GeneticThresholdLearner

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)
ATOL = 1e-9


def _unit(name, seed, n_db=3, n_ticks=200):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 11, n_ticks)) + 2.0
    values = np.stack(
        [trend[None, :] * (1 + 0.02 * d) + 0.01 * rng.standard_normal((2, n_ticks))
         for d in range(n_db)]
    )
    values[1, :, 70:100] = rng.standard_normal((2, 30)) * 3.0 + 9.0
    labels = np.zeros((n_db, n_ticks), dtype=bool)
    labels[1, 70:100] = True
    return UnitSeries(name=name, values=values, labels=labels, kpi_names=("cpu", "rps"))


@pytest.fixture(scope="module")
def fleet():
    return Dataset(
        name="fleet", units=tuple(_unit(f"u{i}", 40 + i) for i in range(3))
    )


def _assert_rounds_equal(expected, actual, unit):
    assert len(actual) == len(expected), (
        f"{unit}: {len(actual)} rounds after recovery vs {len(expected)}"
    )
    for want, got in zip(expected, actual):
        assert (got.start, got.end) == (want.start, want.end), unit
        assert got.records == want.records, (unit, want.start)
        if want.matrices is not None and got.matrices is not None:
            assert len(got.matrices) == len(want.matrices)
            for a, b in zip(want.matrices, got.matrices):
                assert a.kpi == b.kpi
                np.testing.assert_allclose(
                    b.triangle, a.triangle, rtol=0.0, atol=ATOL
                )


def _alert_key(alert):
    return (
        alert.unit, alert.start, alert.end, alert.abnormal_databases,
        alert.expansions, alert.kpi_levels, alert.incident_id,
        None if alert.attribution is None
        else tuple(db for db, _ in alert.attribution.database_scores),
    )


def _assert_equivalent(reference, recovered):
    assert set(recovered.results) == set(reference.results)
    for unit, rounds in reference.results.items():
        _assert_rounds_equal(rounds, recovered.results[unit], unit)
    assert [_alert_key(a) for a in recovered.alerts] == [
        _alert_key(a) for a in reference.alerts
    ]


def _durable(tmp_path):
    return ServiceConfig(state_dir=str(tmp_path / "state"), snapshot_every=3)


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "jobs,transport", [(0, "pickle"), (2, "pickle"), (2, "shm")]
    )
    @pytest.mark.parametrize("kill_tick", [97, 160])
    def test_killed_run_resumes_identically(
        self, fleet, tmp_path, jobs, transport, kill_tick
    ):
        service_config = ServiceConfig(n_workers=jobs, transport=transport)
        reference = detect_fleet(
            fleet, config=CONFIG, service_config=service_config
        )
        durable = replace(
            service_config, state_dir=str(tmp_path / "state"), snapshot_every=3
        )
        interrupted = detect_fleet(
            fleet, config=CONFIG, max_ticks=kill_tick, service_config=durable
        )
        assert interrupted.snapshots_written > 0
        resumed = detect_fleet(fleet, config=CONFIG, service_config=durable)
        assert resumed.recovered_rounds > 0
        _assert_equivalent(reference, resumed)

    def test_rca_incident_history_survives(self, fleet, tmp_path):
        reference = detect_fleet(fleet, config=CONFIG, rca=True)
        assert any(a.attribution is not None for a in reference.alerts)
        durable = _durable(tmp_path)
        detect_fleet(
            fleet, config=CONFIG, rca=True, max_ticks=120, service_config=durable
        )
        resumed = detect_fleet(
            fleet, config=CONFIG, rca=True, service_config=durable
        )
        _assert_equivalent(reference, resumed)
        assert [i.incident_id for i in resumed.incidents] == [
            i.incident_id for i in reference.incidents
        ]

    def test_double_interruption(self, fleet, tmp_path):
        reference = detect_fleet(fleet, config=CONFIG)
        durable = _durable(tmp_path)
        detect_fleet(fleet, config=CONFIG, max_ticks=70, service_config=durable)
        detect_fleet(fleet, config=CONFIG, max_ticks=150, service_config=durable)
        resumed = detect_fleet(fleet, config=CONFIG, service_config=durable)
        _assert_equivalent(reference, resumed)

    def test_cross_pool_recovery(self, fleet, tmp_path):
        # Killed as a serial run, restarted onto the process pool: the
        # state is pool-agnostic, so shards pick it up unchanged.
        reference = detect_fleet(fleet, config=CONFIG)
        durable = _durable(tmp_path)
        detect_fleet(fleet, config=CONFIG, max_ticks=97, service_config=durable)
        resumed = detect_fleet(
            fleet, config=CONFIG, service_config=replace(durable, n_workers=2)
        )
        _assert_equivalent(reference, resumed)


class TestDegradedState:
    def test_wal_only_recovery_without_snapshot(self, fleet, tmp_path):
        # A crash can beat the first snapshot: only WAL segments exist.
        # Recovery then rebuilds the detector by replaying the WAL from
        # round zero.
        reference = detect_fleet(fleet, config=CONFIG)
        state_dir = str(tmp_path / "state")
        store = FleetStateStore(state_dir, snapshot_every=8)
        for unit, rounds in reference.results.items():
            store.unit_store(unit).append_rounds(rounds[:4])
        store.close()
        resumed = detect_fleet(
            fleet, config=CONFIG, service_config=ServiceConfig(state_dir=state_dir)
        )
        assert resumed.recovered_rounds == 4 * len(reference.results)
        _assert_equivalent(reference, resumed)

    def test_torn_wal_tail_recovers_the_rest_live(self, fleet, tmp_path):
        reference = detect_fleet(fleet, config=CONFIG)
        state_dir = str(tmp_path / "state")
        store = FleetStateStore(state_dir, snapshot_every=8)
        for unit, rounds in reference.results.items():
            store.unit_store(unit).append_rounds(rounds[:4])
        store.close()
        # Tear every unit's WAL tail mid-record, as a crash would.
        for unit in reference.results:
            directory = store.unit_store(unit).directory
            for name in os.listdir(directory):
                if name.startswith("wal-"):
                    path = os.path.join(directory, name)
                    data = open(path, "rb").read()
                    open(path, "wb").write(data[:-17])
        resumed = detect_fleet(
            fleet, config=CONFIG, service_config=ServiceConfig(state_dir=state_dir)
        )
        # The torn final round is simply recomputed live.
        assert resumed.recovered_rounds == 3 * len(reference.results)
        _assert_equivalent(reference, resumed)

    def test_empty_state_dir_is_a_cold_start(self, fleet, tmp_path):
        reference = detect_fleet(fleet, config=CONFIG)
        resumed = detect_fleet(
            fleet, config=CONFIG,
            service_config=ServiceConfig(state_dir=str(tmp_path / "state")),
        )
        assert resumed.recovered_rounds == 0
        _assert_equivalent(reference, resumed)


def _drifting_unit(name, seed, n_db=3, n_ticks=200):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 11, n_ticks)) + 2.0
    values = np.stack(
        [trend[None, :] * (1 + 0.02 * d) + 0.01 * rng.standard_normal((2, n_ticks))
         for d in range(n_db)]
    )
    labels = np.zeros((n_db, n_ticks), dtype=bool)
    labels[1, 40:150] = True
    return UnitSeries(name=name, values=values, labels=labels, kpi_names=("cpu", "rps"))


class TestCoordinatorState:
    def _coordinator(self, fleet):
        return TuningCoordinator(
            labels={unit.name: unit.labels for unit in fleet.units},
            learner_factory=lambda seed: GeneticThresholdLearner(
                population_size=4, n_iterations=2, seed=seed
            ),
            min_f_measure=0.75,
            window_records=16,
            min_records=6,
            replay_ticks=120,
            seed=0,
        )

    def test_round_trip_preserves_tuning_state(self, tmp_path):
        drift = Dataset(
            name="drift",
            units=tuple(_drifting_unit(f"u{i}", 60 + i) for i in range(2)),
        )
        coordinator = self._coordinator(drift)
        service = DetectionService(
            CONFIG, service_config=ServiceConfig(), sinks=("null",),
            coordinator=coordinator,
        )
        service.run(ReplaySource(drift))
        assert coordinator.events, "fixture must actually trigger a retrain"

        state = coordinator.to_state()
        fresh = self._coordinator(drift)
        fresh.bind(None, {unit.name: CONFIG for unit in drift.units})
        fresh.load_state(state)
        assert fresh.to_state() == state
        assert len(fresh.events) == len(coordinator.events)
        assert fresh.events[0].unit == coordinator.events[0].unit

    def test_coordinator_state_persists_through_service(self, tmp_path):
        drift = Dataset(
            name="drift",
            units=tuple(_drifting_unit(f"u{i}", 60 + i) for i in range(2)),
        )
        state_dir = str(tmp_path / "state")
        coordinator = self._coordinator(drift)
        service = DetectionService(
            CONFIG,
            service_config=ServiceConfig(state_dir=state_dir, snapshot_every=3),
            sinks=("null",),
            coordinator=coordinator,
        )
        service.run(ReplaySource(drift))
        assert coordinator.events

        # A restarted service hands the saved state to a fresh coordinator.
        restarted = self._coordinator(drift)
        service2 = DetectionService(
            CONFIG,
            service_config=ServiceConfig(state_dir=state_dir, snapshot_every=3),
            sinks=("null",),
            coordinator=restarted,
        )
        report = service2.run(ReplaySource(drift))
        assert report.recovered_rounds > 0
        # The restored coordinator remembered the pre-restart retrains.
        assert len(restarted.events) >= len(coordinator.events)
        assert restarted.events[: len(coordinator.events)] == coordinator.events
