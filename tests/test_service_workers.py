"""Worker pool tests: sharding, serial/process parity, crash-restart."""

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher
from repro.obs import runtime as obs
from repro.service.config import ServiceConfig
from repro.service.sharding import HashRing
from repro.service.workers import (
    ProcessWorkerPool,
    SerialWorkerPool,
    UnitSpec,
    WorkerDied,
    make_pool,
)

CONFIG = DBCatcherConfig(kpi_names=("cpu", "rps"), initial_window=10, max_window=30)


def _series(seed, n_db=3, n_ticks=120):
    """A correlated fleet unit with one decorrelated span on database 2."""
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 9, n_ticks)) + 2.0
    values = np.stack(
        [trend[None, :] * (1 + 0.02 * d) + 0.01 * rng.standard_normal((2, n_ticks))
         for d in range(n_db)]
    )
    values[2, :, 60:90] = rng.standard_normal((2, 30)) * 3.0 + 8.0
    return values  # (n_db, 2 kpis, n_ticks)


def _specs(names):
    return [UnitSpec(name, 3, CONFIG) for name in names]


def _batches(units, lo, hi):
    return {
        name: series.transpose(2, 0, 1)[lo:hi] for name, series in units.items()
    }


@pytest.fixture
def units():
    return {f"u{i}": _series(seed=100 + i) for i in range(3)}


class TestSharding:
    def test_shard_map_matches_hash_ring(self, units):
        pool = ProcessWorkerPool(_specs(units), n_workers=2)
        try:
            expected = HashRing(["w0", "w1"]).assign_many(sorted(units))
            assert pool.shard_of("u0") == expected["u0"]
            for worker_id, shard in pool.shard_map().items():
                assert all(expected[unit] == worker_id for unit in shard)
        finally:
            pool.stop()

    def test_more_workers_than_units_caps_pool(self, units):
        pool = ProcessWorkerPool(_specs(units), n_workers=8)
        try:
            assert pool.n_workers == len(units)
            assert sorted(pool.worker_ids()) == ["w0", "w1", "w2"]
        finally:
            pool.stop()

    def test_zero_workers_rejected(self, units):
        with pytest.raises(ValueError):
            ProcessWorkerPool(_specs(units), n_workers=0)


class TestSerialPool:
    def test_matches_direct_detector(self, units):
        pool = SerialWorkerPool(_specs(units))
        results = pool.dispatch(_batches(units, 0, 120))
        for name, series in units.items():
            reference = DBCatcher(CONFIG, n_databases=3).process(series, time_axis=-1)
            assert results[name] == reference
        pool.stop()

    def test_detector_spans_accumulate(self, units):
        with obs.scoped() as registry:
            pool = SerialWorkerPool(_specs(units))
            pool.dispatch(_batches(units, 0, 120))
        snapshot = registry.snapshot()
        assert snapshot["span.engine.correlate.wall_seconds"]["sum"] > 0.0
        assert snapshot["span.levels.decide.wall_seconds"]["sum"] > 0.0


class TestProcessPool:
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_parity_with_serial_across_batch_splits(self, units, transport):
        pool = ProcessWorkerPool(_specs(units), n_workers=2, transport=transport)
        try:
            merged = {name: [] for name in units}
            for lo, hi in ((0, 37), (37, 80), (80, 120)):
                round_results = pool.dispatch(_batches(units, lo, hi))
                for name, results in round_results.items():
                    merged[name].extend(results)
        finally:
            pool.stop()
        for name, series in units.items():
            reference = DBCatcher(CONFIG, n_databases=3).process(series, time_axis=-1)
            assert merged[name] == reference

    def test_crash_restart_and_offsets(self, units):
        pool = ProcessWorkerPool(_specs(units), n_workers=1, max_restarts=2)
        try:
            pool.dispatch(_batches(units, 0, 50))
            pool.crash_worker("u0")
            lost_round = pool.dispatch(_batches(units, 50, 80))
            assert pool.restarts == 1
            assert pool.ticks_lost == 3 * 30  # one 30-tick batch per unit
            assert all(not results for results in lost_round.values())
            recovered = pool.dispatch(_batches(units, 80, 120))
        finally:
            pool.stop()
        # The replacement detectors count from zero internally, but the
        # pool re-anchors results to absolute stream positions.
        starts = [r.start for r in recovered["u0"]]
        assert starts and all(start >= 80 for start in starts)
        records = recovered["u0"][0].records
        assert min(rec.window_start for rec in records.values()) >= 80

    def test_restart_budget_exhaustion(self, units):
        pool = ProcessWorkerPool(_specs(units), n_workers=1, max_restarts=0)
        try:
            pool.crash_worker("u0")
            with pytest.raises(WorkerDied):
                pool.dispatch(_batches(units, 0, 30))
        finally:
            pool.stop()


class TestMakePool:
    def test_default_config_is_serial(self, units):
        pool = make_pool(_specs(units))
        assert isinstance(pool, SerialWorkerPool)
        pool.stop()

    def test_zero_workers_is_serial(self, units):
        pool = make_pool(_specs(units), ServiceConfig(n_workers=0))
        assert isinstance(pool, SerialWorkerPool)
        pool.stop()

    def test_positive_workers_is_process_pool(self, units):
        pool = make_pool(_specs(units), ServiceConfig(n_workers=2))
        try:
            assert isinstance(pool, ProcessWorkerPool)
            assert pool.n_workers == 2
            assert pool.transport_name == "pickle"
        finally:
            pool.stop()

    def test_transport_flows_from_config(self, units):
        cfg = ServiceConfig(n_workers=2, transport="shm", transport_ring_ticks=64)
        pool = make_pool(_specs(units), cfg)
        try:
            assert pool.transport_name == "shm"
        finally:
            pool.stop()
