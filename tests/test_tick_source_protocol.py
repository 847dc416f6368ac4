"""Every shipped tick feed satisfies the TickSource protocol.

The protocol is runtime-checkable, so conformance is an ``isinstance``
assertion plus a short iteration proving the events are well-formed:
per-unit gapless sequence numbers and ``(n_databases, n_kpis)`` samples.
The burst-end hint (``TickEvent.idle_after``) has its own contract: only
the network feed sets it, wrappers pass it through, and it is invisible
to equality and to the wire.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.anomalies.base import InjectionInterval
from repro.anomalies.stall import StallInjector
from repro.chaos.faults import GaugeNoise
from repro.chaos.source import ChaosSource
from repro.cluster.monitor import BypassMonitor
from repro.cluster.unit import Unit
from repro.datasets import build_mixed_dataset
from repro.service import (
    MonitorSource,
    ReplaySource,
    RetryingSource,
    TickEvent,
    TickSource,
)
from repro.workloads.sysbench import sysbench_irregular

TICKS = 12


def _replay_source():
    dataset = build_mixed_dataset(
        "tencent", seed=0, n_units=2, ticks_per_unit=TICKS
    )
    return ReplaySource(dataset)


def _monitor_source():
    return MonitorSource.simulate(
        n_units=2, family="sysbench", n_databases=3, n_ticks=TICKS, seed=1
    )


def _hand_built_monitor():
    """One hand-configured monitor, its demand and a stall injector."""
    unit = Unit("solo-unit", n_databases=3, seed=3)
    monitor = BypassMonitor(unit, seed=3)
    mixes = sysbench_irregular(TICKS, np.random.default_rng(3))
    stall = StallInjector(1, InjectionInterval(4, 9), seed=3)
    return monitor, mixes, stall


def _hand_built_monitor_source():
    monitor, mixes, stall = _hand_built_monitor()
    return MonitorSource([monitor], [mixes], injectors=[[stall]])


def _retrying_source():
    return RetryingSource(_replay_source, max_retries=0, backoff_seconds=0.0)


def _chaos_source():
    return ChaosSource(_replay_source(), faults=())


def _registered_network_source(replay):
    from repro.service.api.source import NetworkSource
    from repro.service.api.wire import parse_handshake

    source = NetworkSource(capacity=1024, handshake_timeout_seconds=5.0)
    source.register(parse_handshake({
        "version": 1,
        "units": dict(replay.units),
        "kpi_names": list(replay.kpi_names),
        "interval_seconds": replay.interval_seconds,
    }))
    return source


def _network_source():
    # Pre-fed and closed, so protocol iteration drains and terminates the
    # same way the other (finite) sources do.
    replay = _replay_source()
    source = _registered_network_source(replay)
    for event in replay:
        source.offer_batch(event.unit, [event])
    source.close_stream()
    return source


SOURCE_FACTORIES = {
    "replay": _replay_source,
    "monitor": _monitor_source,
    "monitor_stream": _hand_built_monitor_source,
    "retrying": _retrying_source,
    "chaos": _chaos_source,
    "network": _network_source,
}


@pytest.fixture(params=sorted(SOURCE_FACTORIES), name="source")
def _source(request):
    return SOURCE_FACTORIES[request.param]()


class TestTickSourceProtocol:
    def test_isinstance_of_protocol(self, source):
        assert isinstance(source, TickSource)

    def test_metadata_shapes(self, source):
        assert source.units
        assert all(count >= 2 for count in source.units.values())
        assert len(source.kpi_names) >= 1
        assert source.interval_seconds > 0

    def test_iteration_yields_wellformed_events(self, source):
        seqs = {name: 0 for name in source.units}
        n_kpis = len(source.kpi_names)
        events = 0
        for event in source:
            assert isinstance(event, TickEvent)
            assert event.seq == seqs[event.unit]
            seqs[event.unit] += 1
            assert event.sample.shape == (source.units[event.unit], n_kpis)
            events += 1
        assert events == sum(seqs.values()) > 0

    def test_non_source_rejected(self):
        assert not isinstance(object(), TickSource)


class TestMonitorSourceInjectors:
    def test_samples_equal_the_monitor_stream(self):
        monitor, mixes, stall = _hand_built_monitor()
        direct = list(monitor.stream(mixes, injectors=[stall]))
        events = list(_hand_built_monitor_source())
        assert [event.seq for event in events] == list(range(TICKS))
        assert len(direct) == TICKS
        for event, sample in zip(events, direct):
            np.testing.assert_array_equal(event.sample, sample)

    def test_injector_changes_the_stream(self):
        monitor, mixes, _ = _hand_built_monitor()
        clean = list(monitor.stream(mixes))
        events = list(_hand_built_monitor_source())
        assert not all(
            np.array_equal(event.sample, sample)
            for event, sample in zip(events, clean)
        )

    def test_one_injector_sequence_per_monitor(self):
        monitor, mixes, stall = _hand_built_monitor()
        with pytest.raises(ValueError, match="one injector sequence"):
            MonitorSource([monitor], [mixes], injectors=[[stall], []])


class _Hinted:
    """A replay whose every third tick carries the burst-end hint."""

    def __init__(self):
        self._inner = _replay_source()
        self.units = self._inner.units
        self.kpi_names = self._inner.kpi_names
        self.interval_seconds = self._inner.interval_seconds

    def __iter__(self):
        for index, event in enumerate(self._inner):
            yield replace(event, idle_after=index % 3 == 2)


def _hints(source):
    return [(event.unit, event.seq, event.idle_after) for event in source]


class TestBurstEndHint:
    def test_network_source_flags_the_tail_of_each_burst(self):
        replay = _replay_source()
        source = _registered_network_source(replay)
        events = list(replay)
        stream = iter(source)
        for event in events[:5]:
            source.offer_batch(event.unit, [event])
        first = [next(stream) for _ in range(5)]
        for event in events[5:7]:
            source.offer_batch(event.unit, [event])
        second = [next(stream) for _ in range(2)]
        source.close_stream()
        assert list(stream) == []
        assert [e.idle_after for e in first] == [False] * 4 + [True]
        assert [e.idle_after for e in second] == [False, True]
        assert first + second == events[:7]

    @pytest.mark.parametrize(
        "factory", [_replay_source, _monitor_source, _hand_built_monitor_source],
        ids=["replay", "monitor", "monitor_stream"],
    )
    def test_closed_loop_sources_never_flag(self, factory):
        hints = _hints(factory())
        assert hints and not any(flag for _, _, flag in hints)

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda inner: RetryingSource(
                lambda: inner, max_retries=0, backoff_seconds=0.0
            ),
            lambda inner: ChaosSource(inner, faults=()),
            lambda inner: ChaosSource(inner, faults=(GaugeNoise(rel_std=0.1),)),
        ],
        ids=["retrying", "chaos", "chaos-noise"],
    )
    def test_wrappers_pass_the_flag_through(self, wrap):
        expected = _hints(_Hinted())
        assert any(flag for _, _, flag in expected)
        assert _hints(wrap(_Hinted())) == expected

    def test_flag_is_not_part_of_equality_or_the_wire(self):
        from repro.service.api.wire import encode_tick_batch

        event = next(iter(_replay_source()))
        flagged = replace(event, idle_after=True)
        assert flagged == event
        for encoding in ("json", "b64"):
            assert encode_tick_batch(
                event.unit, [flagged], encoding=encoding
            ) == encode_tick_batch(event.unit, [event], encoding=encoding)
