"""Tick sources feeding the ingestion bridge.

Three ways monitoring ticks reach the service:

* :class:`ReplaySource` — replays a saved labelled dataset (a ``.npz``
  archive from ``repro simulate`` or an in-memory
  :class:`~repro.datasets.containers.Dataset`) tick by tick, interleaving
  the fleet's units in collection order.  This is the reproducible path
  the parity tests and benches use.
* :class:`MonitorSource` — drives live simulated units through the
  :meth:`~repro.cluster.monitor.BypassMonitor.stream` online collector,
  so ticks are *generated* as the service consumes them, exactly like the
  paper's bypass monitoring pipeline feeding DBCatcher every 5 s.  The
  monitors come ready-built (custom settings, optional fault
  injectors), or :meth:`MonitorSource.simulate` builds a healthy fleet.
* :class:`RetryingSource` — resilience wrapper: rebuilds a failing source
  with exponential backoff and resumes where delivery stopped, so one
  transport hiccup costs a sequence gap instead of the whole run.

All satisfy :class:`~repro.service.protocols.TickSource`: they yield
:class:`TickEvent`\\ s with per-unit monotonically increasing sequence
numbers, which is what the bridge's loss accounting keys on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime: logs are an optional rider
    from repro.logs.events import LogBook, LogEvent

__all__ = [
    "TickEvent",
    "ReplaySource",
    "MonitorSource",
    "RetryingSource",
]


@dataclass(frozen=True)
class TickEvent:
    """One collected monitoring tick for one unit.

    Parameters
    ----------
    unit:
        Unit name.
    seq:
        Per-unit sequence number (0-based, gapless at the source).
    sample:
        KPI matrix of shape ``(n_databases, n_kpis)``.
    logs:
        Structured log events the unit's databases wrote during this
        tick (empty unless the source carries a logbook).  They ride
        the event for the scheduler-side log channel only — workers
        never see them, so the correlation path is untouched.
    idle_after:
        Burst-end hint: the source had nothing more queued when it
        handed this tick over, so the scheduler dispatches now instead
        of waiting for a full batch.  Only open-loop feeds set it (see
        :class:`~repro.service.api.NetworkSource`); it is excluded from
        equality and never goes on the wire.
    """

    unit: str
    seq: int
    sample: np.ndarray
    logs: Tuple["LogEvent", ...] = ()
    idle_after: bool = field(default=False, compare=False)


class ReplaySource:
    """Replays a saved dataset as an interleaved stream of tick events.

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.containers.Dataset` or a path to a
        ``.npz`` archive written by ``repro simulate``.
    max_ticks:
        Optional cap on ticks replayed per unit (``None`` replays all).
    logbook:
        Optional per-unit logbooks (unit name ->
        :data:`~repro.logs.events.LogBook`): each replayed tick then
        carries the log events its databases wrote during that tick,
        for the service's log channel.  Units absent from the mapping
        replay log-silent.
    """

    def __init__(
        self,
        dataset,
        max_ticks: Optional[int] = None,
        logbook: Optional[Mapping[str, "LogBook"]] = None,
    ):
        from repro.datasets import Dataset, load_dataset

        if isinstance(dataset, (str, Path)):
            dataset = load_dataset(dataset)
        if not isinstance(dataset, Dataset):
            raise TypeError(
                f"expected a Dataset or .npz path, got {type(dataset).__name__}"
            )
        if max_ticks is not None and max_ticks < 1:
            raise ValueError("max_ticks must be >= 1 or None")
        if logbook is not None:
            known = {unit.name for unit in dataset.units}
            unknown = sorted(set(logbook) - known)
            if unknown:
                raise ValueError(
                    f"logbook names units not in the dataset: {unknown}"
                )
        self.dataset = dataset
        self.max_ticks = max_ticks
        self.logbook = dict(logbook) if logbook is not None else {}

    @property
    def units(self) -> Dict[str, int]:
        """Unit name -> database count, for sharding and detector setup."""
        return {unit.name: unit.n_databases for unit in self.dataset.units}

    @property
    def kpi_names(self) -> Tuple[str, ...]:
        return self.dataset.kpi_names

    @property
    def interval_seconds(self) -> float:
        return self.dataset.units[0].interval_seconds

    def __iter__(self) -> Iterator[TickEvent]:
        units = self.dataset.units
        horizon = max(unit.n_ticks for unit in units)
        if self.max_ticks is not None:
            horizon = min(horizon, self.max_ticks)
        for t in range(horizon):
            for unit in units:
                if t < unit.n_ticks:
                    book = self.logbook.get(unit.name)
                    yield TickEvent(
                        unit=unit.name,
                        seq=t,
                        sample=unit.values[:, :, t],
                        logs=book.get(t, ()) if book else (),
                    )


class MonitorSource:
    """Live simulation feed: units stepped online through bypass monitors.

    Parameters
    ----------
    monitors:
        Ready :class:`~repro.cluster.monitor.BypassMonitor`\\ s, one per
        unit, configured however the caller likes (settings, seeds).
    demands:
        Per-unit request-mix sequences (one
        :class:`~repro.cluster.requests.RequestMix` per tick); all units
        run the same horizon, the shortest sequence bounds it.
    injectors:
        Optional per-unit fault-injector sequences, forwarded to each
        monitor's :meth:`~repro.cluster.monitor.BypassMonitor.stream`.
    """

    def __init__(
        self,
        monitors: Sequence,
        demands: Sequence[Sequence],
        injectors: Optional[Sequence[Sequence]] = None,
    ):
        if len(monitors) != len(demands):
            raise ValueError("need one demand sequence per monitor")
        if not monitors:
            raise ValueError("need at least one monitor")
        if injectors is None:
            injectors = [()] * len(monitors)
        if len(injectors) != len(monitors):
            raise ValueError("need one injector sequence per monitor")
        names = [monitor.unit.name for monitor in monitors]
        if len(set(names)) != len(names):
            raise ValueError("unit names must be unique")
        self._monitors = list(monitors)
        self._demands = [list(d) for d in demands]
        self._injectors = [tuple(i) for i in injectors]

    @classmethod
    def simulate(
        cls,
        n_units: int = 4,
        family: str = "tencent",
        n_databases: int = 5,
        n_ticks: int = 600,
        seed: int = 0,
        periodic: bool = False,
        settings=None,
    ) -> "MonitorSource":
        """Build a fleet of healthy simulated units with fresh workloads.

        Unit ``i`` is monitored with seed ``seed + i``.
        """
        from repro.cluster.monitor import BypassMonitor
        from repro.cluster.unit import Unit
        from repro.workloads.sysbench import sysbench_irregular, sysbench_periodic
        from repro.workloads.tencent import TENCENT_SCENARIOS, tencent_workload
        from repro.workloads.tpcc import tpcc_irregular, tpcc_periodic

        if n_units < 1:
            raise ValueError("n_units must be >= 1")
        monitors, demands = [], []
        for index in range(n_units):
            rng = np.random.default_rng(seed + 1000 * index)
            if family == "tencent":
                names = sorted(TENCENT_SCENARIOS)
                scenario = names[int(rng.integers(0, len(names)))]
                mixes = tencent_workload(
                    n_ticks, scenario=scenario, periodic=periodic, rng=rng
                )
            elif family == "sysbench":
                build = sysbench_periodic if periodic else sysbench_irregular
                mixes = build(n_ticks, rng)
            elif family == "tpcc":
                build = tpcc_periodic if periodic else tpcc_irregular
                mixes = build(n_ticks, rng)
            else:
                raise ValueError(
                    f"unknown workload family {family!r}; "
                    "choose tencent, sysbench or tpcc"
                )
            unit = Unit(f"unit-{index:03d}", n_databases=n_databases, seed=seed + index)
            monitors.append(BypassMonitor(unit, settings=settings, seed=seed + index))
            demands.append(mixes)
        return cls(monitors, demands)

    @property
    def units(self) -> Dict[str, int]:
        return {m.unit.name: m.unit.n_databases for m in self._monitors}

    @property
    def kpi_names(self) -> Tuple[str, ...]:
        return tuple(self._monitors[0].unit.kpi_names)

    @property
    def interval_seconds(self) -> float:
        return float(self._monitors[0].settings.interval_seconds)

    def __iter__(self) -> Iterator[TickEvent]:
        streams: List[Iterator[np.ndarray]] = [
            monitor.stream(demand, injectors=injectors)
            for monitor, demand, injectors in zip(
                self._monitors, self._demands, self._injectors
            )
        ]
        horizon = min(len(d) for d in self._demands)
        for t in range(horizon):
            for monitor, stream in zip(self._monitors, streams):
                yield TickEvent(unit=monitor.unit.name, seq=t, sample=next(stream))


class RetryingSource:
    """Retry-with-backoff wrapper around a fallible tick source.

    A real collection pipeline fails in bursts: a connection drops, the
    source raises mid-iteration, and a naive consumer loses the whole run.
    This wrapper rebuilds the source from a factory, waits an
    exponentially growing backoff between attempts, and *resumes*: events
    whose sequence number was already delivered for a unit are skipped, so
    downstream consumers see each ``(unit, seq)`` at most once and a crash
    surfaces as an ordinary sequence gap in the bridge's accounting.

    The retry contract covers the *network path* too: with a factory that
    opens a connection (say, a client iterating a remote ingestion feed),
    the factory call itself is what fails while the far end restarts —
    connection refused, timeouts, 5xx.  Those rebuild failures consume
    the same retry budget with the same backoff as mid-iteration
    failures, instead of propagating instantly and defeating the wrapper
    exactly when it is needed most.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh source (anything with
        ``units`` / ``kpi_names`` / ``interval_seconds`` and iteration
        yielding :class:`TickEvent`).  Called once up front for metadata
        and again after every failure; a *raising* factory is retried
        under the same budget.
    max_retries:
        Failures tolerated over one iteration (and, separately, over
        construction) before the last error propagates.
    backoff_seconds:
        Sleep before retry ``k`` is ``backoff_seconds * 2**(k - 1)``;
        ``0`` disables sleeping (what the tests use).
    """

    def __init__(
        self,
        factory: Callable[[], object],
        max_retries: int = 3,
        backoff_seconds: float = 0.1,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        self._factory = factory
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        #: Retry attempts performed so far (rebuilds and failed factory
        #: calls both count — each consumed budget and backed off).
        self.retries = 0
        _, self._current = self._rebuild(0)

    def _rebuild(self, failures: int) -> Tuple[int, object]:
        """Call the factory until it yields a source or the budget is gone.

        ``failures`` continues the caller's count, so factory failures
        and iteration failures share one budget per iteration.
        """
        while True:
            try:
                return failures, self._factory()
            except Exception:
                failures += 1
                if failures > self.max_retries:
                    raise
                if self.backoff_seconds:
                    time.sleep(self.backoff_seconds * 2 ** (failures - 1))
                self.retries += 1

    @property
    def units(self) -> Dict[str, int]:
        return dict(self._current.units)

    @property
    def kpi_names(self) -> Tuple[str, ...]:
        return tuple(self._current.kpi_names)

    @property
    def interval_seconds(self) -> float:
        return float(self._current.interval_seconds)

    def take_actions(self) -> List[tuple]:
        """Forward control-plane actions from the wrapped source, if any."""
        inner = getattr(self._current, "take_actions", None)
        return inner() if inner is not None else []

    def __iter__(self) -> Iterator[TickEvent]:
        delivered: Dict[str, int] = {}
        failures = 0
        source = self._current
        while True:
            try:
                for event in source:
                    if event.seq < delivered.get(event.unit, 0):
                        continue  # already delivered before a retry
                    delivered[event.unit] = event.seq + 1
                    yield event
                return
            except Exception:
                failures += 1
                if failures > self.max_retries:
                    raise
                if self.backoff_seconds:
                    time.sleep(self.backoff_seconds * 2 ** (failures - 1))
                self.retries += 1
                failures, source = self._rebuild(failures)
                self._current = source
