"""The service-layer contracts: tick feeds in, tick transports down.

The scheduler, the chaos harness and the CLI all consume tick feeds
duck-typed until now; :class:`TickSource` writes the contract down once.
A source describes its fleet (``units``, ``kpi_names``,
``interval_seconds``) and iterates :class:`~repro.service.sources.TickEvent`
objects with per-unit monotonically increasing sequence numbers.

:class:`TickTransport` is the downstream twin: how a dispatched batch of
KPI blocks reaches one worker process.  The pool speaks only this
protocol; whether blocks ride pickled inside the worker pipe
(:class:`~repro.service.transport.PickleTickTransport`) or as slot
descriptors into a shared-memory ring
(:class:`~repro.service.transport.ShmTickTransport`) is selected by
``ServiceConfig.transport`` and invisible above the pool.

Both protocols are :func:`~typing.runtime_checkable`, so conformance is
an ``isinstance`` check — which is exactly what the protocol tests do
for every shipped source (:class:`~repro.service.sources.ReplaySource`,
:class:`~repro.service.sources.MonitorSource`,
:class:`~repro.service.sources.RetryingSource`,
:class:`~repro.chaos.source.ChaosSource`,
:class:`~repro.service.api.NetworkSource`) and transport.  Sources may
additionally expose ``take_actions()`` for control-plane events
(scale-out, failover); the scheduler probes for it with ``getattr``, it
is not part of the minimum contract.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.service.sources import TickEvent

__all__ = ["TickSource", "TickTransport"]


@runtime_checkable
class TickSource(Protocol):
    """What the detection service needs from a feed of monitoring ticks."""

    @property
    def units(self) -> Dict[str, int]:
        """Unit name -> database count, for sharding and detector setup."""
        ...

    @property
    def kpi_names(self) -> Tuple[str, ...]:
        """KPI names shared by every unit in the fleet."""
        ...

    @property
    def interval_seconds(self) -> float:
        """Collection cadence the stream was sampled at."""
        ...

    def __iter__(self) -> Iterator[TickEvent]:
        """Yield tick events; ``seq`` is per-unit gapless at the source.

        An open-loop feed sets ``idle_after`` on a tick when nothing
        else is queued behind it, and the scheduler dispatches right
        away instead of waiting for a full batch.  Closed-loop sources
        (replay, monitor) never set it, and wrappers pass it through
        untouched, so the hint is a property of the events, not of the
        source object.
        """
        ...


@runtime_checkable
class TickTransport(Protocol):
    """How one worker's share of a dispatch round reaches its process.

    The pool owns one transport endpoint per worker handle.  Dispatch
    calls :meth:`encode` with the worker's ``(unit, block)`` payload and
    forwards every yielded pipe message, collecting one reply per
    message; everything else — ring cursors, chunking, backpressure —
    stays inside the transport.
    """

    @property
    def name(self) -> str:
        """Transport kind (``"pickle"`` or ``"shm"``)."""
        ...

    def worker_init(self) -> Optional[Any]:
        """Picklable attach info shipped to the worker at spawn time.

        ``None`` means the worker needs no transport-side setup (the
        pickle path); the shm path ships its ring's segment name.
        """
        ...

    def encode(
        self,
        payload: Sequence[Tuple[str, np.ndarray]],
        timeout: float,
        drain: Callable[[], bool],
    ) -> Iterator[Optional[Tuple[str, List[Any]]]]:
        """Yield the pipe messages that carry ``payload`` to the worker.

        A ``None`` yield is a cooperative stall — no buffer space right
        now; the caller may service other workers and resume later.
        ``drain`` lets the transport pull completed replies off the
        worker pipe while it waits for space — the caller banks them —
        and a stall outlasting ``timeout`` seconds raises
        :class:`~repro.service.queues.QueueFull`.
        """
        ...

    def dispose(self) -> None:
        """Release transport resources for a dead or retired worker."""
        ...
