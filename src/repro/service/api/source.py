"""NetworkSource: the bounded bridge from HTTP ingestion to the scheduler.

The ingestion server parses validated :class:`TickEvent`\\ s out of HTTP
requests and *offers* them here; :meth:`NetworkSource.__iter__` replays
them to :class:`~repro.service.scheduler.DetectionService` in arrival
order, satisfying the :class:`~repro.service.protocols.TickSource`
protocol.  A single bounded arrival-order queue preserves whatever unit
interleaving the collector chose — which is what lets a network replay of
a dataset reproduce the in-process run bit-for-bit.  A tick handed over
with the queue empty behind it carries the ``idle_after`` burst-end
hint, so the scheduler dispatches a trickling feed tick by tick instead
of waiting for a full batch.

Flow control is explicitly lossless: offers never block an HTTP thread
and never drop.  When the queue is full the offer fails mid-batch with
:class:`Backpressure` (the server turns it into ``429 Retry-After``);
unadmitted ticks do not advance the per-unit sequence cursor, so the
client simply re-posts the batch and already-admitted ticks are counted
*stale* rather than fed to a detector twice.  The same stale accounting
makes replay-from-zero after a reconnect idempotent — that is what the
kill drill leans on.

The fleet metadata properties (``units`` / ``kpi_names`` /
``interval_seconds``) block until a collector registers a stream, which
naturally gates ``DetectionService.run`` (it reads ``source.units``
before consuming any tick).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import runtime as obs
from repro.service.api.wire import FleetSpec, WireError
from repro.service.queues import QueueClosed, QueueFull, TickQueue
from repro.service.sources import TickEvent

__all__ = ["Backpressure", "NetworkSource"]


class Backpressure(RuntimeError):
    """An offer ran out of queue room part-way through a batch.

    Parameters
    ----------
    accepted, stale:
        Ticks admitted / rejected-as-stale before the queue filled.
    retry_after_seconds:
        Hint for the client's ``Retry-After`` wait.
    """

    def __init__(self, accepted: int, stale: int, retry_after_seconds: float):
        super().__init__(
            f"ingest queue full after accepting {accepted} ticks; "
            f"retry in {retry_after_seconds:.3g}s"
        )
        self.accepted = accepted
        self.stale = stale
        self.retry_after_seconds = retry_after_seconds


class NetworkSource:
    """A :class:`~repro.service.protocols.TickSource` fed over the network.

    Parameters
    ----------
    capacity:
        Bound of the arrival-order tick queue.
    handshake_timeout_seconds:
        How long the metadata properties wait for a collector to register
        before raising :class:`TimeoutError`.
    retry_after_seconds:
        Backpressure hint returned to clients with every 429.
    poll_seconds:
        Iterator wake-up cadence while the queue is empty (also bounds
        how quickly a close is noticed).
    """

    def __init__(
        self,
        capacity: int = 1024,
        handshake_timeout_seconds: float = 600.0,
        retry_after_seconds: float = 0.05,
        poll_seconds: float = 0.05,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if handshake_timeout_seconds <= 0:
            raise ValueError("handshake_timeout_seconds must be positive")
        if retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        self.capacity = capacity
        self.handshake_timeout_seconds = handshake_timeout_seconds
        self.retry_after_seconds = retry_after_seconds
        self.poll_seconds = poll_seconds
        self._queue: TickQueue[TickEvent] = TickQueue(capacity)
        #: Guards fleet registration and the per-unit sequence cursors, so
        #: the admit-or-stale decision is atomic under concurrent posters
        #: (same contract as ``IngestionBridge._seq_lock``).
        self._lock = threading.Lock()
        self._registered = threading.Event()
        self._fleet: Optional[FleetSpec] = None
        self._next_seq: Dict[str, int] = {}
        self._closed = False
        #: Ticks admitted to the queue so far.
        self.accepted_total = 0
        #: Duplicate / already-passed ticks rejected so far.
        self.stale_total = 0
        #: Offers refused (whole or partial) because the queue was full.
        self.backpressure_total = 0

    # -- collector-facing surface (called by the HTTP server) -------------

    def register(self, fleet: FleetSpec) -> bool:
        """Pin the fleet declared by a collector handshake.

        Returns ``True`` on first registration, ``False`` for an
        identical (idempotent) re-registration — collectors re-handshake
        after every reconnect.  A *conflicting* fleet raises
        ``WireError(fleet_conflict)``: silently swapping topology under a
        running detector is never right.
        """
        with self._lock:
            if self._closed:
                raise WireError(
                    "stream_closed", "the stream is closed", status=409
                )
            if self._fleet is not None:
                if fleet == self._fleet:
                    return False
                raise WireError(
                    "fleet_conflict",
                    "a different fleet is already registered on this stream",
                    status=409,
                )
            self._fleet = fleet
            self._next_seq = {name: 0 for name in fleet.units}
            self._registered.set()
        obs.counter("api.streams_registered").increment()
        return True

    def offer_batch(
        self, unit: str, events: Sequence[TickEvent]
    ) -> Dict[str, int]:
        """Admit one validated batch; returns accepted / stale counts.

        Raises :class:`Backpressure` when the queue fills mid-batch (the
        sequence cursor stops at the first unadmitted tick, so a verbatim
        re-post resumes exactly where this offer stopped) and
        ``WireError`` for protocol-state errors (no stream, closed
        stream, unknown unit).
        """
        with self._lock:
            if self._fleet is None:
                raise WireError(
                    "no_stream",
                    "no stream registered; PUT /v1/stream first",
                    status=409,
                )
            if self._closed:
                raise WireError(
                    "stream_closed", "the stream is closed", status=409
                )
            if unit not in self._next_seq:
                raise WireError(
                    "unknown_unit",
                    f"unit {unit!r} is not in the registered fleet",
                    field="unit",
                    status=404,
                )
            accepted = 0
            stale = 0
            for event in events:
                if event.seq < self._next_seq[unit]:
                    stale += 1
                    continue
                try:
                    admitted = self._queue.try_put(event)
                except QueueClosed:
                    self._record(accepted, stale)
                    raise WireError(
                        "stream_closed", "the stream is closed", status=409
                    ) from None
                if not admitted:
                    self._record(accepted, stale)
                    self.backpressure_total += 1
                    obs.counter("api.backpressure_rejections").increment()
                    raise Backpressure(
                        accepted, stale, self.retry_after_seconds
                    )
                self._next_seq[unit] = event.seq + 1
                accepted += 1
            self._record(accepted, stale)
            return {"accepted": accepted, "stale": stale}

    def _record(self, accepted: int, stale: int) -> None:
        # Called with self._lock held.
        self.accepted_total += accepted
        self.stale_total += stale
        if accepted:
            obs.counter("api.ticks_accepted").increment(accepted)
        if stale:
            obs.counter("api.ticks_stale").increment(stale)
        obs.gauge("api.queue_depth").set(len(self._queue))

    @property
    def fleet(self) -> Optional[FleetSpec]:
        """The registered fleet, or ``None`` before the handshake.

        Non-blocking, unlike the :class:`TickSource` metadata properties —
        this is what the HTTP handlers consult per request.
        """
        with self._lock:
            return self._fleet

    def close_stream(self) -> None:
        """End of stream: the iterator finishes once the queue drains."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.close()
        obs.counter("api.streams_closed").increment()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- scheduler-facing surface (the TickSource protocol) ----------------

    def _spec(self) -> FleetSpec:
        if not self._registered.wait(timeout=self.handshake_timeout_seconds):
            raise TimeoutError(
                "no collector registered a stream within "
                f"{self.handshake_timeout_seconds:.3g}s"
            )
        fleet = self._fleet
        assert fleet is not None
        return fleet

    @property
    def units(self) -> Dict[str, int]:
        """Unit name -> database count; blocks until the handshake."""
        return dict(self._spec().units)

    @property
    def kpi_names(self) -> Tuple[str, ...]:
        return tuple(self._spec().kpi_names)

    @property
    def interval_seconds(self) -> float:
        return float(self._spec().interval_seconds)

    def __iter__(self) -> Iterator[TickEvent]:
        self._spec()  # no ticks before a handshake
        while True:
            try:
                event = self._queue.get(timeout=self.poll_seconds)
            except QueueFull:
                continue  # empty-and-open: poll again
            except QueueClosed:
                return  # closed and fully drained
            if not len(self._queue):
                # The burst is over: tell the scheduler not to wait for
                # a full batch that may be a second of arrivals away.
                event = replace(event, idle_after=True)
            yield event
