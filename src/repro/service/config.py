"""Configuration of the online detection service.

Everything operational lives here — pool size, batching, queue bounds,
backpressure policy, alert sinks, restart budget — separate from
:class:`~repro.core.config.DBCatcherConfig`, which stays purely about the
detection algorithm.  The split mirrors the paper's architecture: §III
defines the detector, §IV-D4 describes how a fleet of them is driven
online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ServiceConfig", "BACKPRESSURE_POLICIES", "TRANSPORTS"]

#: What the ingestion bridge does when a unit's bounded queue is full.
#: ``block`` makes the producer wait (lossless, propagates pressure to the
#: collector); ``drop_oldest`` evicts the stalest tick (bounded staleness,
#: lossy under sustained overload).
BACKPRESSURE_POLICIES: Tuple[str, ...] = ("block", "drop_oldest")

#: How dispatched KPI blocks reach the worker processes.  ``pickle``
#: ships them inside the worker pipe messages; ``shm`` writes them into
#: per-worker shared-memory ring buffers and ships only slot descriptors
#: (see :mod:`repro.service.transport`).
TRANSPORTS: Tuple[str, ...] = ("pickle", "shm")


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable operational configuration for :class:`DetectionService`.

    Parameters
    ----------
    n_workers:
        Detection worker processes.  ``0`` (default) runs every unit's
        detector serially in-process — no pickling, no IPC — and is the
        reference the parallel path must match bit-for-bit.
    batch_ticks:
        Cap on the ticks one unit buffers before a worker round-trip.
        A batch also ends whenever an open-loop feed goes idle (a tick
        carrying :attr:`~repro.service.sources.TickEvent.idle_after`),
        so a lightly loaded network feed dispatches every arrival and
        its verdicts wait milliseconds, not a full batch; closed-loop
        replays never go idle and always batch at the cap, where larger
        caps amortize per-dispatch cost on either pool.  Verdicts and
        their publication order are the same for any cap.
    queue_capacity:
        Bound of each unit's ingest queue, in ticks.
    backpressure:
        ``"block"`` or ``"drop_oldest"`` (see
        :data:`BACKPRESSURE_POLICIES`).
    put_timeout_seconds:
        How long a blocked producer waits before the put fails; ``None``
        waits forever.  Only meaningful under the ``block`` policy.
    max_worker_restarts:
        Crash-restart budget per worker process.  A worker dying beyond
        this budget fails the run instead of looping on a hard crash.
    history_limit:
        Completed rounds each worker-side detector retains; the service
        collects results after every dispatch, so workers only need a
        small tail for debugging.  ``None`` keeps everything (unbounded —
        not what a long-running service wants).
    alert_min_databases:
        Minimum abnormal databases in a round before an alert is emitted;
        1 alerts on every abnormal verdict.
    state_dir:
        Directory for durable state (snapshots + WAL, see
        :mod:`repro.persist`).  When set, the service recovers any state
        found there on startup and resumes mid-stream; ``None`` (default)
        keeps everything in memory.
    snapshot_every:
        Completed detection rounds per unit between atomic snapshots.
        Between snapshots, every completed round is already WAL-durable;
        this knob only bounds how much WAL a restart replays.
    wal_sync:
        WAL fsync discipline: ``"snapshot"`` (default) flushes appends to
        the OS and lets the atomic snapshot be the durability point — a
        process crash loses nothing, only power loss can drop
        post-snapshot rounds, which recovery re-derives live;
        ``"commit"`` fsyncs every group-commit for power-loss durability
        at a serving-latency cost.
    ingest_capacity:
        Bound of the network ingestion queue (``serve --ingest-port``),
        in ticks across the whole fleet.  Separate from
        ``queue_capacity``: the HTTP plane buffers *arrival order*, the
        bridge buffers per unit.
    ingest_max_batch:
        Most ticks one ``POST /v1/ticks`` may carry (413 beyond).
    ingest_retry_after_seconds:
        ``Retry-After`` hint sent with every 429 backpressure response.
    transport:
        How dispatched tick blocks reach the worker processes:
        ``"pickle"`` (default, portable) rides them inside the worker
        pipe messages; ``"shm"`` stages them in per-worker shared-memory
        ring buffers for zero-copy reads (see
        :mod:`repro.service.transport`).  Ignored on the serial path.
    transport_ring_ticks:
        Capacity of each worker's shared-memory ring, in tick slots
        (``shm`` transport only).  A dispatch larger than the ring is
        chunked across several round-trips; a ring that stays full past
        ``put_timeout_seconds``-style limits surfaces as explicit
        backpressure.
    log_ensemble:
        Run the log-frequency channel (:class:`~repro.logs.channel.
        LogChannel`) alongside correlation detection and fuse the two
        verdicts per round (:func:`repro.ensemble.fuse_round`).  The
        channel lives in the scheduler process and only consumes the
        log events the tick source carries, so on a log-free stream the
        run is bit-identical to ``log_ensemble=False`` — fusion can add
        databases to an alert, never remove or change correlation
        verdicts.
    """

    n_workers: int = 0
    batch_ticks: int = 32
    queue_capacity: int = 256
    backpressure: str = "block"
    put_timeout_seconds: Optional[float] = 30.0
    max_worker_restarts: int = 2
    history_limit: Optional[int] = 8
    alert_min_databases: int = 1
    state_dir: Optional[str] = None
    snapshot_every: int = 8
    wal_sync: str = "snapshot"
    ingest_capacity: int = 1024
    ingest_max_batch: int = 256
    ingest_retry_after_seconds: float = 0.05
    transport: str = "pickle"
    transport_ring_ticks: int = 1024
    log_ensemble: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if self.batch_ticks < 1:
            raise ValueError("batch_ticks must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.queue_capacity < self.batch_ticks:
            raise ValueError(
                "queue_capacity must be >= batch_ticks, otherwise a batch "
                "can never accumulate"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.put_timeout_seconds is not None and self.put_timeout_seconds <= 0:
            raise ValueError("put_timeout_seconds must be positive or None")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if self.history_limit is not None and self.history_limit < 1:
            raise ValueError("history_limit must be >= 1 or None")
        if self.alert_min_databases < 1:
            raise ValueError("alert_min_databases must be >= 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.wal_sync not in ("commit", "snapshot"):
            raise ValueError(
                f"wal_sync must be 'commit' or 'snapshot', got {self.wal_sync!r}"
            )
        if self.ingest_capacity < 1:
            raise ValueError("ingest_capacity must be >= 1")
        if self.ingest_max_batch < 1:
            raise ValueError("ingest_max_batch must be >= 1")
        if self.ingest_retry_after_seconds <= 0:
            raise ValueError("ingest_retry_after_seconds must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.transport_ring_ticks < 2:
            raise ValueError("transport_ring_ticks must be >= 2")

    @property
    def parallel(self) -> bool:
        """Whether the sharded process pool is in play."""
        return self.n_workers > 0
