"""Online multi-unit detection service (the §IV-D4 deployment shape).

The library's :class:`~repro.core.detector.DBCatcher` screens one unit;
this package runs a *fleet* of them online:

* :mod:`~repro.service.sources` — tick sources (dataset replay, live
  simulated bypass monitoring);
* :mod:`~repro.service.queues` — the ingestion bridge: bounded per-unit
  queues with block / drop-oldest backpressure and sequence accounting;
* :mod:`~repro.service.api` — the network ingestion plane: HTTP tick
  ingestion into a bounded :class:`NetworkSource` (429 backpressure),
  plus query endpoints over verdicts, incidents and durable state;
* :mod:`~repro.service.sharding` — consistent-hash shard assignment
  (bounded-load ring; deterministic rebalancing on worker join/leave);
* :mod:`~repro.service.transport` — tick transports behind the
  :class:`TickTransport` protocol (``pickle`` pipes, shared-memory rings);
* :mod:`~repro.service.workers` — the sharded worker pool
  (``multiprocessing`` with crash-restart, serial in-process fallback);
* :mod:`~repro.service.alerts` — the alert pipeline and its sinks;
* :mod:`~repro.service.metrics` — counters / gauges / latency histograms;
* :mod:`~repro.service.scheduler` — :class:`DetectionService`, which
  wires it all together, and :func:`detect_fleet` for offline fan-out.

Quick start::

    from repro.service import DetectionService, ServiceConfig, ReplaySource

    service = DetectionService(
        default_config(),
        service_config=ServiceConfig(n_workers=4),
        sinks=("stdout",),
    )
    report = service.run(ReplaySource("fleet.npz"))
    print(report.alerts_emitted, report.metrics["dispatch_latency_seconds"])
"""

from repro.service.api import (
    ApiClient,
    ApiState,
    Backpressure,
    IngestServer,
    NetworkSource,
    push_dataset,
)
from repro.service.alerts import (
    Alert,
    AlertPipeline,
    AlertSink,
    CallbackSink,
    JSONLSink,
    MemorySink,
    StdoutSink,
    build_sink,
)
from repro.service.config import BACKPRESSURE_POLICIES, TRANSPORTS, ServiceConfig
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.protocols import TickSource, TickTransport
from repro.service.queues import IngestionBridge, QueueClosed, QueueFull, TickQueue
from repro.service.scheduler import DetectionService, ServiceReport, detect_fleet
from repro.service.sharding import RING_SEED, RING_VERSION, HashRing, assign_units
from repro.service.sources import (
    MonitorSource,
    ReplaySource,
    RetryingSource,
    TickEvent,
)
from repro.service.transport import (
    PickleTickTransport,
    ShmTickRing,
    ShmTickTransport,
    make_transport,
)
from repro.service.tuning import RetrainEvent, TuningCoordinator
from repro.service.workers import (
    ProcessWorkerPool,
    SerialWorkerPool,
    UnitSpec,
    WorkerDied,
    make_pool,
)

__all__ = [
    "Alert",
    "AlertPipeline",
    "AlertSink",
    "ApiClient",
    "ApiState",
    "BACKPRESSURE_POLICIES",
    "Backpressure",
    "CallbackSink",
    "Counter",
    "DetectionService",
    "Gauge",
    "HashRing",
    "Histogram",
    "IngestServer",
    "IngestionBridge",
    "JSONLSink",
    "MemorySink",
    "MetricsRegistry",
    "MonitorSource",
    "NetworkSource",
    "PickleTickTransport",
    "ProcessWorkerPool",
    "QueueClosed",
    "QueueFull",
    "RING_SEED",
    "RING_VERSION",
    "ReplaySource",
    "RetrainEvent",
    "RetryingSource",
    "SerialWorkerPool",
    "ServiceConfig",
    "ServiceReport",
    "ShmTickRing",
    "ShmTickTransport",
    "StdoutSink",
    "TRANSPORTS",
    "TickEvent",
    "TickQueue",
    "TickSource",
    "TickTransport",
    "TuningCoordinator",
    "UnitSpec",
    "WorkerDied",
    "assign_units",
    "build_sink",
    "detect_fleet",
    "make_pool",
    "make_transport",
    "push_dataset",
]
