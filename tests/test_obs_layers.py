"""One timing mechanism: every timer is a ``<layer>.<what>`` span.

The service times itself only through :func:`repro.obs.runtime.span`.
A fully featured run — durable state, log ensemble, RCA, and the HTTP
ingestion plane — may therefore leave no ``*_seconds`` histogram outside
the ``span.*`` family, and every span name must start with a known
layer.  Pool workers hand their spans back when they stop, so a
process-pool run records the same detector spans as a serial one.
"""

import threading

from tests.golden_fixture import golden_config, golden_dataset
from repro.logs import dataset_logbook
from repro.obs import runtime as obs
from repro.service import DetectionService, ServiceConfig, detect_fleet
from repro.service.api import IngestServer, NetworkSource, push_dataset

#: The layers a span name may start with (``http`` is the whole request
#: around ``ingest``; ``client`` is the pushing side of the HTTP plane).
LAYERS = (
    "client", "http", "ingest", "queue", "dispatch", "engine", "levels",
    "logs", "rca", "persist", "tuning",
)


def _span_names(snapshot):
    """``span.<name>.wall_seconds`` / ``.cpu_seconds`` -> ``<name>``."""
    return {
        metric[len("span."):].rsplit(".", 1)[0]
        for metric in snapshot
        if metric.startswith("span.")
    }


def _network_run(dataset):
    source = NetworkSource(capacity=256, handshake_timeout_seconds=120.0)
    outcome = {}
    with IngestServer(source) as server:

        def _push():
            try:
                push_dataset(dataset, url=server.url, batch_ticks=32)
            except BaseException as exc:  # surfaced on the main thread
                outcome["error"] = exc

        pusher = threading.Thread(target=_push, daemon=True)
        pusher.start()
        DetectionService(golden_config(), sinks=("null",)).run(source)
        pusher.join(timeout=120.0)
    assert not pusher.is_alive(), "pusher never finished"
    if "error" in outcome:
        raise outcome["error"]


def test_every_timer_is_a_layer_named_span(tmp_path):
    dataset = golden_dataset()
    with obs.scoped() as registry:
        report = detect_fleet(
            dataset,
            config=golden_config(),
            service_config=ServiceConfig(
                state_dir=str(tmp_path / "state"), snapshot_every=4
            ),
            rca=True,
            logbook=dataset_logbook(dataset),
        )
        _network_run(dataset)
    assert report.snapshots_written > 0 and report.incidents

    snapshot = registry.snapshot()
    names = _span_names(snapshot)
    for expected in (
        "engine.window", "engine.correlate", "levels.threshold",
        "levels.decide", "dispatch.round", "queue.offer", "persist.write",
        "persist.snapshot", "persist.recover", "logs.ingest", "logs.fuse",
        "rca.process", "http.request", "ingest.ticks", "client.push",
    ):
        assert expected in names, expected
    assert sorted(n for n in names if n.split(".")[0] not in LAYERS) == []
    stray = [
        metric for metric in snapshot
        if metric.endswith("_seconds") and not metric.startswith("span.")
    ]
    assert stray == []


def test_pool_workers_hand_back_their_spans():
    dataset = golden_dataset()
    counts = {}
    for n_workers in (0, 2):
        with obs.scoped() as registry:
            detect_fleet(
                dataset,
                config=golden_config(),
                service_config=ServiceConfig(n_workers=n_workers),
            )
        snapshot = registry.snapshot()
        counts[n_workers] = snapshot["span.engine.correlate.wall_seconds"]["count"]
    assert counts[0] > 0
    assert counts[2] == counts[0]
