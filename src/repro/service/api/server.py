"""HTTP front door of the detection service: ingestion plus queries.

:class:`IngestServer` follows the :class:`~repro.obs.http.ObsServer`
pattern — a stdlib ``ThreadingHTTPServer`` on a daemon thread, ``port=0``
for an ephemeral port in tests — and speaks the
:mod:`repro.service.api.wire` schema:

* ``PUT /v1/stream``        — collector handshake (declare the fleet);
* ``POST /v1/ticks``        — one unit's batched KPI ticks;
* ``POST /v1/stream/close`` — end of stream, the service drains and stops;
* ``GET /v1/units``         — the registered fleet;
* ``GET /v1/units/<id>/verdicts`` — recent detection rounds per unit;
* ``GET /v1/incidents``     — RCA incident lifecycle, newest state;
* ``GET /v1/state``         — durable snapshot/WAL layout on disk;
* ``GET /healthz``          — liveness probe.

Ingestion feeds a :class:`~repro.service.api.source.NetworkSource`; the
query side reads an :class:`ApiState` view that doubles as an alert sink
and as the scheduler's ``result_listener``, so serving queries never
touches detector internals or blocks the detection path.  Handlers never
wait for queue room — backpressure surfaces as ``429`` with a
``Retry-After`` hint, and every schema violation maps to a typed 4xx
body ``{"error": {"code", "message", "field"}}``.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import threading
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional
from urllib.parse import unquote

from repro.core.detector import UnitDetectionResult
from repro.obs import runtime as obs
from repro.persist.codec import state_next_tick
from repro.persist.store import UnitStore
from repro.service.alerts import Alert, AlertSink
from repro.service.api.source import Backpressure, NetworkSource
from repro.service.api.wire import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_BODY_BYTES,
    WireError,
    decode_body,
    parse_handshake,
    parse_tick_batch,
)

__all__ = ["ApiState", "IngestServer"]


def _result_summary(result: UnitDetectionResult) -> Dict[str, Any]:
    """Flatten one round for the query API (Fig. 7 state paths included)."""
    records = {}
    for db in sorted(result.records):
        record = result.records[db]
        records[str(db)] = {
            "state": record.state.name,
            "expansions": record.expansions,
            "window_start": record.window_start,
            "window_end": record.window_end,
            "state_path": ["OBSERVABLE"] * record.expansions
            + [record.state.name],
        }
    return {
        "start": result.start,
        "end": result.end,
        "window_size": result.window_size,
        "abnormal_databases": list(result.abnormal_databases),
        "records": records,
    }


class ApiState(AlertSink):
    """Thread-safe view the query endpoints read.

    Plugs into the service twice: as the scheduler's ``result_listener``
    (via :meth:`record_result`) for verdict histories, and as an alert
    sink for alerts and RCA incident lifecycle events.  Everything is
    bounded by ``history_limit`` so an indefinite run cannot grow the
    view without bound.
    """

    def __init__(self, history_limit: int = 256):
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.history_limit = history_limit
        self._lock = threading.Lock()
        self._verdicts: Dict[str, Deque[Dict[str, Any]]] = {}
        self._rounds: Dict[str, int] = {}
        self._alerts: Deque[Dict[str, Any]] = deque(maxlen=history_limit)
        self._incidents: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def record_result(self, unit: str, result: UnitDetectionResult) -> None:
        summary = _result_summary(result)
        with self._lock:
            if unit not in self._verdicts:
                self._verdicts[unit] = deque(maxlen=self.history_limit)
            self._verdicts[unit].append(summary)
            self._rounds[unit] = self._rounds.get(unit, 0) + 1

    def emit(self, alert: Alert) -> None:
        with self._lock:
            self._alerts.append(alert.to_dict())

    def emit_incident(self, event) -> None:
        # Keyed by id so each incident surfaces once, at its newest state.
        payload = event.to_dict()
        with self._lock:
            incident_id = str(payload["incident_id"])
            self._incidents[incident_id] = payload
            self._incidents.move_to_end(incident_id)
            while len(self._incidents) > self.history_limit:
                self._incidents.popitem(last=False)

    def verdicts(
        self, unit: str, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        with self._lock:
            rounds = list(self._verdicts.get(unit, ()))
        if limit is not None:
            rounds = rounds[-limit:]
        return rounds

    def rounds_recorded(self, unit: str) -> int:
        """Total rounds seen for a unit (not capped by the history limit)."""
        with self._lock:
            return self._rounds.get(unit, 0)

    def alerts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._alerts)

    def incidents(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._incidents.values())


def _state_overview(state_dir: Optional[str]) -> Dict[str, Any]:
    """Summarize the durable state directory for ``GET /v1/state``.

    Read-only over the :mod:`repro.persist` layout: the atomic-replace
    snapshot discipline means whatever ``load_snapshot`` returns is
    complete, even while the service is writing next door.
    """
    overview: Dict[str, Any] = {"state_dir": state_dir, "units": {}}
    if state_dir is None or not os.path.isdir(state_dir):
        return overview
    for name in sorted(os.listdir(state_dir)):
        directory = os.path.join(state_dir, name)
        if not os.path.isdir(directory):
            continue
        files = os.listdir(directory)
        store = UnitStore(state_dir, name, wal_sync="snapshot")
        snapshot = store.load_snapshot()
        overview["units"][name] = {
            "snapshot": snapshot is not None,
            "next_tick": None if snapshot is None else state_next_tick(snapshot),
            "wal_segments": len(fnmatch.filter(files, "wal-*.jsonl")),
            "archived_segments": len(fnmatch.filter(files, "archive*.jsonl")),
        }
    return overview


class IngestServer:
    """Serve the v1 ingestion + query API over HTTP.

    Parameters
    ----------
    source:
        The :class:`NetworkSource` ingested ticks feed.
    view:
        Optional :class:`ApiState` backing the verdict/incident queries;
        without one those endpoints answer with empty histories.
    host, port:
        Bind address; ``port=0`` (default) picks a free ephemeral port.
        ``allow_reuse_address`` is on, so a warm restart can re-bind the
        same port immediately — the kill drill depends on that.
    state_dir:
        Durable-state directory ``GET /v1/state`` reports on.
    max_batch, max_body_bytes:
        Wire-level request caps (413 beyond either).
    """

    def __init__(
        self,
        source: NetworkSource,
        view: Optional[ApiState] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir: Optional[str] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.source = source
        self.view = view
        self.state_dir = state_dir
        self.max_batch = max_batch
        self.max_body_bytes = max_body_bytes
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API name
                server._handle(self, "GET")

            def do_PUT(self) -> None:  # noqa: N802 - stdlib API name
                server._handle(self, "PUT")

            def do_POST(self) -> None:  # noqa: N802 - stdlib API name
                server._handle(self, "POST")

            def log_message(self, format: str, *args) -> None:
                pass  # collectors post every interval; stderr would flood

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = threading.Thread(
            target=self._server.serve_forever,
            name="repro-api-http",
            daemon=True,
        )
        self._thread.start()

    # -- plumbing ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (the source stays usable)."""
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "IngestServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _send_json(
        handler: BaseHTTPRequestHandler,
        status: int,
        payload: Dict[str, Any],
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            handler.send_header("Retry-After", str(math.ceil(retry_after)))
        handler.end_headers()
        try:
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; nothing to salvage

    def _read_body(self, handler: BaseHTTPRequestHandler) -> Any:
        return decode_body(self._read_raw(handler), self.max_body_bytes)

    def _read_raw(self, handler: BaseHTTPRequestHandler) -> bytes:
        length = handler.headers.get("Content-Length")
        if length is None:
            raise WireError(
                "missing_length", "Content-Length is required", status=411
            )
        try:
            n_bytes = int(length)
        except ValueError:
            raise WireError(
                "bad_length", f"Content-Length {length!r} is not an integer"
            ) from None
        if n_bytes < 0:
            raise WireError("bad_length", "Content-Length must be >= 0")
        if n_bytes > self.max_body_bytes:
            raise WireError(
                "body_too_large",
                f"body is {n_bytes} bytes, limit {self.max_body_bytes}",
                status=413,
            )
        return handler.rfile.read(n_bytes)

    # -- routing -----------------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        with obs.span("http.request"):
            self._route(handler, method)

    def _route(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        path = unquote(handler.path.split("?", 1)[0])
        query = handler.path.partition("?")[2]
        obs.counter("api.requests").increment()
        try:
            if method == "GET":
                self._handle_get(handler, path, query)
            elif method == "PUT" and path == "/v1/stream":
                self._handle_stream(handler)
            elif method == "POST" and path == "/v1/ticks":
                self._handle_ticks(handler)
            elif method == "POST" and path == "/v1/stream/close":
                self.source.close_stream()
                self._send_json(handler, 200, {"closed": True})
            else:
                raise WireError(
                    "not_found", f"no route for {method} {path}", status=404
                )
        except Backpressure as exc:
            self._send_json(
                handler,
                429,
                {
                    "accepted": exc.accepted,
                    "stale": exc.stale,
                    "retry_after": exc.retry_after_seconds,
                    "error": {
                        "code": "backpressure",
                        "message": str(exc),
                    },
                },
                retry_after=exc.retry_after_seconds,
            )
        except WireError as exc:
            obs.counter("api.errors").increment()
            self._send_json(handler, exc.status, {"error": exc.to_dict()})
        except Exception as exc:  # never let a bug kill the handler thread
            obs.counter("api.internal_errors").increment()
            self._send_json(
                handler,
                500,
                {"error": {"code": "internal", "message": str(exc)}},
            )

    def _handle_stream(self, handler: BaseHTTPRequestHandler) -> None:
        fleet = parse_handshake(self._read_body(handler))
        created = self.source.register(fleet)
        self._send_json(
            handler,
            201 if created else 200,
            {"registered": True, "created": created},
        )

    def _handle_ticks(self, handler: BaseHTTPRequestHandler) -> None:
        # The socket read is transport wait (it blocks off-GIL until the
        # client's bytes arrive) — only the CPU work that contends with
        # detection is charged to the gated ingest span: JSON decode,
        # wire validation, and queue admission.
        raw = self._read_raw(handler)
        with obs.span("ingest.ticks"):
            payload = decode_body(raw, self.max_body_bytes)
            fleet = self.source.fleet
            unit, events = parse_tick_batch(
                payload, fleet=fleet, max_batch=self.max_batch
            )
            counts = self.source.offer_batch(unit, events)
        self._send_json(handler, 200, counts)

    def _handle_get(
        self, handler: BaseHTTPRequestHandler, path: str, query: str
    ) -> None:
        if path == "/healthz":
            body = b"ok\n"
            handler.send_response(200)
            handler.send_header("Content-Type", "text/plain; charset=utf-8")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        if path == "/v1/units":
            fleet = self.source.fleet
            if fleet is None:
                self._send_json(handler, 200, {"registered": False, "units": {}})
            else:
                self._send_json(
                    handler,
                    200,
                    {
                        "registered": True,
                        "units": dict(fleet.units),
                        "kpi_names": list(fleet.kpi_names),
                        "interval_seconds": fleet.interval_seconds,
                    },
                )
            return
        if path == "/v1/incidents":
            incidents = self.view.incidents() if self.view is not None else []
            self._send_json(handler, 200, {"incidents": incidents})
            return
        if path == "/v1/state":
            self._send_json(handler, 200, _state_overview(self.state_dir))
            return
        parts = path.strip("/").split("/")
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "units"]
            and parts[3] == "verdicts"
        ):
            unit = parts[2]
            fleet = self.source.fleet
            if fleet is not None and unit not in fleet.units:
                raise WireError(
                    "unknown_unit",
                    f"unit {unit!r} is not in the registered fleet",
                    field="unit",
                    status=404,
                )
            limit = self._parse_limit(query)
            rounds = (
                self.view.verdicts(unit, limit=limit)
                if self.view is not None
                else []
            )
            total = (
                self.view.rounds_recorded(unit) if self.view is not None else 0
            )
            self._send_json(
                handler,
                200,
                {"unit": unit, "rounds": total, "verdicts": rounds},
            )
            return
        raise WireError("not_found", f"no route for GET {path}", status=404)

    @staticmethod
    def _parse_limit(query: str) -> Optional[int]:
        for part in query.split("&"):
            if part.startswith("limit="):
                raw = part[len("limit="):]
                try:
                    limit = int(raw)
                except ValueError:
                    raise WireError(
                        "bad_value",
                        f"limit must be an integer, got {raw!r}",
                        field="limit",
                    ) from None
                if limit < 1:
                    raise WireError(
                        "bad_value", "limit must be >= 1", field="limit"
                    )
                return limit
        return None
