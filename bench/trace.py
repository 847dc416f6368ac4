"""Tracing from the outside: spans around the system's public entry points.

The traced run wraps a table of ``(layer, module, attribute)`` targets;
nothing in the system under test knows it is being traced.  Each call
becomes a span with a name, start, end, parent (from a per-thread stack)
and the dispatch-round id current when it started.  Spans stay in memory
and are written to JSON when the run ends.

A layer's self time is its spans' duration minus the time their child
spans cover; the ``scheduler`` layer is ``DetectionService.run`` itself,
so its self time is the service loop's own work.  Bench-owned spans
close the accounting: ``root`` around each measured arm, ``setup`` from
the fleet metadata read to the first pull on the source, and ``source``
for time spent pulling ticks.  The tracer's
own cost per wrapped call is calibrated on a no-op and charged to a
``trace`` layer instead of the caller, so on the main thread every
layer's self time plus the roots' residual adds up to the roots' wall
time.  Spans on other threads (the HTTP handlers of ``live``) overlap
that wall time and are reported beside it.

A target that no longer exists, such as an internal a later change
renamed or deleted, is recorded in :attr:`Tracer.missing` and skipped;
so is a target's work counter that no longer fits its arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from common import percentile

#: Span record layout (a list, so ``end`` can be filled in place).
NAME, LAYER, START, END, PARENT, ROUND, THREAD = range(7)

#: Layers in share-table order; ``root`` last (its self time is residual).
LAYERS = (
    "scheduler", "setup", "source", "ingest", "query", "queue", "dispatch",
    "transport",
    "detector", "engine", "levels", "logs", "alerts", "rca", "persist",
    "tuning", "trace", "root",
)

_MISSING = object()
_clock = time.perf_counter
_thread_id = threading.get_ident


class Tracer:
    """In-memory span recorder that wraps public entry points."""

    def __init__(self) -> None:
        #: Wrapped calls record spans only while this is set (see
        #: :meth:`recording`); otherwise they pass straight through.
        self.active = False
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.engines: Dict[int, object] = {}
        self.incidents: set = set()
        self.queue_waits: List[float] = []
        #: Seconds one wrapped call costs its caller (see :meth:`calibrate`).
        self.call_cost = 0.0
        self._offered: Dict[Tuple[str, int], float] = {}
        self._backlog = 0
        self._local = threading.local()
        self._round = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._setup: Optional[list] = None

    # -- spans ----------------------------------------------------------

    def begin(self, layer: str, name: str) -> list:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        if layer == "dispatch":
            self._round += 1
        record = [name, layer, _clock(), None, stack[-1] if stack else None,
                  self._round, _thread_id()]
        self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[END] = _clock()
        stack = self._local.stack
        if stack[-1] is record:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit
            stack.remove(record)

    @contextmanager
    def recording(self, label: str) -> Iterator[None]:
        """Record wrapped calls under one ``root`` span named ``label``."""
        self.active = True
        root = self.begin("root", label)
        try:
            yield
        finally:
            self.end(root)
            self.active = False

    def begin_setup(self) -> None:
        """Open the ``setup`` span when the service reads fleet metadata."""
        self._setup = self.begin("setup", "service.setup")

    def end_setup(self) -> None:
        """Close the ``setup`` span at the first pull on the source."""
        if self._setup is not None:
            self.end(self._setup)
            self._setup = None

    def calibrate(self, calls: int = 20000) -> float:
        """Measure what one wrapped call adds to its caller, on a no-op."""

        def noop():
            return None

        wrapped = self._wrap("trace", "calibration", noop)
        kept = len(self.spans)
        self.active = True
        try:
            started = _clock()
            for _ in range(calls):
                noop()
            bare = _clock() - started
            started = _clock()
            for _ in range(calls):
                wrapped()
            traced = _clock() - started
        finally:
            self.active = False
            del self.spans[kept:]
        self.call_cost = max(0.0, (traced - bare) / calls)
        return self.call_cost

    # -- wrapping ---------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every ``(layer, module, qualname)`` target that exists."""
        for layer, module_name, qualname in targets:
            label = f"{module_name}:{qualname}"
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if inspect.isclass(owner):
                original = owner.__dict__.get(attr, _MISSING)
                target = getattr(owner, attr, _MISSING)
            else:
                original = target = getattr(owner, attr, _MISSING)
            if target is _MISSING or not callable(target):
                self.missing.append(label)
                continue
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(
                    self._wrap(layer, qualname, original.__func__)
                )
            else:
                wrapped = self._wrap(layer, qualname, target)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            # Each resumption of the generator is one span.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    yield from inner
                    return
                tracer._count(name, hook, args, kwargs, None, None)
                try:
                    while True:
                        record = tracer.begin(layer, name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.end(record)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            tracer._count(name, hook, args, kwargs, result, record)
            return result

        return traced

    def _count(self, name: str, hook, args, kwargs, result, record) -> None:
        """Run a target's counter hook; a signature it no longer fits is
        recorded in :attr:`missing` instead of stopping the run."""
        if hook is None:
            return
        try:
            hook(self, args, kwargs, result, record)
        except Exception as exc:  # the target changed under the bench
            label = f"{name} counters: {type(exc).__name__}"
            if label not in self.missing:
                self.missing.append(label)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as JSON (parents as indices into the list)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            {
                "name": record[NAME],
                "layer": record[LAYER],
                "start": record[START],
                "end": record[END],
                "parent": (
                    None if record[PARENT] is None else index[id(record[PARENT])]
                ),
                "round": record[ROUND],
                "thread": record[THREAD],
            }
            for record in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"missing": self.missing, "call_cost": self.call_cost,
                 "spans": rows},
                handle,
            )


# -- per-target counters ---------------------------------------------------
#
# Hooks run after a call returns, outside its span, and derive work counts
# from public arguments and results only.


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _dispatch_hook(tracer, args, kwargs, result, record) -> None:
    batches = _arg(args, kwargs, 1, "batches")
    tracer.counts["dispatch.units"] += len(batches)
    tracer.counts["dispatch.ticks"] += sum(len(b) for b in batches.values())


def _encode_hook(tracer, args, kwargs, result, record) -> None:
    payload = _arg(args, kwargs, 1, "payload")
    tracer.counts["transport.calls"] += 1
    tracer.counts["transport.bytes"] += sum(
        int(getattr(block, "nbytes", 0)) for _, block in payload
    )


def _process_hook(tracer, args, kwargs, result, record) -> None:
    tracer.counts["detector.rounds"] += len(result)
    for round_result in result:
        if round_result.records:
            tracer.counts["levels.expansions"] += max(
                r.expansions for r in round_result.records.values()
            )


def _matrices_hook(tracer, args, kwargs, result, record) -> None:
    engine, window = args[0], _arg(args, kwargs, 1, "window")
    active = kwargs.get("active", args[4] if len(args) > 4 else None)
    n_active = int(sum(active)) if active is not None else window.shape[0]
    tracer.counts["engine.pairs_scored"] += (
        window.shape[1] * n_active * (n_active - 1) // 2
    )
    tracer.engines[id(engine)] = engine


def _offer_hook(tracer, args, kwargs, result, record) -> None:
    event = _arg(args, kwargs, 1, "event")
    tracer._offered[(event.unit, event.seq)] = record[START]
    tracer._backlog += 1
    tracer.counts["queue.backlog_max"] = max(
        tracer.counts["queue.backlog_max"], tracer._backlog
    )


def _drain_hook(tracer, args, kwargs, result, record) -> None:
    tracer._backlog -= len(result)
    for event in result:
        offered = tracer._offered.pop((event.unit, event.seq), None)
        if offered is not None:
            tracer.queue_waits.append(record[END] - offered)


def _log_ingest_hook(tracer, args, kwargs, result, record) -> None:
    tracer.counts["logs.events"] += len(_arg(args, kwargs, 3, "events"))


def _publish_hook(tracer, args, kwargs, result, record) -> None:
    tracer.counts["alerts.emitted"] += result is not None


def _rca_hook(tracer, args, kwargs, result, record) -> None:
    incident = getattr(result, "incident_id", None)
    if incident is not None:
        tracer.incidents.add(incident)


def _snapshot_hook(tracer, args, kwargs, result, record) -> None:
    tracer.counts["persist.snapshots"] += 1


def _population_hook(tracer, args, kwargs, result, record) -> None:
    tracer.counts["tuning.genomes"] += len(_arg(args, kwargs, 1, "population"))


_HOOKS: Dict[str, Callable] = {
    "SerialWorkerPool.dispatch": _dispatch_hook,
    "ProcessWorkerPool.dispatch": _dispatch_hook,
    "PickleTickTransport.encode": _encode_hook,
    "ShmTickTransport.encode": _encode_hook,
    "DBCatcher.process": _process_hook,
    "BatchedEngine.matrices": _matrices_hook,
    "ReferenceEngine.matrices": _matrices_hook,
    "IngestionBridge.offer": _offer_hook,
    "IngestionBridge.drain": _drain_hook,
    "LogChannel.ingest": _log_ingest_hook,
    "AlertPipeline.publish": _publish_hook,
    "RootCauseAnalyzer.process": _rca_hook,
    "UnitStore.write_snapshot": _snapshot_hook,
    "VectorizedObjective.evaluate_population": _population_hook,
}

#: The public entry points each layer is measured at.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("scheduler", "repro.service.scheduler", "DetectionService.run"),
    ("ingest", "repro.service.api.server", "decode_body"),
    ("ingest", "repro.service.api.server", "parse_tick_batch"),
    ("ingest", "repro.service.api.source", "NetworkSource.offer_batch"),
    ("query", "repro.service.api.server", "ApiState.verdicts"),
    ("queue", "repro.service.queues", "IngestionBridge.offer"),
    ("queue", "repro.service.queues", "IngestionBridge.drain"),
    ("dispatch", "repro.service.workers", "SerialWorkerPool.dispatch"),
    ("dispatch", "repro.service.workers", "ProcessWorkerPool.dispatch"),
    ("dispatch", "repro.service.workers", "ProcessWorkerPool.stop"),
    ("transport", "repro.service.transport", "PickleTickTransport.encode"),
    ("transport", "repro.service.transport", "ShmTickTransport.encode"),
    ("detector", "repro.core.detector", "DBCatcher.process"),
    ("engine", "repro.engine.batched", "BatchedEngine.matrices"),
    ("engine", "repro.engine.reference", "ReferenceEngine.matrices"),
    ("levels", "repro.core.detector", "calculate_levels"),
    ("levels", "repro.tuning.vectorized", "calculate_levels"),
    ("levels", "repro.core.window", "FlexibleWindow.decide"),
    ("logs", "repro.logs.channel", "LogChannel.ingest"),
    ("logs", "repro.logs.channel", "LogChannel.fuse"),
    ("alerts", "repro.service.alerts", "AlertPipeline.publish"),
    ("alerts", "repro.service.alerts", "AlertPipeline.finish"),
    ("rca", "repro.rca.analyzer", "RootCauseAnalyzer.process"),
    ("persist", "repro.persist.store", "UnitStore.append_rounds"),
    ("persist", "repro.persist.store", "UnitStore.write_snapshot"),
    ("tuning", "repro.tuning.vectorized", "VectorizedObjective.__init__"),
    ("tuning", "repro.tuning.vectorized",
     "VectorizedObjective.evaluate_population"),
    ("tuning", "repro.tuning.genetic", "GeneticThresholdLearner.search"),
)


# -- the ledger ------------------------------------------------------------


@dataclass
class Ledger:
    """Self time per span and per layer, and the wall time they add up to."""

    #: ``id(record)`` -> self seconds, the tracer's cost taken out.
    selfs: Dict[int, float]
    #: Layer -> self seconds on the main thread (``trace`` and ``root``
    #: included), summing to ``wall``.
    main: Dict[str, float]
    #: Layer -> self seconds on other threads (overlapping ``wall``).
    other_threads: Dict[str, float]
    #: Total duration of the root spans.
    wall: float


def ledger(tracer: Tracer) -> Ledger:
    spans = [r for r in tracer.spans if r[END] is not None]
    selfs = {id(r): r[END] - r[START] for r in spans}
    charged: Dict[int, int] = defaultdict(int)
    for record in spans:
        parent = record[PARENT]
        if parent is not None and id(parent) in selfs:
            selfs[id(parent)] -= record[END] - record[START] + tracer.call_cost
            charged[record[THREAD]] += 1
    main = threading.main_thread().ident
    on_main: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    off_main: Dict[str, float] = defaultdict(float)
    for record in spans:
        table = on_main if record[THREAD] == main else off_main
        table[record[LAYER]] = table.get(record[LAYER], 0.0) + selfs[id(record)]
    on_main["trace"] += charged[main] * tracer.call_cost
    wall = sum(
        r[END] - r[START] for r in spans
        if r[LAYER] == "root" and r[PARENT] is None and r[THREAD] == main
    )
    return Ledger(selfs, on_main, dict(off_main), wall)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every span-derived ``per_layer`` metric, by name."""
    book = ledger(tracer)
    counts = tracer.counts
    by_layer: Dict[str, List[list]] = defaultdict(list)
    for record in tracer.spans:
        if record[END] is not None:
            by_layer[record[LAYER]].append(record)

    def spans(layer: str, name: Optional[str] = None) -> List[list]:
        return [r for r in by_layer[layer] if name is None or r[NAME] == name]

    def calls(layer: str, name: Optional[str] = None) -> int:
        return len(spans(layer, name))

    def self_seconds(layer: str, name: Optional[str] = None) -> float:
        return sum(book.selfs[id(r)] for r in spans(layer, name))

    def total_seconds(layer: str, name: str) -> float:
        return sum(r[END] - r[START] for r in spans(layer, name))

    def p99(layer: str, name: Optional[str] = None) -> float:
        durations = [r[END] - r[START] for r in spans(layer, name)]
        return percentile(durations, 99) if durations else 0.0

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits = misses = 0
    for engine in tracer.engines.values():
        stats = getattr(engine, "cache_stats", None)
        hits += int(getattr(stats, "hits", 0))
        misses += int(getattr(stats, "misses", 0))
    dispatch_durations = [
        r[END] - r[START] for r in spans("dispatch")
        if r[NAME].endswith(".dispatch")
    ]
    dispatches = len(dispatch_durations)
    rounds = counts["detector.rounds"]
    return {
        "ingest.calls": calls("ingest", "NetworkSource.offer_batch"),
        "ingest.self_seconds": book.other_threads.get("ingest", 0.0),
        "ingest.p99_seconds": p99("ingest", "parse_tick_batch"),
        "query.calls": calls("query"),
        "query.self_seconds": book.other_threads.get("query", 0.0),
        "queue.offers": calls("queue", "IngestionBridge.offer"),
        "queue.self_seconds": book.main["queue"],
        "queue.wait_p99_seconds": (
            percentile(tracer.queue_waits, 99) if tracer.queue_waits else 0.0
        ),
        "queue.backlog_max": counts["queue.backlog_max"],
        "dispatch.calls": dispatches,
        "dispatch.self_seconds": book.main["dispatch"],
        "dispatch.p99_seconds": percentile(dispatch_durations, 99)
        if dispatch_durations else 0.0,
        "dispatch.units_per_call": per(counts["dispatch.units"], dispatches),
        "dispatch.ticks_per_call": per(counts["dispatch.ticks"], dispatches),
        "transport.calls": counts["transport.calls"],
        "transport.self_seconds": book.main["transport"],
        "transport.bytes": counts["transport.bytes"],
        "worker.wait_seconds": self_seconds(
            "dispatch", "ProcessWorkerPool.dispatch"
        ),
        "detector.calls": calls("detector"),
        "detector.self_seconds": book.main["detector"],
        "detector.rounds": rounds,
        "engine.calls": calls("engine"),
        "engine.self_seconds": book.main["engine"],
        "engine.pairs_scored": counts["engine.pairs_scored"],
        "engine.cache_hit_ratio": per(hits, hits + misses),
        "levels.calls": calls("levels"),
        "levels.self_seconds": book.main["levels"],
        "levels.expansions_per_round": per(counts["levels.expansions"], rounds),
        "logs.calls": calls("logs"),
        "logs.self_seconds": book.main["logs"],
        "logs.events": counts["logs.events"],
        "alerts.calls": calls("alerts"),
        "alerts.self_seconds": book.main["alerts"],
        "alerts.emitted": counts["alerts.emitted"],
        "rca.calls": calls("rca"),
        "rca.self_seconds": book.main["rca"],
        "rca.incidents": len(tracer.incidents),
        "persist.calls": calls("persist"),
        "persist.self_seconds": book.main["persist"],
        "persist.snapshots": counts["persist.snapshots"],
        "tuning.build_seconds": total_seconds(
            "tuning", "VectorizedObjective.__init__"
        ),
        "tuning.evaluate_seconds": total_seconds(
            "tuning", "VectorizedObjective.evaluate_population"
        ),
        "tuning.self_seconds": book.main["tuning"],
        "tuning.genomes": counts["tuning.genomes"],
        "scheduler.self_seconds": book.main["scheduler"],
        "setup.self_seconds": book.main["setup"],
        "source.self_seconds": book.main["source"],
        "root.self_seconds": book.main["root"],
        "trace.self_seconds": book.main["trace"],
        "trace.call_cost_seconds": tracer.call_cost,
        "trace.wall_seconds": book.wall,
        "trace.unattributed_frac": per(book.main["root"], book.wall),
        "trace.missing": len(tracer.missing),
        "trace.spans": len(tracer.spans),
    }


def share_rows(tracer: Tracer) -> List[str]:
    """The per-layer share table, one formatted line per layer."""
    book = ledger(tracer)
    lines = [f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        seconds = book.main.get(layer, 0.0)
        if seconds or layer == "root":
            share = seconds / book.wall if book.wall else 0.0
            lines.append(f"{layer:<10} {seconds:>10.4f} {share:>7.1%}")
    lines.append(
        f"{'sum':<10} {sum(book.main.values()):>10.4f} "
        f"(traced wall {book.wall:.4f} s)"
    )
    for layer, seconds in sorted(book.other_threads.items()):
        lines.append(f"{layer:<10} {seconds:>10.4f} (other threads, overlaps)")
    return lines
