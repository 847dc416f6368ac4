"""Sharded detection worker pool.

One :class:`~repro.core.detector.DBCatcher` per unit, sharded onto worker
processes by the consistent-hash ring of :mod:`repro.service.sharding`.
The scheduler dispatches *batches* of ticks per unit; each dispatch fans
the batches out to every worker owning part of them and multiplexes the
round-trips, so shards compute concurrently instead of taking turns on
the parent's pipe.

How the blocks travel is the :class:`~repro.service.protocols.TickTransport`
protocol's business (:mod:`repro.service.transport`): the legacy
``pickle`` path rides them inside the pipe messages, the ``shm`` path
stages them in per-worker shared-memory rings and ships only slot
descriptors.  The pool speaks the protocol, never a concrete transport.

Two pool flavours share one API:

* :class:`SerialWorkerPool` — every detector lives in-process.  No
  pickling, no IPC; the reference implementation the parallel pool must
  match verdict-for-verdict.
* :class:`ProcessWorkerPool` — ``multiprocessing`` processes connected by
  pipes.  A worker that dies (OOM kill, segfaulting native code, the test
  suite's deliberate crash hook) is respawned with fresh detectors for
  its shard, up to a restart budget; ticks in flight during the crash are
  counted as lost, never silently replayed.  Workers can also *join*
  (:meth:`~ProcessWorkerPool.add_worker`) or *retire*
  (:meth:`~ProcessWorkerPool.retire_worker`): the hash ring decides which
  units move, and the moving units carry their detector state with them
  so verdict history survives the migration.

Detection is deterministic — same ticks in, same verdicts out — so batch
boundaries, transport choice and process placement cannot change results;
the parity tests pin this down.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher, UnitDetectionResult
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_BUCKETS
from repro.persist.codec import shift_state, state_next_tick
from repro.service.config import ServiceConfig
from repro.service.sharding import HashRing
from repro.service.transport import WorkerRingReader, make_transport

__all__ = [
    "UnitSpec",
    "WorkerDied",
    "SerialWorkerPool",
    "ProcessWorkerPool",
    "make_pool",
]

#: How long one dispatch waits on an unresponsive worker before the
#: crash-restart machinery takes over.
_DISPATCH_TIMEOUT_SECONDS = 300.0

#: Parent-side sleep when every in-flight worker is stalled (ring full or
#: reply pending); keeps the multiplexing loop from busy-spinning.
_IDLE_SLEEP_SECONDS = 0.0005

#: Pipe failures that mean "the worker process is gone", as opposed to a
#: protocol error in live code.
_WORKER_FAILURES = (EOFError, OSError, BrokenPipeError)


@dataclass(frozen=True)
class UnitSpec:
    """Everything a worker needs to build one unit's detector.

    The spec crosses the process boundary, so it must stay picklable:
    plain config + database count, no live objects.
    """

    name: str
    n_databases: int
    config: DBCatcherConfig


class WorkerDied(RuntimeError):
    """A worker process exceeded its crash-restart budget."""


def _build_detectors(
    specs: Sequence[UnitSpec],
    history_limit: Optional[int],
    states: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, DBCatcher]:
    # The pool's retention policy wins over whatever the spec's config
    # carries (including None): the parent collects results on every
    # dispatch, so worker-side detectors never need deep history.  A unit
    # with recovered durable state resumes warm from it — this is also
    # what lets shards migrate between workers with their state attached.
    detectors: Dict[str, DBCatcher] = {}
    for spec in specs:
        state = states.get(spec.name) if states else None
        if state is not None:
            detectors[spec.name] = DBCatcher.from_state(
                state, history_limit=history_limit
            )
        else:
            detectors[spec.name] = DBCatcher(
                dataclasses.replace(spec.config, history_limit=history_limit),
                n_databases=spec.n_databases,
            )
    return detectors


def _shift_result(result: UnitDetectionResult, offset: int) -> UnitDetectionResult:
    """Re-anchor a result from a restarted detector's local tick 0.

    After a crash-restart the replacement detector counts ticks from
    zero; ``offset`` is the absolute sequence number its first tick had,
    so alerts keep pointing at the right spot in the source stream.
    """
    if offset == 0:
        return result
    return dataclasses.replace(
        result,
        start=result.start + offset,
        end=result.end + offset,
        records={
            db: dataclasses.replace(
                record,
                window_start=record.window_start + offset,
                window_end=record.window_end + offset,
            )
            for db, record in result.records.items()
        },
    )


class SerialWorkerPool:
    """In-process reference pool: one detector per unit, no concurrency."""

    def __init__(
        self,
        specs: Sequence[UnitSpec],
        history_limit: Optional[int] = None,
        states: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.detectors = _build_detectors(specs, history_limit, states)
        self.history_limit = history_limit
        self.restarts = 0
        self.ticks_lost = 0

    def shard_map(self) -> Dict[str, List[str]]:
        """No workers, no shards — the serial pool is one address space."""
        return {}

    def install_config(self, unit: str, config: DBCatcherConfig) -> None:
        """Hot-swap one unit's thresholds between rounds.

        The pool's retention policy still wins over the incoming config's,
        exactly as at construction time.
        """
        self.detectors[unit].install_config(
            dataclasses.replace(config, history_limit=self.history_limit)
        )

    def dispatch(
        self, batches: Dict[str, np.ndarray]
    ) -> Dict[str, List[UnitDetectionResult]]:
        """Feed each unit its batch; return completed rounds per unit."""
        results: Dict[str, List[UnitDetectionResult]] = {}
        for unit, block in batches.items():
            results[unit] = self.detectors[unit].process(block)
        return results

    def export_persist_states(
        self, units: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Durable :meth:`DBCatcher.to_state` payloads for snapshotting."""
        names = list(self.detectors) if units is None else list(units)
        return {
            name: self.detectors[name].to_state(healthy_matrices=False)
            for name in names
        }

    def crash_worker(self, unit: str) -> None:  # pragma: no cover - API parity
        raise NotImplementedError("the serial pool has no processes to crash")

    def stop(self) -> None:
        pass


def _worker_main(
    conn,
    specs: List[UnitSpec],
    history_limit: Optional[int],
    states: Optional[Dict[str, Dict[str, Any]]] = None,
    transport_init: Optional[Any] = None,
) -> None:
    """Worker process loop: build the shard's detectors, serve commands."""
    if obs.is_enabled():
        # The forked registry still holds the parent's observations; a
        # fresh one keeps the stop reply to this worker's own spans.
        obs.enable(MetricsRegistry())
    detectors = _build_detectors(specs, history_limit, states)
    reader = (
        WorkerRingReader(transport_init) if transport_init is not None else None
    )
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "batch":
            replies = []
            for unit, block in message[1]:
                replies.append((unit, detectors[unit].process(block)))
            conn.send(("results", replies))
        elif kind == "batch_shm":
            replies = []
            for unit, view, release in reader.blocks(message[1]):
                # The view's slots recycle at release, so the detector
                # must finish with the data (it copies into its stream
                # buffers) before the cursor moves.
                replies.append((unit, detectors[unit].process(view)))
                reader.release(release)
            conn.send(("results", replies))
        elif kind == "config":
            unit, config = message[1]
            detectors[unit].install_config(
                dataclasses.replace(config, history_limit=history_limit)
            )
            conn.send(("config_installed", unit))
        elif kind == "adopt":
            spec, state = message[1]
            detectors.update(
                _build_detectors(
                    [spec],
                    history_limit,
                    {spec.name: state} if state is not None else None,
                )
            )
            conn.send(("adopted", spec.name))
        elif kind == "forget":
            detectors.pop(message[1], None)
            conn.send(("forgotten", message[1]))
        elif kind == "persist":
            conn.send(
                (
                    "persist_states",
                    {
                        name: detectors[name].to_state(healthy_matrices=False)
                        for name in message[1]
                    },
                )
            )
        elif kind == "crash":
            # Test hook: die the way a segfault would — no cleanup, no reply.
            os._exit(13)
        elif kind == "stop":
            snapshot = obs.get_registry().snapshot()
            spans = {k: v for k, v in snapshot.items() if k.startswith("span.")}
            conn.send(("stopped", spans))
            conn.close()
            if reader is not None:
                reader.close()
            return
        else:  # pragma: no cover - protocol guard
            conn.send(("error", f"unknown command {kind!r}"))


class _WorkerHandle:
    """Parent-side state for one worker process."""

    def __init__(
        self,
        worker_id: str,
        specs: List[UnitSpec],
        history_limit: Optional[int],
        ctx,
        transport_factory: Callable[[], Any],
        states: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.worker_id = worker_id
        self.specs = specs
        self.history_limit = history_limit
        self._ctx = ctx
        self._transport_factory = transport_factory
        self.restarts = 0
        self._states = states
        #: Absolute sequence number of the next tick each unit's *current*
        #: detector incarnation maps to its local tick 0.  A detector
        #: restored from durable state already lives on the absolute axis,
        #: so its offset stays 0 while that incarnation lives.
        self.offsets: Dict[str, int] = {spec.name: 0 for spec in specs}
        #: Absolute ticks dispatched per unit, across incarnations.  Units
        #: resuming from durable state start at the state's next tick so a
        #: later crash re-anchors its fresh detector at the right spot.
        self.ticks_sent: Dict[str, int] = {
            spec.name: (
                state_next_tick(states[spec.name])
                if states and spec.name in states
                else 0
            )
            for spec in specs
        }
        self.process = None
        self.conn = None
        self.transport = transport_factory()
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.specs,
                self.history_limit,
                self._states,
                self.transport.worker_init(),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def restart(self) -> None:
        """Respawn after a crash; detectors restart fresh from the next tick."""
        if self.conn is not None:
            self.conn.close()
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.restarts += 1
        # Recovered states belonged to the dead incarnation's startup; the
        # replacement builds fresh detectors that count from local zero.
        # The transport's buffers died with their consumer too: cursors in
        # a shared ring are owned by one incarnation, so the replacement
        # gets a fresh ring rather than inheriting half-consumed slots.
        self._states = None
        for unit in self.offsets:
            self.offsets[unit] = self.ticks_sent[unit]
        self.transport.dispose()
        self.transport = self._transport_factory()
        self._spawn()

    def request(self, message: tuple, timeout: float = 300.0):
        """Send one command and wait for its reply, detecting death."""
        self.conn.send(message)
        deadline = timeout
        while not self.conn.poll(0.05):
            deadline -= 0.05
            if deadline <= 0:
                raise WorkerDied("worker stopped responding")
            if not self.process.is_alive() and not self.conn.poll(0.0):
                raise EOFError("worker process died")
        return self.conn.recv()

    def dispose(self) -> None:
        self.transport.dispose()


class _DispatchSession:
    """One worker's in-flight share of a dispatch round.

    Wraps the transport's ``encode`` generator so the pool can multiplex
    many workers: :meth:`step` makes at most one unit of progress (send a
    message, bank a reply, or report a stall) and never blocks, which is
    what lets every shard compute concurrently while the parent
    round-robins the sessions.
    """

    def __init__(self, handle: _WorkerHandle, payload):
        self.handle = handle
        self.payload = payload
        self.replies: List[Tuple[str, List[Tuple[str, list]]]] = []
        self.sent = 0
        self._gen = handle.transport.encode(
            payload, _DISPATCH_TIMEOUT_SECONDS, self._drain
        )
        self._exhausted = False
        self._deadline = time.monotonic() + _DISPATCH_TIMEOUT_SECONDS

    def _drain(self) -> bool:
        """Bank one ready reply; tell the transport whether we got one."""
        if self.handle.conn.poll(0.0):
            self._take_reply()
            return True
        if not self.handle.process.is_alive() and not self.handle.conn.poll(0.0):
            raise EOFError("worker process died")
        return False

    def _take_reply(self) -> None:
        reply = self.handle.conn.recv()
        if reply[0] != "results":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected worker reply {reply[0]!r}")
        self.replies.append(reply)

    def step(self) -> str:
        """Advance a little: returns ``"sent"``, ``"wait"`` or ``"done"``."""
        progressed = False
        while self.handle.conn.poll(0.0):
            self._take_reply()
            progressed = True
        if not self._exhausted:
            try:
                message = next(self._gen)
            except StopIteration:
                self._exhausted = True
            else:
                if message is not None:
                    self.handle.conn.send(message)
                    self.sent += 1
                    self._deadline = time.monotonic() + _DISPATCH_TIMEOUT_SECONDS
                    return "sent"
        if self._exhausted and len(self.replies) >= self.sent:
            return "done"
        if progressed:
            self._deadline = time.monotonic() + _DISPATCH_TIMEOUT_SECONDS
            return "sent"
        if not self.handle.process.is_alive() and not self.handle.conn.poll(0.0):
            raise EOFError("worker process died")
        if time.monotonic() > self._deadline:
            raise WorkerDied("worker stopped responding")
        return "wait"

    def unit_results(self):
        """Per-unit results in arrival order (chunks already ordered)."""
        for _, entries in self.replies:
            for unit, results in entries:
                yield unit, results


class ProcessWorkerPool:
    """Consistent-hash sharded ``multiprocessing`` pool with crash-restart.

    Parameters
    ----------
    specs:
        One :class:`UnitSpec` per unit, in fleet order.
    n_workers:
        Worker processes; capped at the unit count.
    history_limit:
        Forwarded to every worker-side detector (small by default via
        :class:`~repro.service.config.ServiceConfig` — the parent collects
        results each dispatch, workers don't need to hoard them).
    max_restarts:
        Per-worker crash budget before :class:`WorkerDied` is raised.
    transport:
        ``"pickle"`` (default) or ``"shm"`` — how dispatched tick blocks
        reach the workers (see :mod:`repro.service.transport`).
    ring_ticks:
        Shared-memory ring capacity per worker, in tick slots (``shm``
        only).

    Notes
    -----
    Worker identifiers (``w0``, ``w1``, …) are allocated monotonically and
    never reused: a crash-restarted process keeps its identity (same
    shard, re-anchored detectors), while :meth:`add_worker` mints a new
    identity whose ring arcs pull an expected ``units/n`` of the fleet.
    """

    def __init__(
        self,
        specs: Sequence[UnitSpec],
        n_workers: int,
        history_limit: Optional[int] = 8,
        max_restarts: int = 2,
        states: Optional[Dict[str, Dict[str, Any]]] = None,
        transport: str = "pickle",
        ring_ticks: int = 1024,
    ):
        if not specs:
            raise ValueError("the pool needs at least one unit")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.max_restarts = max_restarts
        self.ticks_lost = 0
        self.transport_name = transport
        self._history_limit = history_limit
        self._unit_order = [spec.name for spec in specs]
        stride = max(
            spec.n_databases * spec.config.n_kpis for spec in specs
        )
        self._transport_factory = lambda: make_transport(
            transport, ring_ticks=ring_ticks, stride=stride
        )
        self._worker_seq = min(n_workers, len(specs))
        self._ring = HashRing([f"w{k}" for k in range(self._worker_seq)])
        self._owner: Dict[str, str] = self._ring.assign_many(self._unit_order)
        self._retired_restarts = 0
        by_name = {spec.name: spec for spec in specs}
        self._handles: Dict[str, _WorkerHandle] = {}
        for worker_id, shard in self._ring.shards(self._unit_order).items():
            shard_states = (
                {name: states[name] for name in shard if name in states}
                if states
                else None
            )
            self._handles[worker_id] = _WorkerHandle(
                worker_id,
                [by_name[name] for name in shard],
                history_limit,
                ctx,
                transport_factory=self._transport_factory,
                states=shard_states or None,
            )

    @property
    def n_workers(self) -> int:
        return len(self._handles)

    @property
    def restarts(self) -> int:
        return (
            sum(handle.restarts for handle in self._handles.values())
            + self._retired_restarts
        )

    def worker_ids(self) -> Tuple[str, ...]:
        return tuple(self._handles)

    def shard_of(self, unit: str) -> str:
        return self._owner[unit]

    def shard_map(self) -> Dict[str, List[str]]:
        """Worker id -> owned units (fleet order), every worker present."""
        shards: Dict[str, List[str]] = {wid: [] for wid in self._handles}
        for unit in self._unit_order:
            shards[self._owner[unit]].append(unit)
        return shards

    def _fail_worker(self, worker_id: str, payload) -> None:
        """Crash accounting + restart (within budget) for one worker.

        The whole in-flight payload counts as lost — partially computed
        replies are discarded rather than guessed at — which matches the
        'never silently replayed' contract of the original pool.
        """
        handle = self._handles[worker_id]
        self.ticks_lost += sum(len(block) for _, block in payload)
        for unit, block in payload:
            handle.ticks_sent[unit] += len(block)
        if handle.restarts >= self.max_restarts:
            raise WorkerDied(
                f"worker {worker_id} exceeded its restart budget "
                f"({self.max_restarts})"
            )
        handle.restart()

    def dispatch(
        self, batches: Dict[str, np.ndarray]
    ) -> Dict[str, List[UnitDetectionResult]]:
        """Fan the batches out to their owners and multiplex the round-trips.

        All owning workers are kept busy concurrently: the parent
        round-robins the per-worker sessions, sending transport messages
        and banking replies as each becomes ready, sleeping only when
        every session is stalled.  A worker that dies mid-dispatch is
        restarted (within budget); its batches count as lost ticks and
        simply produce no results this round — the caller's loss
        accounting, not an exception, reports it.  A worker whose
        transport stays saturated past the dispatch timeout surfaces as
        :class:`~repro.service.queues.QueueFull` backpressure.
        """
        per_worker: Dict[str, List[Tuple[str, np.ndarray]]] = {}
        for unit, block in batches.items():
            per_worker.setdefault(self._owner[unit], []).append((unit, block))
        results: Dict[str, List[UnitDetectionResult]] = {
            unit: [] for unit in batches
        }
        sessions = {
            worker_id: _DispatchSession(self._handles[worker_id], payload)
            for worker_id, payload in per_worker.items()
        }
        active = list(sessions)
        failed: List[str] = []
        while active:
            progressed = False
            for worker_id in list(active):
                try:
                    state = sessions[worker_id].step()
                except _WORKER_FAILURES + (WorkerDied,):
                    active.remove(worker_id)
                    failed.append(worker_id)
                    continue
                if state == "done":
                    active.remove(worker_id)
                    progressed = True
                elif state == "sent":
                    progressed = True
            if active and not progressed:
                time.sleep(_IDLE_SLEEP_SECONDS)
        for worker_id in failed:
            self._fail_worker(worker_id, sessions[worker_id].payload)
        for worker_id, session in sessions.items():
            if worker_id in failed:
                continue
            handle = self._handles[worker_id]
            for unit, block in session.payload:
                handle.ticks_sent[unit] += len(block)
            for unit, unit_results in session.unit_results():
                offset = handle.offsets[unit]
                results[unit].extend(
                    _shift_result(result, offset) for result in unit_results
                )
        return results

    def install_config(self, unit: str, config: DBCatcherConfig) -> None:
        """Hot-swap one unit's thresholds between rounds.

        The owning worker's spec is updated *before* the message goes out,
        so a crash-restart at any point rebuilds the detector with the
        tuned thresholds rather than the stale ones.  A worker that dies
        during the swap is restarted (within budget) and the fresh
        incarnation picks the new config up from the spec.
        """
        worker_id = self._owner[unit]
        handle = self._handles[worker_id]
        handle.specs = [
            dataclasses.replace(spec, config=config)
            if spec.name == unit
            else spec
            for spec in handle.specs
        ]
        try:
            reply = handle.request(("config", (unit, config)))
        except _WORKER_FAILURES + (WorkerDied,):
            if handle.restarts >= self.max_restarts:
                raise WorkerDied(
                    f"worker {worker_id} exceeded its restart budget "
                    f"({self.max_restarts})"
                )
            handle.restart()
            return
        if reply[0] != "config_installed":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected worker reply {reply[0]!r}")

    def export_persist_states(
        self, units: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Durable detector states, re-anchored to the absolute tick axis.

        A worker that died and restarted counts ticks from its restart
        point, so its exported states are shifted by the unit's known
        offset before they reach disk.  A worker that dies *during* the
        export simply contributes nothing this time; the scheduler
        snapshots it on a later round.
        """
        names = list(self._owner) if units is None else list(units)
        per_worker: Dict[str, List[str]] = {}
        for name in names:
            per_worker.setdefault(self._owner[name], []).append(name)
        states: Dict[str, Dict[str, Any]] = {}
        for worker_id, shard in per_worker.items():
            handle = self._handles[worker_id]
            try:
                reply = handle.request(("persist", shard))
            except _WORKER_FAILURES + (WorkerDied,):
                continue
            if reply[0] != "persist_states":  # pragma: no cover - guard
                raise RuntimeError(f"unexpected worker reply {reply[0]!r}")
            for unit, state in reply[1].items():
                states[unit] = shift_state(state, handle.offsets[unit])
        return states

    def _detach(self, unit: str, notify: bool = True) -> Tuple[UnitSpec, int]:
        """Remove ``unit`` from its owner; return (live spec, ticks sent).

        The spec comes from the owner's handle so tuned thresholds
        installed since construction migrate with the unit.
        """
        handle = self._handles[self._owner[unit]]
        spec = next(s for s in handle.specs if s.name == unit)
        sent = handle.ticks_sent.pop(unit)
        handle.offsets.pop(unit)
        handle.specs = [s for s in handle.specs if s.name != unit]
        if notify:
            try:
                handle.request(("forget", unit))
            except _WORKER_FAILURES + (WorkerDied,):
                pass  # dead; the crash path rebuilds from specs anyway
        return spec, sent

    def _attach(
        self,
        worker_id: str,
        spec: UnitSpec,
        state: Optional[Dict[str, Any]],
        fallback_sent: int,
    ) -> None:
        """Hand ``unit`` to ``worker_id``, warm from ``state`` if given.

        With a migrated state the detector resumes on the absolute tick
        axis (offset 0); without one it starts cold at the stream
        position the old owner had reached, exactly like a crash-restart.
        """
        handle = self._handles[worker_id]
        handle.specs = [*handle.specs, spec]
        if state is not None:
            handle.offsets[spec.name] = 0
            handle.ticks_sent[spec.name] = state_next_tick(state)
        else:
            handle.offsets[spec.name] = fallback_sent
            handle.ticks_sent[spec.name] = fallback_sent
        try:
            reply = handle.request(("adopt", (spec, state)))
        except _WORKER_FAILURES + (WorkerDied,):
            if handle.restarts >= self.max_restarts:
                raise WorkerDied(
                    f"worker {worker_id} exceeded its restart budget "
                    f"({self.max_restarts})"
                )
            handle.restart()
            return
        if reply[0] != "adopted":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected worker reply {reply[0]!r}")

    def add_worker(self) -> str:
        """Scale out: join a fresh worker, migrating only the units whose
        ring arcs it takes over.

        The moving units carry their detector state (exported absolute,
        re-imported warm), so their verdict history continues exactly
        where the old owner left it.  Returns the new worker id.
        """
        worker_id = f"w{self._worker_seq}"
        self._worker_seq += 1
        ring = self._ring.with_worker(worker_id)
        new_owner = ring.assign_many(self._unit_order)
        moved = [u for u in self._unit_order if new_owner[u] != self._owner[u]]
        migrated = self.export_persist_states(moved) if moved else {}
        detached = {unit: self._detach(unit) for unit in moved}
        spawn_units = [u for u in moved if new_owner[u] == worker_id]
        spawn_states = {
            unit: migrated[unit] for unit in spawn_units if unit in migrated
        }
        handle = _WorkerHandle(
            worker_id,
            [detached[unit][0] for unit in spawn_units],
            self._history_limit,
            self._ctx,
            transport_factory=self._transport_factory,
            states=spawn_states or None,
        )
        for unit in spawn_units:
            if unit not in migrated:
                # Cold adopt (the exporter was dead): the fresh detector
                # counts from local zero at the old stream position.
                handle.offsets[unit] = detached[unit][1]
                handle.ticks_sent[unit] = detached[unit][1]
        self._handles[worker_id] = handle
        self._ring = ring
        self._owner = new_owner
        for unit in moved:
            if new_owner[unit] != worker_id:
                # Bounded-load capacity shifts can shuffle a unit between
                # surviving workers; hand it over live.
                self._attach(
                    new_owner[unit],
                    detached[unit][0],
                    migrated.get(unit),
                    detached[unit][1],
                )
        return worker_id

    def retire_worker(
        self,
        worker_id: str,
        states: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        """Scale in (or bury a dead worker): spill its units onto the ring.

        A live worker exports its units' states before leaving, so they
        resume warm elsewhere.  For a dead worker, pass ``states``
        (absolute-axis payloads, e.g. from the persistence store) to
        resume warm from the last snapshot; units with no state at all
        restart cold at their stream position, like a crash-restart.
        """
        if worker_id not in self._handles:
            raise ValueError(f"unknown worker {worker_id!r}")
        if len(self._handles) == 1:
            raise ValueError("cannot retire the last worker")
        ring = self._ring.without_worker(worker_id)
        new_owner = ring.assign_many(self._unit_order)
        moved = [u for u in self._unit_order if new_owner[u] != self._owner[u]]
        handle = self._handles[worker_id]
        migrated = self.export_persist_states(moved) if moved else {}
        if states:
            for unit in moved:
                if unit not in migrated and unit in states:
                    migrated[unit] = states[unit]
        detached = {
            unit: self._detach(unit, notify=self._owner[unit] != worker_id)
            for unit in moved
        }
        self._stop_handle(handle)
        self._retired_restarts += handle.restarts
        del self._handles[worker_id]
        self._ring = ring
        self._owner = new_owner
        for unit in moved:
            self._attach(
                new_owner[unit],
                detached[unit][0],
                migrated.get(unit),
                detached[unit][1],
            )

    def crash_worker(self, unit: str) -> None:
        """Test hook: make the worker owning ``unit`` die like a segfault."""
        handle = self._handles[self._owner[unit]]
        try:
            handle.conn.send(("crash",))
        except (OSError, BrokenPipeError):  # pragma: no cover - already dead
            pass
        handle.process.join(timeout=5.0)

    def _stop_handle(self, handle: _WorkerHandle) -> None:
        """Gracefully stop one worker: collect its spans, join, dispose."""
        try:
            reply = handle.request(("stop",), timeout=30.0)
            if reply[0] == "stopped":
                registry = obs.get_registry()
                for name, spans in reply[1].items():
                    registry.histogram(name, bounds=SPAN_BUCKETS).merge(spans)
        except _WORKER_FAILURES + (WorkerDied,):
            pass
        if handle.process is not None:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - safety net
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        if handle.conn is not None:
            handle.conn.close()
        handle.dispose()

    def stop(self) -> None:
        """Graceful shutdown: collect spans, join, terminate stragglers."""
        for handle in self._handles.values():
            self._stop_handle(handle)


def make_pool(
    specs: Sequence[UnitSpec],
    config: Optional[ServiceConfig] = None,
    states: Optional[Dict[str, Dict[str, Any]]] = None,
):
    """Build the pool the service config asks for (the one construction
    surface: serial fallback, worker count, transport, restart budget).

    ``states`` maps unit names to recovered durable detector states
    (absolute tick axis); covered units resume warm instead of cold.
    """
    cfg = config if config is not None else ServiceConfig()
    if cfg.n_workers <= 0:
        return SerialWorkerPool(
            specs, history_limit=cfg.history_limit, states=states
        )
    return ProcessWorkerPool(
        specs,
        n_workers=cfg.n_workers,
        history_limit=cfg.history_limit,
        max_restarts=cfg.max_worker_restarts,
        states=states,
        transport=cfg.transport,
        ring_ticks=cfg.transport_ring_ticks,
    )
