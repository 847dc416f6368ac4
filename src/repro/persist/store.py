"""Durable per-unit state stores: snapshot + WAL + compaction archive.

On-disk layout under a state root::

    <root>/meta.json                     format marker + version
    <root>/coordinator.json              TuningCoordinator state (optional)
    <root>/<unit>/snapshot.json          latest atomic detector snapshot
    <root>/<unit>/wal-<seq>.jsonl        live WAL segments (post-snapshot)
    <root>/<unit>/archive-<seq>.jsonl    frozen (compacted) segments
    <root>/<unit>/archive.jsonl          rewrite-path compaction output

Lifecycle per unit: completed detection rounds are appended to the
current WAL segment as they happen — with the correlation matrices of
healthy rounds stripped up front (only abnormal rounds need their KCD
evidence for root-cause replay).  Every ``snapshot_every`` rounds the
scheduler writes an atomic snapshot, the WAL rotates to a fresh
segment, and older segments are *compacted*: a segment fully covered by
the snapshot cursor is frozen by a single rename to
``archive-<seq>.jsonl`` (no decode, no rewrite); a segment holding
rounds newer than the cursor — possible only after unusual crash
interleavings — takes the slow path, splitting archived rounds into
``archive.jsonl`` and carrying newer rounds into the live segment.

Recovery is ``load_snapshot()`` + ``load_tail()`` (rounds newer than
the snapshot, replayed through ``DBCatcher.apply_result``) and
``load_history()`` (the full verdict history: archive + segments,
deduplicated, for rebuilding alert/incident state).  Every read path is
torn-tail tolerant; a crash at *any* instruction boundary loses at most
the rounds whose group-commit never completed.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.detector import UnitDetectionResult
from repro.obs import runtime as obs
from repro.persist.codec import STATE_VERSION, decode_result, encode_result
from repro.persist.snapshot import SNAPSHOT_VERSION, atomic_write_json, read_json
from repro.persist.wal import WalWriter, read_segment

__all__ = ["FleetStateStore", "UnitStore"]

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.jsonl$")
_ARCHIVE_RE = re.compile(r"^archive-(\d{8})\.jsonl$")


def _safe_name(unit: str) -> str:
    """Filesystem-safe directory name for a unit."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", unit) or "_"


def _round_key(payload: Dict[str, Any]) -> Any:
    body = payload["round"]
    return (int(body["start"]), int(body["end"]))


def _is_abnormal(body: Dict[str, Any]) -> bool:
    return any(
        record["state"] == "abnormal" for record in body["records"].values()
    )


def _strip_result_body(body: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the correlation matrices of a *healthy* encoded round.

    Matrices are KCD evidence for root-cause replay; only abnormal rounds
    ever need them again, and they dominate the encoded size of a round,
    so healthy rounds shed them at every persistence boundary.
    """
    if body.get("matrices") is None or _is_abnormal(body):
        return body
    return {**body, "matrices": None, "active": None}


class UnitStore:
    """Snapshot + WAL persistence for one unit's detector.

    ``wal_sync`` picks the fsync discipline: ``"commit"`` (the default)
    fsyncs every group-commit append; ``"snapshot"`` never fsyncs the
    WAL — the atomic snapshot itself is the durability point.  Either
    way a *process* crash loses nothing (the page cache outlives the
    process); under ``"snapshot"`` a power loss can drop post-snapshot
    rounds, which recovery then re-derives live — the equivalence
    contract holds in both modes.
    """

    def __init__(self, root: str, unit: str, wal_sync: str = "commit"):
        if wal_sync not in ("commit", "snapshot"):
            raise ValueError(
                f"wal_sync must be 'commit' or 'snapshot', got {wal_sync!r}"
            )
        self.wal_sync = wal_sync
        self.unit = unit
        self.directory = os.path.join(os.path.abspath(root), _safe_name(unit))
        os.makedirs(self.directory, exist_ok=True)
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self.archive_path = os.path.join(self.directory, "archive.jsonl")
        self._writer: Optional[WalWriter] = None
        # A reopened store always appends to a fresh segment; mixing new
        # writes into a segment a crashed writer may have torn would put
        # good records after a tear, where readers never look.  Frozen
        # archive segments keep their sequence number, so they count too.
        used = self._segments() + self._archived_segments()
        self._segment_seq = (max(used) + 1) if used else 1
        # Highest round end appended to each live segment *by this
        # process*; lets compaction freeze a fully-covered segment with a
        # rename instead of a decode/rewrite pass.
        self._segment_max_end: Dict[int, int] = {}

    # -- segments ---------------------------------------------------------

    def _segments(self) -> List[int]:
        """Sequence numbers of existing WAL segments, ascending."""
        found = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:08d}.jsonl")

    def _archived_segments(self) -> List[int]:
        found = []
        for name in os.listdir(self.directory):
            match = _ARCHIVE_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _archived_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"archive-{seq:08d}.jsonl")

    def _current_writer(self) -> WalWriter:
        if self._writer is None:
            self._writer = WalWriter(
                self._segment_path(self._segment_seq),
                sync=self.wal_sync == "commit",
            )
        return self._writer

    # -- write path -------------------------------------------------------

    def append_rounds(
        self,
        results: Sequence[UnitDetectionResult],
        ordinals: Optional[Sequence[int]] = None,
    ) -> None:
        """Group-commit completed rounds to the current WAL segment.

        ``ordinals`` (one per round) records where in the run's tick
        stream each round completed; recovery re-publishes rounds in that
        order.  Records written without it replay by end tick.
        """
        if not results:
            return
        # Healthy rounds shed their KCD evidence here, before it is even
        # encoded; only abnormal rounds pay for matrix serialization.
        payloads = [
            {
                "v": STATE_VERSION,
                "type": "round",
                "round": encode_result(
                    r, include_matrices=bool(r.abnormal_databases)
                ),
            }
            for r in results
        ]
        if ordinals is not None:
            for payload, ordinal in zip(payloads, ordinals):
                payload["ordinal"] = int(ordinal)
        self._current_writer().append(payloads)
        newest = max(int(r.end) for r in results)
        seq = self._segment_seq
        self._segment_max_end[seq] = max(
            self._segment_max_end.get(seq, newest), newest
        )

    def write_snapshot(self, state: Dict[str, Any]) -> None:
        """Atomically snapshot, rotate the WAL, and compact old segments.

        The persisted state is trimmed: the stream buffer of not-yet-judged
        ticks is dropped (recovery resumes the source at the cursor and
        re-derives the open round deterministically) and healthy retained
        rounds lose their matrices, same as in the WAL.
        """
        with obs.span("persist.snapshot"):
            payload = {
                "version": SNAPSHOT_VERSION,
                "unit": self.unit,
                "state": self._trim_state(state),
            }
            written = atomic_write_json(self.snapshot_path, payload)
            self._rotate()
            self._compact(int(state["cursor"]))
        obs.counter("persist.snapshot_bytes").increment(written)

    def _rotate(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._segment_seq += 1

    def _compact(self, cursor: int) -> None:
        """Fold rounds the snapshot already covers into the archive.

        The common case is free: healthy-round matrices were already
        stripped at append time, so a segment whose every round predates
        the snapshot cursor is frozen by renaming it to its
        ``archive-<seq>.jsonl`` name — one directory operation, no decode.
        Segments written by an *earlier* process (whose round spans this
        one never saw) or holding rounds newer than the cursor take the
        slow path: archived rounds are rewritten into ``archive.jsonl``
        and newer rounds are carried forward into the live segment.
        A crash mid-compaction leaves at most duplicates on the slow
        path, which every reader deduplicates by round span.
        """
        old = [s for s in self._segments() if s < self._segment_seq]
        if not old:
            return
        archived: List[Dict[str, Any]] = []
        carried: List[Dict[str, Any]] = []
        rewritten: List[int] = []
        for seq in old:
            known_end = self._segment_max_end.pop(seq, None)
            if known_end is not None and known_end <= cursor:
                os.replace(self._segment_path(seq), self._archived_path(seq))
                continue
            payloads, _ = read_segment(self._segment_path(seq))
            rewritten.append(seq)
            for payload in payloads:
                if payload.get("type") != "round":
                    continue
                if int(payload["round"]["end"]) <= cursor:
                    archived.append(self._strip(payload))
                else:
                    carried.append(payload)
        if archived:
            with WalWriter(
                self.archive_path, sync=self.wal_sync == "commit"
            ) as archive:
                archive.append(archived)
        if carried:
            self._current_writer().append(carried)
        for seq in rewritten:
            os.unlink(self._segment_path(seq))

    @staticmethod
    def _strip(payload: Dict[str, Any]) -> Dict[str, Any]:
        body = payload["round"]
        stripped_body = _strip_result_body(body)
        if stripped_body is body:
            return payload
        return {**payload, "round": stripped_body}

    @staticmethod
    def _trim_state(state: Dict[str, Any]) -> Dict[str, Any]:
        cursor = int(state["cursor"])
        return {
            **state,
            "streams": {"base": cursor, "ticks": []},
            "results": [
                _strip_result_body(body) for body in state["results"]
            ],
        }

    # -- read path --------------------------------------------------------

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The latest detector state snapshot, or ``None``."""
        payload = read_json(self.snapshot_path)
        if payload is None:
            return None
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot {self.snapshot_path} has unsupported version "
                f"{payload.get('version')!r}"
            )
        state = payload["state"]
        if not isinstance(state, dict):
            raise ValueError(f"snapshot {self.snapshot_path} has no state")
        return state

    def _read_rounds(self, paths: Sequence[str]) -> List[Dict[str, Any]]:
        seen = set()
        rounds: List[Dict[str, Any]] = []
        for path in paths:
            payloads, _ = read_segment(path)
            for payload in payloads:
                if payload.get("type") != "round":
                    continue
                key = _round_key(payload)
                if key in seen:
                    continue
                seen.add(key)
                rounds.append(payload)
        rounds.sort(key=_round_key)
        return rounds

    def load_tail(self) -> List[UnitDetectionResult]:
        """Rounds in live WAL segments (newer than the last snapshot)."""
        paths = [self._segment_path(s) for s in self._segments()]
        return [decode_result(p["round"]) for p in self._read_rounds(paths)]

    def load_history(self) -> List[UnitDetectionResult]:
        """The full recorded verdict history: archives + live segments."""
        return [result for _, result in self.load_ordered_history()]

    def load_ordered_history(
        self,
    ) -> List[Tuple[Optional[int], UnitDetectionResult]]:
        """:meth:`load_history` with each round's stream ordinal.

        The ordinal is ``None`` for records written before rounds
        carried one.
        """
        paths = (
            [self.archive_path]
            + [self._archived_path(s) for s in self._archived_segments()]
            + [self._segment_path(s) for s in self._segments()]
        )
        return [
            (p.get("ordinal"), decode_result(p["round"]))
            for p in self._read_rounds(paths)
        ]

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class FleetStateStore:
    """A directory of :class:`UnitStore` plus fleet-level state."""

    META_VERSION = 1

    def __init__(
        self, root: str, snapshot_every: int = 8, wal_sync: str = "commit"
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        self.root = os.path.abspath(root)
        self.snapshot_every = snapshot_every
        self.wal_sync = wal_sync
        os.makedirs(self.root, exist_ok=True)
        self._meta_path = os.path.join(self.root, "meta.json")
        self._coordinator_path = os.path.join(self.root, "coordinator.json")
        meta = read_json(self._meta_path)
        if meta is None:
            atomic_write_json(
                self._meta_path,
                {"version": self.META_VERSION, "format": "dbcatcher-persist"},
            )
        elif meta.get("version") != self.META_VERSION:
            raise ValueError(
                f"state dir {self.root} has unsupported meta version "
                f"{meta.get('version')!r}"
            )
        self._units: Dict[str, UnitStore] = {}

    def unit_store(self, unit: str) -> UnitStore:
        store = self._units.get(unit)
        if store is None:
            store = UnitStore(self.root, unit, wal_sync=self.wal_sync)
            self._units[unit] = store
        return store

    def unit_names(self) -> List[str]:
        """Unit directories present on disk (their filesystem-safe names)."""
        return sorted(
            name
            for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
        )

    def save_coordinator(self, state: Dict[str, Any]) -> None:
        atomic_write_json(
            self._coordinator_path,
            {"version": SNAPSHOT_VERSION, "state": state},
        )

    def load_coordinator(self) -> Optional[Dict[str, Any]]:
        payload = read_json(self._coordinator_path)
        if payload is None:
            return None
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"{self._coordinator_path} has unsupported version "
                f"{payload.get('version')!r}"
            )
        state = payload["state"]
        return state if isinstance(state, dict) else None

    def close(self) -> None:
        for store in self._units.values():
            store.close()
