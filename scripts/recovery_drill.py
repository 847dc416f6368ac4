#!/usr/bin/env python
"""CI recovery drill: SIGKILL a serving process mid-run, restart, compare.

The drill is the executable form of the durability contract in
``repro.persist``: a detection service killed at an arbitrary moment and
restarted from its ``--state-dir`` must end with exactly the verdict
history an uninterrupted run produces.

Three phases, all driven from this one script:

1. *Reference*: a victim subprocess serves a saved dataset to completion
   into ``reference-state/``.
2. *Kill*: a second victim serves the same dataset into ``drill-state/``,
   throttled so the run takes a few seconds; the parent polls the WAL on
   disk and delivers ``SIGKILL`` once recorded progress crosses a
   mid-stream threshold — no cooperation, no cleanup, no flush.
3. *Resume*: a third victim restarts from ``drill-state/`` and runs the
   stream to completion, recovering snapshot + WAL and resuming
   mid-stream.

The drill then loads both state directories' verdict histories and
requires them identical: round spans and judgement records exactly,
correlation matrices (kept only for abnormal rounds) to 1e-9.  The
reference and resume victims also dump ``report.alerts``; the resumed
run's alerts (re-published from the WAL, then live) must equal the
reference's in order, field for field.

``--api`` runs the kill + resume phases over the network ingestion
plane instead of an in-process replay: the victim serves an
:class:`~repro.service.api.IngestServer` on an ephemeral port and
publishes its URL to a file; the parent pushes the dataset over HTTP
with :func:`~repro.service.api.push_dataset`, whose ``url_provider``
re-reads that file before every request.  SIGKILL takes out the server
mid-stream — admitted-but-unprocessed ticks die with the queue — and
the restarted victim binds a fresh port, rewrites the URL file, and the
pusher reconnects, re-registers, and replays from tick zero; stale
dedup on the serving side makes the replay idempotent.  The pusher
trickles ticks, so the served victims dispatch whenever the ingest queue
runs dry rather than every ``--batch-ticks`` ticks: batch boundaries
follow arrival timing, and the drill checks that the resumed victim
really dispatched more often than the cap alone would.  The reference
history stays in-process, so equivalence here pins transport, adaptive
dispatch *and* crash recovery in one sweep.

Exit status 0 on equivalence; 1 with a diff on any mismatch.  Run it
locally with::

    PYTHONPATH=src python scripts/recovery_drill.py --workdir /tmp/drill
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro.datasets import Dataset, build_unit_series, save_dataset  # noqa: E402
from repro.persist.store import UnitStore  # noqa: E402
from repro.presets import default_config  # noqa: E402

KILL_AT_TICK = 96  # deliver SIGKILL once any unit's WAL records this tick
POLL_SECONDS = 0.05
VICTIM_TIMEOUT = 180.0


class _Throttled:
    """Wrap a tick source, sleeping per event so the run spans wall time.

    Without the throttle the whole 240-tick replay finishes in well under
    a second and the parent cannot reliably land a kill mid-stream.
    """

    def __init__(self, source, delay_seconds: float):
        self._source = source
        self._delay = delay_seconds
        self.units = source.units
        self.kpi_names = source.kpi_names
        self.interval_seconds = getattr(source, "interval_seconds", 5.0)

    def __iter__(self):
        for event in self._source:
            time.sleep(self._delay)
            yield event


def _build_service(args: argparse.Namespace):
    from repro.service import DetectionService, ServiceConfig

    return DetectionService(
        default_config(),
        service_config=ServiceConfig(
            n_workers=args.jobs,
            batch_ticks=args.batch_ticks,
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every,
            transport=args.transport,
        ),
        sinks=(),
    )


def _run_victim(args: argparse.Namespace) -> int:
    """Child mode: serve the dataset into ``--state-dir`` and exit."""
    import faulthandler

    from repro.obs import runtime as obs

    # Diagnostics for a wedged victim: `kill -USR1 <pid>` dumps every
    # thread's stack to stderr without disturbing the run.
    faulthandler.register(signal.SIGUSR1)

    with obs.scoped() as registry:
        if args.url_file:
            report = _serve_api(args)
        else:
            from repro.service.sources import ReplaySource

            source = _Throttled(ReplaySource(args.dataset), args.throttle)
            report = _build_service(args).run(source, collect_results=False)
    dispatches = registry.snapshot().get(
        "span.dispatch.round.wall_seconds", {}
    ).get("count", 0)
    if args.alerts_out:
        tmp = args.alerts_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({
                "alerts": [alert.to_dict() for alert in report.alerts],
                "dispatches": dispatches,
                "ticks": report.ticks_ingested,
            }, handle)
        os.replace(tmp, args.alerts_out)
    print(f"victim done: {report.recovered_rounds} recovered rounds, "
          f"{len(report.alerts)} alerts, {dispatches} dispatches", flush=True)
    return 0


def _serve_api(args: argparse.Namespace):
    """Child mode over HTTP: bind a port, publish it, serve the stream.

    The URL file is written atomically *after* the listener is up, so
    the pusher never sees a URL it cannot connect to (only a stale one
    from a killed predecessor, which it retries past).
    """
    from repro.service.api import IngestServer, NetworkSource

    source = NetworkSource(
        capacity=256, handshake_timeout_seconds=VICTIM_TIMEOUT
    )
    service = _build_service(args)
    with IngestServer(source) as server:
        tmp = args.url_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(server.url + "\n")
        os.replace(tmp, args.url_file)
        return service.run(source, collect_results=False)


def _unit_dirs(state_dir: str) -> List[str]:
    if not os.path.isdir(state_dir):
        return []
    return sorted(
        name
        for name in os.listdir(state_dir)
        if os.path.isdir(os.path.join(state_dir, name))
    )


def _histories(state_dir: str) -> Dict[str, list]:
    # Unit directory names are already filesystem-safe, and _safe_name is
    # idempotent on them, so they address the stores directly.
    return {
        unit: UnitStore(state_dir, unit).load_history()
        for unit in _unit_dirs(state_dir)
    }


def _progress(state_dir: str) -> int:
    """Highest recorded round end across all units (0 when none)."""
    best = 0
    for history in _histories(state_dir).values():
        for result in history:
            best = max(best, result.end)
    return best


def _spawn_victim(
    dataset: str,
    state_dir: str,
    args: argparse.Namespace,
    url_file: str = "",
    alerts_out: str = "",
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Each victim leads its own process group so SIGKILL can take out the
    # whole service — scheduler *and* pool workers — in one shot, the way
    # an OOM killer or a node reboot would.  Killing only the main
    # process would orphan the workers, and orphans holding the
    # inherited stdout keep CI log capture open forever.
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--victim",
        "--dataset", dataset,
        "--state-dir", state_dir,
        "--jobs", str(args.jobs),
        "--batch-ticks", str(args.batch_ticks),
        "--snapshot-every", str(args.snapshot_every),
        "--throttle", str(args.throttle),
        "--transport", args.transport,
    ]
    if url_file:
        command += ["--url-file", url_file]
    if alerts_out:
        command += ["--alerts-out", alerts_out]
    return subprocess.Popen(command, env=env, start_new_session=True)


def _killpg(victim: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def _wait(proc: subprocess.Popen, what: str) -> None:
    code = proc.wait(timeout=VICTIM_TIMEOUT)
    if code != 0:
        raise SystemExit(f"{what} exited with status {code}")


def _compare(reference: Dict[str, list], drilled: Dict[str, list]) -> List[str]:
    problems: List[str] = []
    if sorted(reference) != sorted(drilled):
        problems.append(
            f"unit sets differ: reference={sorted(reference)} "
            f"drill={sorted(drilled)}"
        )
        return problems
    for unit in sorted(reference):
        want, got = reference[unit], drilled[unit]
        want_spans = [(r.start, r.end) for r in want]
        got_spans = [(r.start, r.end) for r in got]
        if want_spans != got_spans:
            problems.append(
                f"{unit}: round spans differ\n"
                f"  reference: {want_spans}\n  drill:     {got_spans}"
            )
            continue
        for w, g in zip(want, got):
            if w.records != g.records:
                problems.append(
                    f"{unit} round [{w.start},{w.end}): judgement records "
                    f"differ"
                )
            if w.matrices is not None and g.matrices is not None:
                for wm, gm in zip(w.matrices, g.matrices):
                    if wm.kpi != gm.kpi or not np.allclose(
                        wm.triangle, gm.triangle,
                        rtol=0.0, atol=1e-9, equal_nan=True,
                    ):
                        problems.append(
                            f"{unit} round [{w.start},{w.end}): matrix "
                            f"{wm.kpi} diverges beyond 1e-9"
                        )
    return problems


def _load_alerts(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _compare_alerts(reference: list, resumed: list) -> List[str]:
    """Alert sequences must match in order, field for field."""
    problems: List[str] = []
    if len(reference) != len(resumed):
        problems.append(
            f"alert counts differ: reference={len(reference)} "
            f"resumed={len(resumed)}"
        )
    for index, (want, got) in enumerate(zip(reference, resumed)):
        if want != got:
            problems.append(
                f"alert {index} differs\n  reference: {want}\n"
                f"  resumed:   {got}"
            )
            break
    return problems


def _start_pusher(
    dataset_path: str,
    url_file: str,
    args: argparse.Namespace,
    outcome: Dict[str, object],
) -> threading.Thread:
    """Push the dataset over HTTP from the parent, following the URL file.

    ``url_provider`` re-reads the file before every request, so after
    the kill the pusher's retries land on the restarted victim's fresh
    port as soon as it publishes one.  Reconnect budget and backoff are
    generous — the restart takes a few seconds and the parent's own
    timeout bounds the whole phase.
    """
    from repro.service.api import push_dataset

    def _url() -> str:
        deadline = time.monotonic() + VICTIM_TIMEOUT
        while time.monotonic() < deadline:
            try:
                with open(url_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
            except OSError:
                text = ""
            if text:
                return text
            time.sleep(POLL_SECONDS)
        raise RuntimeError("ingest URL file never appeared")

    def _push() -> None:
        try:
            outcome["stats"] = push_dataset(
                dataset_path,
                url_provider=_url,
                batch_ticks=args.batch_ticks,
                timeout_seconds=5.0,
                max_reconnects=100,
                backoff_seconds=0.1,
                backoff_cap_seconds=1.0,
                throttle_seconds=args.throttle,
            )
        except BaseException as exc:  # surfaced by the parent loop
            outcome["error"] = exc

    thread = threading.Thread(target=_push, daemon=True)
    thread.start()
    return thread


def _run_drill(args: argparse.Namespace) -> int:
    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)
    reference_state = os.path.join(workdir, "reference-state")
    drill_state = os.path.join(workdir, "drill-state")
    for path in (reference_state, drill_state):
        if os.path.exists(path):
            raise SystemExit(
                f"refusing to reuse existing state dir {path}; "
                f"pass a fresh --workdir"
            )

    dataset_path = os.path.join(workdir, "drill-dataset.npz")
    units = tuple(
        build_unit_series(
            profile="tencent",
            n_databases=5,
            n_ticks=args.ticks,
            seed=9100 + index,
            abnormal_ratio=0.08,
            name=f"drill-{index}",
        )
        for index in range(2)
    )
    save_dataset(Dataset(name="recovery-drill", units=units), dataset_path)

    reference_alerts = os.path.join(workdir, "reference-alerts.json")
    resumed_alerts = os.path.join(workdir, "resumed-alerts.json")
    print(f"[drill] reference run -> {reference_state}", flush=True)
    _wait(
        _spawn_victim(
            dataset_path, reference_state, args, alerts_out=reference_alerts
        ),
        "reference victim",
    )
    reference = _histories(reference_state)
    final_tick = max(r.end for h in reference.values() for r in h)
    if final_tick <= KILL_AT_TICK:
        raise SystemExit(
            f"reference run only reached tick {final_tick}; the kill "
            f"threshold {KILL_AT_TICK} would not land mid-stream"
        )

    url_file = os.path.join(workdir, "ingest-url") if args.api else ""
    pusher = None
    outcome: Dict[str, object] = {}
    if args.api:
        print(f"[drill] api victim run -> {drill_state} (kill at tick "
              f">={KILL_AT_TICK})", flush=True)
        victim = _spawn_victim(dataset_path, drill_state, args, url_file)
        pusher = _start_pusher(dataset_path, url_file, args, outcome)
    else:
        print(f"[drill] victim run -> {drill_state} (kill at tick "
              f">={KILL_AT_TICK})", flush=True)
        victim = _spawn_victim(dataset_path, drill_state, args)
    deadline = time.monotonic() + VICTIM_TIMEOUT
    try:
        while True:
            if victim.poll() is not None:
                raise SystemExit(
                    "victim finished before the kill landed; raise "
                    "--throttle so the run spans more wall time"
                )
            if "error" in outcome:
                raise SystemExit(f"pusher died early: {outcome['error']!r}")
            if _progress(drill_state) >= KILL_AT_TICK:
                break
            if time.monotonic() > deadline:
                raise SystemExit("timed out waiting for victim progress")
            time.sleep(POLL_SECONDS)
    except BaseException:
        if victim.poll() is None:
            _killpg(victim)
            victim.wait()
        raise
    _killpg(victim)
    code = victim.wait(timeout=VICTIM_TIMEOUT)
    print(f"[drill] victim killed (exit {code}) at recorded tick "
          f"{_progress(drill_state)}", flush=True)
    if code == 0:
        raise SystemExit("victim survived SIGKILL?")
    if _progress(drill_state) >= final_tick:
        raise SystemExit(
            "victim had already recorded the full stream when killed; "
            "the drill proved nothing — raise --throttle"
        )

    print(f"[drill] resume run <- {drill_state}", flush=True)
    resume = _spawn_victim(
        dataset_path, drill_state, args, url_file, alerts_out=resumed_alerts
    )
    _wait(resume, "resume victim")
    resumed = _load_alerts(resumed_alerts)
    if pusher is not None:
        pusher.join(timeout=VICTIM_TIMEOUT)
        if pusher.is_alive():
            raise SystemExit("pusher never finished")
        if "error" in outcome:
            raise SystemExit(f"pusher failed: {outcome['error']!r}")
        stats = outcome["stats"]
        if stats.reconnects < 1:
            raise SystemExit(
                "kill landed but the pusher never reconnected; the "
                "network path was not actually exercised"
            )
        print(f"[drill] pusher survived the kill: {stats.reconnects} "
              f"reconnects, {stats.posted} ticks posted, "
              f"{stats.stale} stale after replay-from-zero", flush=True)
        cap_dispatches = -(-resumed["ticks"] // args.batch_ticks)
        print(f"[drill] adaptive dispatch: {resumed['dispatches']} "
              f"dispatches for {resumed['ticks']} ticks (the cap alone "
              f"gives {cap_dispatches})", flush=True)
        if resumed["dispatches"] <= cap_dispatches:
            raise SystemExit(
                "the served victim never dispatched on an idle feed; "
                "adaptive dispatch was not exercised"
            )

    problems = _compare(reference, _histories(drill_state))
    problems += _compare_alerts(
        _load_alerts(reference_alerts)["alerts"], resumed["alerts"]
    )
    if problems:
        print("[drill] FAILED: restored history diverges", flush=True)
        for problem in problems:
            print(f"  - {problem}")
        return 1
    rounds = sum(len(h) for h in reference.values())
    print(f"[drill] PASS: {rounds} rounds and "
          f"{len(resumed['alerts'])} alerts identical across "
          f"{len(reference)} units after kill + warm restart", flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="drill-workdir",
                        help="scratch directory for dataset + state dirs")
    parser.add_argument("--jobs", type=int, default=2,
                        help="victim worker processes (0 = serial)")
    parser.add_argument("--batch-ticks", type=int, default=16)
    parser.add_argument("--transport", choices=("pickle", "shm"),
                        default="pickle",
                        help="worker tick transport the victim serves with")
    parser.add_argument("--snapshot-every", type=int, default=8)
    parser.add_argument("--ticks", type=int, default=240,
                        help="stream length per unit")
    parser.add_argument("--throttle", type=float, default=0.004,
                        help="seconds slept per tick event in the victim")
    parser.add_argument("--api", action="store_true",
                        help="run the kill + resume phases over the HTTP "
                             "ingestion plane (the reference run stays "
                             "in-process, so the comparison pins transport "
                             "and crash recovery together)")
    parser.add_argument("--victim", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dataset", help=argparse.SUPPRESS)
    parser.add_argument("--state-dir", help=argparse.SUPPRESS)
    parser.add_argument("--url-file", default="", help=argparse.SUPPRESS)
    parser.add_argument("--alerts-out", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.victim:
        return _run_victim(args)
    return _run_drill(args)


if __name__ == "__main__":
    raise SystemExit(main())
