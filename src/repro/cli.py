"""Command-line interface: ``python -m repro <command>``.

Four commands cover the library's everyday entry points without writing
code:

* ``simulate`` — build a labelled unit/dataset and save it as ``.npz``;
* ``detect``   — run DBCatcher over a saved dataset and print verdicts
  plus detection scores (``--jobs N`` fans the fleet out over worker
  processes);
* ``serve``    — run the online multi-unit detection service over a saved
  dataset replay, a live simulated fleet, or — with ``--ingest-port`` —
  ticks POSTed over HTTP by external collectors, with alert sinks and a
  metrics summary;
* ``push``     — the collector side: replay a saved dataset over HTTP
  against a running ``serve --ingest-port`` endpoint, honouring
  backpressure and reconnecting across service restarts;
* ``chaos``    — replay a fault-injection scenario (preset or JSON file)
  against the service and report the detection-quality delta versus the
  clean run;
* ``obs``      — run one instrumented detection pass and emit the
  observability exposition (Prometheus text or JSON), including the
  per-stage span histograms;
* ``rca``      — replay a recorded run (saved dataset or alert JSONL)
  into a ranked root-cause report: culprit databases/KPIs per incident,
  severities and lifecycle, without the live service; ``--accuracy``
  instead runs the chaos-based attribution precision harness;
* ``tune``     — learn detection thresholds over a saved labelled
  dataset with the genetic searcher (vectorized objective, ``--jobs``
  workers each owning a shard of the units, ``--checkpoint``/``--resume``
  for long runs);
* ``info``     — show the KPI registry, the default detector
  configuration and the service defaults.

``serve`` additionally accepts ``--obs-port`` (live ``/metrics`` endpoint
while the service runs) and ``--obs-snapshot PATH`` (write the final
exposition to a file; JSON when the path ends in ``.json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.cluster.kpis import KPI_REGISTRY
from repro.eval.adjust import adjusted_confusion_from_records
from repro.eval.metrics import scores_from_confusion
from repro.eval.tables import render_table
from repro.presets import default_config

__all__ = ["main", "build_parser"]


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    """Detector flags shared by detect / serve / chaos / obs.

    Each flag is the kebab-case spelling of the
    :class:`~repro.core.config.DBCatcherConfig` field it sets, so the CLI
    surface stays derivable from the config dataclass.
    """
    from repro.core.config import BACKENDS

    parser.add_argument("--initial-window", type=int, default=20,
                        help="initial observation window W, in ticks")
    parser.add_argument("--max-window", type=int, default=60,
                        help="expansion ceiling W_M, in ticks")
    parser.add_argument("--backend", choices=BACKENDS, default="batched",
                        help="KCD compute engine (DBCatcherConfig.backend)")


def _service_flags() -> Dict[str, Tuple[str, dict]]:
    """Service flags shared by detect / serve / chaos, each declared once.

    Maps a flag to the :class:`~repro.service.config.ServiceConfig`
    field it sets and its argparse keywords; every flag stores into that
    field and defaults to the field's default.
    """
    from repro.service.config import TRANSPORTS, ServiceConfig

    flags: Dict[str, Tuple[str, dict]] = {
        "--jobs": ("n_workers", dict(
            type=int, metavar="N",
            help="worker processes (0 = serial in-process; verdicts are "
                 "identical either way)",
        )),
        "--transport": ("transport", dict(
            choices=TRANSPORTS,
            help="how tick blocks reach the workers: pickled pipe messages "
                 "or shared-memory rings (verdicts are identical either way)",
        )),
        "--state-dir": ("state_dir", dict(
            metavar="DIR",
            help="durable-state directory (snapshots + WAL); rerunning with "
                 "the same directory resumes warm from the last durable round",
        )),
        "--snapshot-every": ("snapshot_every", dict(
            type=int, metavar="ROUNDS",
            help="completed rounds per unit between snapshots "
                 "(with --state-dir)",
        )),
    }
    defaults = ServiceConfig()
    for field, kwargs in flags.values():
        kwargs.update(dest=field, default=getattr(defaults, field))
    return flags


def _add_service_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Opt a subcommand into some of the shared service flags."""
    specs = _service_flags()
    for flag in flags:
        parser.add_argument(flag, **specs[flag][1])


def _service_config(args, **fields):
    """The ServiceConfig a subcommand's shared service flags describe.

    ``fields`` adds settings the subcommand declares itself.
    """
    from repro.service.config import ServiceConfig

    for field, _ in _service_flags().values():
        if hasattr(args, field):
            fields[field] = getattr(args, field)
    return ServiceConfig(**fields)


def build_parser() -> argparse.ArgumentParser:
    from repro.service.config import ServiceConfig

    service_defaults = ServiceConfig()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBCatcher reproduction: simulate, detect, inspect.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="build a labelled dataset and save it as .npz"
    )
    simulate.add_argument("output", help="path of the .npz archive to write")
    simulate.add_argument(
        "--family", choices=("tencent", "sysbench", "tpcc"), default="tencent"
    )
    simulate.add_argument("--units", type=int, default=4)
    simulate.add_argument("--ticks", type=int, default=800)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--abnormal-ratio", type=float, default=0.04,
        help="target fraction of abnormal (database, tick) points",
    )

    detect = commands.add_parser(
        "detect", help="run DBCatcher over a saved dataset"
    )
    detect.add_argument("dataset", help="path of a .npz archive from `simulate`")
    _add_detector_flags(detect)
    detect.add_argument(
        "--alpha", type=float, default=None,
        help="uniform correlation threshold (default: paper mid-range)",
    )
    _add_service_flags(
        detect, "--jobs", "--transport", "--state-dir", "--snapshot-every"
    )
    detect.add_argument(
        "--quiet", action="store_true",
        help="print only the summary scores, not per-round verdicts",
    )

    serve = commands.add_parser(
        "serve", help="run the online multi-unit detection service"
    )
    serve.add_argument(
        "dataset", nargs="?", default=None,
        help="path of a .npz archive to replay (omit with --live)",
    )
    serve.add_argument(
        "--live", action="store_true",
        help="feed the service from live simulated units through the "
             "bypass monitor instead of a saved dataset",
    )
    serve.add_argument("--family", choices=("tencent", "sysbench", "tpcc"),
                       default="tencent", help="workload family for --live")
    serve.add_argument("--units", type=int, default=4,
                       help="fleet size for --live")
    serve.add_argument("--databases", type=int, default=5,
                       help="databases per unit for --live")
    serve.add_argument("--ticks", type=int, default=400,
                       help="ticks per unit for --live")
    serve.add_argument("--seed", type=int, default=0, help="seed for --live")
    _add_service_flags(
        serve, "--jobs", "--transport", "--state-dir", "--snapshot-every"
    )
    serve.add_argument("--batch-ticks", type=int,
                       default=service_defaults.batch_ticks,
                       help="cap on ticks buffered per unit per worker "
                            "round-trip; a network feed also dispatches "
                            "whenever it goes idle")
    serve.add_argument("--queue-capacity", type=int,
                       default=service_defaults.queue_capacity,
                       help="per-unit ingest queue bound, in ticks")
    serve.add_argument("--backpressure", choices=("block", "drop-oldest"),
                       default=service_defaults.backpressure.replace("_", "-"),
                       help="what a full ingest queue does to the producer")
    serve.add_argument("--sink", action="append", default=None,
                       metavar="SPEC",
                       help="alert sink: stdout, null, or jsonl:<path> "
                            "(repeatable; default stdout)")
    serve.add_argument("--max-ticks", type=int, default=None,
                       help="stop after this many ticks per unit")
    serve.add_argument("--log-scenario", default=None, metavar="NAME",
                       help="replay a KPI-blind log scenario preset "
                            "(error-burst, replication-lag, noisy-neighbor) "
                            "instead of a dataset, running the log-frequency "
                            "channel alongside correlation detection and "
                            "fusing the verdicts (provenance-tagged alerts)")
    _add_detector_flags(serve)
    serve.add_argument("--history-limit", type=int,
                       default=service_defaults.history_limit,
                       metavar="ROUNDS",
                       help="completed rounds each worker detector retains "
                            "(default: the service's bounded-memory default)")
    serve.add_argument("--obs-port", type=int, default=None, metavar="PORT",
                       help="serve /metrics and /metrics.json on this port "
                            "while the service runs (0 = any free port)")
    serve.add_argument("--obs-snapshot", default=None, metavar="PATH",
                       help="write the final observability exposition here "
                            "(JSON when PATH ends in .json, else Prometheus "
                            "text)")
    serve.add_argument("--rca", action="store_true",
                       help="attach culprit attributions to alerts and "
                            "correlate them into incidents")
    serve.add_argument("--topology", default=None, metavar="PATH",
                       help="JSON topology file for incident correlation "
                            "({\"groups\": {label: [unit, ...]}}); default "
                            "one all-units group")
    serve.add_argument("--wal-sync", choices=("commit", "snapshot"),
                       default=service_defaults.wal_sync,
                       help="WAL fsync discipline: every group-commit, or "
                            "deferred to snapshot boundaries (default)")
    serve.add_argument("--ingest-port", type=int, default=None, metavar="PORT",
                       help="accept ticks from external collectors over HTTP "
                            "on this port instead of a dataset/--live feed "
                            "(0 = any free port)")
    serve.add_argument("--ingest-capacity", type=int,
                       default=service_defaults.ingest_capacity,
                       metavar="TICKS",
                       help="network ingest queue bound before 429 "
                            "backpressure (default: the service default)")
    serve.add_argument("--ingest-max-batch", type=int,
                       default=service_defaults.ingest_max_batch,
                       metavar="TICKS",
                       help="most ticks one POST /v1/ticks may carry "
                            "(default: the service default)")
    serve.add_argument("--ingest-timeout", type=float, default=600.0,
                       metavar="SECONDS",
                       help="how long to wait for a collector handshake "
                            "before giving up (default 600)")
    serve.add_argument("--ingest-url-file", default=None, metavar="PATH",
                       help="write the bound ingestion URL to this file once "
                            "listening (lets scripts find an ephemeral port)")

    push = commands.add_parser(
        "push",
        help="replay a dataset over HTTP to a running serve --ingest-port",
    )
    push.add_argument("dataset", help="path of a .npz archive from `simulate`")
    push.add_argument("--url", default=None, metavar="URL",
                      help="ingestion endpoint (http://host:port)")
    push.add_argument("--url-file", default=None, metavar="PATH",
                      help="read the endpoint URL from this file (written by "
                           "serve --ingest-url-file); re-read before every "
                           "request, so it follows a restarted service")
    push.add_argument("--batch-ticks", type=int, default=32,
                      help="most ticks per POST (batches also flush on every "
                           "unit switch to preserve the replay interleaving)")
    push.add_argument("--max-ticks", type=int, default=None,
                      help="stop after this many ticks per unit")
    push.add_argument("--reconnects", type=int, default=8,
                      help="transport failures tolerated before giving up")
    push.add_argument("--backoff", type=float, default=0.2, metavar="SECONDS",
                      help="base reconnect backoff (doubles per attempt)")
    push.add_argument("--throttle", type=float, default=0.0, metavar="SECONDS",
                      help="sleep between batches (0 = replay at full speed)")
    push.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                      help="per-request socket timeout")
    push.add_argument("--encoding", choices=("b64", "json"), default="b64",
                      help="sample wire encoding: b64 (compact, cheap to "
                           "decode) or json (nested arrays, eyeballable); "
                           "both are bit-exact")
    push.add_argument("--no-close", action="store_true",
                      help="leave the stream open after the replay (the "
                           "serving run keeps waiting for more ticks)")

    chaos = commands.add_parser(
        "chaos",
        help="replay a fault scenario and report detection-quality deltas",
    )
    chaos.add_argument(
        "dataset", nargs="?", default=None,
        help="path of a .npz archive to replay (omit with --list)",
    )
    chaos.add_argument(
        "--scenario", default="kitchen-sink", metavar="NAME|FILE",
        help="preset scenario name or path to a JSON scenario file "
             "(default kitchen-sink)",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="list the preset scenarios and exit",
    )
    _add_service_flags(chaos, "--jobs", "--transport")
    chaos.add_argument("--max-ticks", type=int, default=None,
                       help="stop after this many ticks per unit")
    _add_detector_flags(chaos)

    obs_cmd = commands.add_parser(
        "obs",
        help="run one instrumented detection pass and emit the "
             "observability exposition",
    )
    obs_cmd.add_argument(
        "dataset", nargs="?", default=None,
        help="path of a .npz archive to replay (omit with --live)",
    )
    obs_cmd.add_argument(
        "--live", action="store_true",
        help="feed the run from live simulated units instead of a dataset",
    )
    obs_cmd.add_argument("--family", choices=("tencent", "sysbench", "tpcc"),
                         default="tencent", help="workload family for --live")
    obs_cmd.add_argument("--units", type=int, default=2,
                         help="fleet size for --live")
    obs_cmd.add_argument("--databases", type=int, default=5,
                         help="databases per unit for --live")
    obs_cmd.add_argument("--ticks", type=int, default=200,
                         help="ticks per unit for --live")
    obs_cmd.add_argument("--seed", type=int, default=0, help="seed for --live")
    obs_cmd.add_argument("--max-ticks", type=int, default=None,
                         help="stop after this many ticks per unit")
    _add_detector_flags(obs_cmd)
    obs_cmd.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus",
                         help="exposition format printed to stdout")
    obs_cmd.add_argument("--output", default=None, metavar="PATH",
                         help="write the exposition here instead of stdout")

    rca = commands.add_parser(
        "rca",
        help="replay a recorded run into a ranked root-cause report",
    )
    rca.add_argument(
        "input", nargs="?", default=None,
        help="a .npz dataset to replay through detection, or an alert "
             "JSONL file from `serve --sink jsonl:<path>` (omit with "
             "--accuracy)",
    )
    rca.add_argument("--topology", default=None, metavar="PATH",
                     help="JSON topology file ({\"groups\": ...}); default: "
                          "dataset workload groups / one all-units group")
    rca.add_argument("--window-ticks", type=int, default=60,
                     help="max tick gap for a verdict to join an incident")
    rca.add_argument("--resolve-after", type=int, default=60, metavar="TICKS",
                     help="quiet ticks before an open incident resolves")
    rca.add_argument("--top", type=int, default=3,
                     help="culprits listed per incident")
    rca.add_argument("--json", default=None, metavar="PATH",
                     help="also write the full report as JSON here")
    rca.add_argument("--accuracy", action="store_true",
                     help="run the chaos attribution-accuracy harness "
                          "instead of a replay (known faults, precision@k)")
    rca.add_argument("--trials", type=int, default=3,
                     help="trials per fault kind for --accuracy")
    rca.add_argument("--seed", type=int, default=0,
                     help="harness seed for --accuracy")
    _add_detector_flags(rca)
    rca.add_argument(
        "--alpha", type=float, default=None,
        help="uniform correlation threshold for dataset replay",
    )

    tune = commands.add_parser(
        "tune",
        help="learn detection thresholds over a saved labelled dataset",
    )
    tune.add_argument("dataset", help="path of a .npz archive from `simulate`")
    _add_detector_flags(tune)
    tune.add_argument("--population", type=int, default=16,
                      help="GA population size M")
    tune.add_argument("--generations", type=int, default=10,
                      help="GA generations N")
    tune.add_argument("--seed", type=int, default=0,
                      help="search seed (the result is identical for every "
                           "--jobs value and across checkpoint/resume splits)")
    tune.add_argument("--jobs", type=int, default=1,
                      help="worker processes; each builds and scores a "
                           "shard of the replay windows (1 = in-process; "
                           "never more than one per unit)")
    tune.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="snapshot the search state to this JSON file")
    tune.add_argument("--checkpoint-every", type=int, default=1,
                      metavar="GENS",
                      help="generations between snapshots (with --checkpoint)")
    tune.add_argument("--resume", action="store_true",
                      help="continue the run saved at --checkpoint")

    commands.add_parser("info", help="show the KPI registry and defaults")
    return parser


def _cmd_simulate(args) -> int:
    from repro.datasets import build_mixed_dataset, save_dataset

    dataset = build_mixed_dataset(
        args.family,
        seed=args.seed,
        n_units=args.units,
        ticks_per_unit=args.ticks,
    )
    path = save_dataset(dataset, args.output)
    stats = dataset.statistics()
    print(f"wrote {path}")
    print(f"  {stats['n_units']} units x {args.ticks} ticks, "
          f"{stats['total_points']:,} labelled points, "
          f"{stats['abnormal_ratio']:.2%} abnormal")
    return 0


def _detect_config(args):
    import dataclasses

    config = default_config(
        initial_window=args.initial_window, max_window=args.max_window
    )
    if getattr(args, "backend", None) is not None:
        config = dataclasses.replace(config, backend=args.backend)
    if getattr(args, "alpha", None) is not None:
        config = config.with_thresholds(
            [args.alpha] * config.n_kpis, config.theta,
            config.max_tolerance_deviations,
        )
    return config


def _cmd_detect(args) -> int:
    from repro.datasets import load_dataset
    from repro.service import detect_fleet

    dataset = load_dataset(args.dataset)
    report = detect_fleet(
        dataset, config=_detect_config(args),
        service_config=_service_config(args),
    )
    counts = None
    for unit in dataset.units:
        for result in report.results[unit.name]:
            if result.abnormal_databases and not args.quiet:
                flagged = ", ".join(
                    f"D{db + 1}" for db in result.abnormal_databases
                )
                print(f"{unit.name} ticks [{result.start}, {result.end}): "
                      f"abnormal {flagged}")
        unit_counts = adjusted_confusion_from_records(
            report.records_for(unit.name), unit.labels
        )
        counts = unit_counts if counts is None else counts + unit_counts
    scores = scores_from_confusion(counts)
    print(f"\nPrecision={scores.precision:.3f} Recall={scores.recall:.3f} "
          f"F-Measure={scores.f_measure:.3f} "
          f"(segment-adjusted, {counts.total} window verdicts)")
    return 0


def _build_tick_source(args):
    """Shared ``serve`` / ``obs`` source selection (dataset or --live)."""
    from repro.service import MonitorSource, ReplaySource

    if args.live:
        return MonitorSource.simulate(
            n_units=args.units,
            family=args.family,
            n_databases=args.databases,
            n_ticks=args.ticks,
            seed=args.seed,
        )
    if args.dataset is not None:
        return ReplaySource(args.dataset)
    return None


def _write_exposition(registry, path) -> None:
    """Write one exposition file; JSON when the suffix says so."""
    from pathlib import Path

    from repro.obs import to_json, to_prometheus

    target = Path(path)
    text = (
        to_json(registry) if target.suffix == ".json" else to_prometheus(registry)
    )
    if not text.endswith("\n"):
        text += "\n"
    target.write_text(text)


def _cmd_serve(args) -> int:
    import contextlib

    from repro.obs import ObsServer
    from repro.obs import runtime as obs
    from repro.service import DetectionService

    source = _build_tick_source(args)
    if args.log_scenario is not None:
        if source is not None or args.ingest_port is not None:
            print("serve: --log-scenario replaces the dataset/--live/"
                  "--ingest-port feed; pass one or the other",
                  file=sys.stderr)
            return 2
        from repro.logs import log_scenario
        from repro.service import ReplaySource

        try:
            scenario = log_scenario(args.log_scenario, seed=args.seed)
        except ValueError as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        source = ReplaySource(scenario.dataset, logbook=scenario.logbooks)
        print(f"log scenario {scenario.name}: {scenario.description}",
              file=sys.stderr)
    if args.ingest_port is not None and source is not None:
        print("serve: --ingest-port replaces the dataset/--live feed; "
              "pass one or the other", file=sys.stderr)
        return 2
    if args.ingest_port is None and source is None:
        print("serve needs a dataset path, --live, --log-scenario, or "
              "--ingest-port", file=sys.stderr)
        return 2
    service_config = _service_config(
        args,
        batch_ticks=args.batch_ticks,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure.replace("-", "_"),
        history_limit=args.history_limit,
        wal_sync=args.wal_sync,
        ingest_capacity=args.ingest_capacity,
        ingest_max_batch=args.ingest_max_batch,
        log_ensemble=args.log_scenario is not None,
    )
    observing = args.obs_port is not None or args.obs_snapshot is not None
    scope = obs.scoped() if observing else contextlib.nullcontext()
    with scope as registry:
        server = None
        ingest_server = None
        view = None
        if args.obs_port is not None:
            server = ObsServer(registry, port=args.obs_port)
            print(f"observability endpoint: {server.url}/metrics "
                  f"(and /metrics.json)", file=sys.stderr)
        try:
            if args.ingest_port is not None:
                from repro.service.api import (
                    ApiState,
                    IngestServer,
                    NetworkSource,
                )

                source = NetworkSource(
                    capacity=service_config.ingest_capacity,
                    handshake_timeout_seconds=args.ingest_timeout,
                    retry_after_seconds=(
                        service_config.ingest_retry_after_seconds
                    ),
                )
                view = ApiState()
                ingest_server = IngestServer(
                    source,
                    view=view,
                    port=args.ingest_port,
                    state_dir=service_config.state_dir,
                    max_batch=service_config.ingest_max_batch,
                )
                print(f"ingestion endpoint: {ingest_server.url}/v1 "
                      f"(PUT /v1/stream, POST /v1/ticks, GET /v1/units)",
                      file=sys.stderr)
                if args.ingest_url_file is not None:
                    from pathlib import Path

                    Path(args.ingest_url_file).write_text(
                        ingest_server.url + "\n"
                    )
            topology = None
            if args.topology is not None:
                from repro.rca import Topology

                topology = Topology.load(args.topology)
            sinks = tuple(args.sink) if args.sink else ("stdout",)
            if view is not None:
                sinks = sinks + (view,)
            service = DetectionService(
                _detect_config(args),
                service_config=service_config,
                sinks=sinks,
                rca=args.rca,
                topology=topology,
                result_listener=view.record_result if view else None,
            )
            report = service.run(source, max_ticks=args.max_ticks)
        finally:
            if ingest_server is not None:
                ingest_server.close()
            if server is not None:
                server.close()
        if args.obs_snapshot is not None:
            _write_exposition(registry, args.obs_snapshot)
            print(f"wrote observability snapshot to {args.obs_snapshot}",
                  file=sys.stderr)
    # Each ingested tick carries one (n_databases, n_kpis) matrix; the
    # fleet is homogeneous in KPI count but may not be in database count,
    # so average the per-tick point load over the fleet.
    mean_databases = sum(source.units.values()) / len(source.units)
    points = report.ticks_ingested * len(source.kpi_names) * mean_databases
    n_workers = service_config.n_workers
    mode = f"{n_workers} workers" if n_workers > 0 else "serial"
    print(f"\nserved {len(source.units)} units ({mode}): "
          f"{report.ticks_ingested:,} ticks in {report.elapsed_seconds:.2f}s, "
          f"{report.rounds_completed} rounds, "
          f"{report.alerts_emitted} alerts")
    if args.rca:
        severities = {}
        for incident in report.incidents:
            severities[incident.severity] = severities.get(incident.severity, 0) + 1
        summary = ", ".join(
            f"{count} {severity}" for severity, count in sorted(severities.items())
        ) or "none"
        print(f"  incidents: {summary}")
    print(f"  backpressure: {report.ticks_dropped} dropped, "
          f"{sum(report.sequence_gaps.values())} sequence gaps; "
          f"{report.ticks_lost} lost to crashes, "
          f"{report.worker_restarts} worker restarts")
    if report.elapsed_seconds > 0:
        print(f"  throughput: ~{points / report.elapsed_seconds:,.0f} "
              f"KPI points/s")
    # Span histograms exist only when the run was observed.
    def span_seconds(*names):
        return sum(
            report.metrics.get(f"span.{name}.wall_seconds", {}).get("sum", 0.0)
            for name in names
        )

    correlation = span_seconds("engine.window", "engine.correlate")
    observation = span_seconds("levels.threshold", "levels.decide")
    if correlation or observation:
        print(f"  detection time: correlation {correlation:.2f}s, "
              f"observation {observation:.2f}s")
    rounds = report.metrics.get("span.dispatch.round.wall_seconds")
    if rounds and rounds["count"]:
        print(f"  dispatch.round: mean {rounds['mean'] * 1e3:.3f}ms "
              f"max {rounds['max'] * 1e3:.3f}ms over {rounds['count']}")
    return 0


def _cmd_push(args) -> int:
    from repro.service.api import ApiError, push_dataset

    if (args.url is None) == (args.url_file is None):
        print("push: pass exactly one of --url / --url-file", file=sys.stderr)
        return 2
    url_provider = None
    if args.url_file is not None:
        from pathlib import Path

        url_file = Path(args.url_file)

        def url_provider():
            return url_file.read_text().strip()

    try:
        stats = push_dataset(
            args.dataset,
            url=args.url,
            url_provider=url_provider,
            batch_ticks=args.batch_ticks,
            max_ticks=args.max_ticks,
            timeout_seconds=args.timeout,
            max_reconnects=args.reconnects,
            backoff_seconds=args.backoff,
            throttle_seconds=args.throttle,
            close=not args.no_close,
            encoding=args.encoding,
        )
    except ApiError as exc:
        print(f"push: {exc}", file=sys.stderr)
        return 1
    print(f"pushed {stats.posted:,} ticks in {stats.batches} batches: "
          f"{stats.accepted:,} accepted, {stats.stale:,} stale, "
          f"{stats.backpressure_waits} backpressure waits, "
          f"{stats.reconnects} reconnects")
    return 0


def _cmd_chaos(args) -> int:
    from pathlib import Path

    from repro.chaos import PRESETS, load_scenario, preset_scenario, run_scenario

    if args.list:
        for name in sorted(PRESETS):
            scenario = PRESETS[name]
            print(f"{name:16s} {scenario.description}")
        return 0
    if args.dataset is None:
        print("chaos needs a dataset path (or --list)", file=sys.stderr)
        return 2
    if Path(args.scenario).is_file():
        scenario = load_scenario(args.scenario)
    else:
        scenario = preset_scenario(args.scenario)
    report = run_scenario(
        args.dataset,
        scenario=scenario,
        config=_detect_config(args),
        service_config=_service_config(args),
        max_ticks=args.max_ticks,
    )
    print(report.render())
    if not report.survived:
        print(
            f"\nFAILED: {report.invalid_verdicts} verdicts left the valid "
            "domain under fault injection",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nsurvived: quality delta {report.diff.quality_delta} "
        f"({len(report.diff.missed)} missed, "
        f"{len(report.diff.spurious)} spurious) over "
        f"{report.chaos_rounds} rounds"
    )
    return 0


def _cmd_obs(args) -> int:
    from repro.obs import runtime as obs
    from repro.obs import to_json, to_prometheus
    from repro.service import DetectionService, ServiceConfig

    source = _build_tick_source(args)
    if source is None:
        print("obs needs a dataset path or --live", file=sys.stderr)
        return 2
    # Serial pool: detector spans and KCD counters are recorded in-process,
    # so the exposition carries the full per-stage picture (forked workers
    # hand back their spans but keep their counters).
    with obs.scoped() as registry:
        service = DetectionService(
            _detect_config(args),
            service_config=ServiceConfig(n_workers=0),
            sinks=("null",),
        )
        report = service.run(source, max_ticks=args.max_ticks)
    text = to_prometheus(registry) if args.format == "prometheus" else (
        to_json(registry)
    )
    if not text.endswith("\n"):
        text += "\n"
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.format} exposition to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(f"instrumented run: {len(source.units)} units, "
          f"{report.ticks_ingested:,} ticks, "
          f"{report.rounds_completed} rounds in "
          f"{report.elapsed_seconds:.2f}s", file=sys.stderr)
    return 0


def _cmd_rca(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.rca import (
        Topology,
        replay_alerts,
        replay_dataset,
        run_attribution_harness,
    )

    if args.accuracy:
        report = run_attribution_harness(
            trials_per_kind=args.trials, seed=args.seed
        )
        print(report.render())
        if args.json is not None:
            Path(args.json).write_text(
                json_module.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"wrote {args.json}", file=sys.stderr)
        return 0 if report.precision_at(1) >= 0.8 else 1

    if args.input is None:
        print("rca needs an input path (or --accuracy)", file=sys.stderr)
        return 2
    topology = Topology.load(args.topology) if args.topology else None
    if Path(args.input).suffix == ".npz":
        from repro.datasets import load_dataset

        report = replay_dataset(
            load_dataset(args.input),
            _detect_config(args),
            topology=topology,
            window_ticks=args.window_ticks,
            resolve_after_ticks=args.resolve_after,
        )
    else:
        report = replay_alerts(
            args.input,
            topology=topology,
            window_ticks=args.window_ticks,
            resolve_after_ticks=args.resolve_after,
        )
    print(report.render(top=args.top))
    if args.json is not None:
        Path(args.json).write_text(
            json_module.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_tune(args) -> int:
    import time

    from repro.datasets import load_dataset
    from repro.tuning import GeneticThresholdLearner

    if args.resume and args.checkpoint is None:
        print("tune: --resume needs --checkpoint", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset)
    config = _detect_config(args)
    values = [unit.values for unit in dataset.units]
    labels = [unit.labels for unit in dataset.units]
    learner = GeneticThresholdLearner(
        population_size=args.population,
        n_iterations=args.generations,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    started = time.perf_counter()
    tuned = learner(config, values, labels)
    elapsed = time.perf_counter() - started
    trace = learner.last_trace
    mode = f"{args.jobs} jobs" if args.jobs > 1 else "serial"
    print(f"tuned over {len(dataset.units)} units ({mode}): "
          f"best F-Measure {trace.final:.3f} "
          f"after {len(trace.best_fitness)} generations in {elapsed:.2f}s")
    print(f"  alphas: {' '.join(f'{a:.3f}' for a in tuned.alphas)}")
    print(f"  theta: {tuned.theta:.3f}  "
          f"tolerance: {tuned.max_tolerance_deviations}")
    if args.checkpoint is not None:
        print(f"  checkpoint: {args.checkpoint}")
    return 0


def _cmd_info(args) -> int:
    rows = [
        [kpi.display_name, kpi.name, ", ".join(kpi.correlation_type)]
        for kpi in KPI_REGISTRY
    ]
    print(render_table(
        ["Indicator", "key", "UKPIC type"], rows,
        title="Table II KPI registry",
    ))
    config = default_config()
    print(f"\ndefault config: W={config.initial_window}, "
          f"W_M={config.max_window}, alpha={config.alphas[0]:.2f}, "
          f"theta={config.theta}, tolerance={config.max_tolerance_deviations}, "
          f"interval={config.interval_seconds}s")
    from repro.service import ServiceConfig

    service = ServiceConfig()
    pool = "serial in-process" if service.n_workers == 0 else (
        f"{service.n_workers} workers"
    )
    print(f"service defaults: pool={pool}, "
          f"batch_ticks={service.batch_ticks}, "
          f"queue_capacity={service.queue_capacity}, "
          f"backpressure={service.backpressure}, "
          f"sinks=stdout|jsonl:<path>|null, "
          f"restart_budget={service.max_worker_restarts}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "detect": _cmd_detect,
        "serve": _cmd_serve,
        "push": _cmd_push,
        "chaos": _cmd_chaos,
        "obs": _cmd_obs,
        "rca": _cmd_rca,
        "tune": _cmd_tune,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
