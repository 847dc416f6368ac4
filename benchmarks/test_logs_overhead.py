"""Log-channel overhead on the serving path.

The log ensemble is only deployable if the second modality is nearly
free: template masking, per-tick counting and the per-round judge/fuse
all ride inside the scheduler loop, so their cost lands directly on
detection latency.  This bench runs the same serial fleet bare and with
a seeded logbook fused and gates the overhead at <=5%
(``REPRO_BENCH_LOGS_MAX_OVERHEAD`` overrides it).

The gated number is measured *within* the fused run: the channel times
every ingest and every judge/fuse on the ``logs.channel_seconds``
histogram, and the overhead ratio is ``total / (total -
channel_seconds)`` — how much slower the run was than if the log
channel had been free, with both terms from the same run.  On a shared
CI host the run-to-run jitter is several times larger than the
few-percent effect under test, so comparing wall clocks *across* runs
cannot gate a 5% budget reliably; the cross-run ratio is still printed
and recorded, ungated, for trend reading.

Correlation verdicts must be identical with and without the channel —
fusion adds a modality, it never touches the KCD path.

Sizing matches the persistence bench: 32 databases per unit, so the
detection work the channel cost is measured against is the realistic
cluster-density kind, and the logbook carries both healthy chatter and
the anomaly-profile bursts the unit's own injected events emit.
"""

import os
import time

from repro.datasets import Dataset, build_unit_series
from repro.eval.tables import render_table
from repro.logs import dataset_logbook
from repro.obs import runtime as obs
from repro.presets import default_config
from repro.service import detect_fleet

from _shared import BENCH_TICKS, BENCH_UNITS, record_bench_result

MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_LOGS_MAX_OVERHEAD", "1.05"))
REPEATS = 3
N_DATABASES = 32
UNITS = min(BENCH_UNITS, 2)
TICKS = min(BENCH_TICKS, 240)


def _dataset() -> Dataset:
    units = tuple(
        build_unit_series(
            profile="tencent",
            n_databases=N_DATABASES,
            n_ticks=TICKS,
            seed=8700 + index,
            abnormal_ratio=0.04,
            name=f"logs-{index:03d}",
        )
        for index in range(UNITS)
    )
    return Dataset(name="logs-overhead", units=units)


def test_log_channel_overhead():
    dataset = _dataset()
    config = default_config()
    books = dataset_logbook(dataset)
    events_total = sum(
        len(events) for book in books.values() for events in book.values()
    )
    assert events_total > 0, "the seeded logbook must carry events"

    # Warm-up pass so neither arm pays one-time import/allocation costs.
    detect_fleet(dataset, config=config, logbook=books)

    bare_seconds = []
    fused_seconds = []
    inline_ratios = []
    reference = None
    for repeat in range(REPEATS):
        started = time.perf_counter()
        bare = detect_fleet(dataset, config=config)
        bare_seconds.append(time.perf_counter() - started)

        with obs.scoped() as registry:
            started = time.perf_counter()
            fused = detect_fleet(dataset, config=config, logbook=books)
            total = time.perf_counter() - started
            channel_seconds = registry.histogram("logs.channel_seconds").sum
            events_ingested = registry.counter("logs.events_ingested").value
        fused_seconds.append(total)
        assert events_ingested == events_total
        assert 0.0 < channel_seconds < total
        inline_ratios.append(total / (total - channel_seconds))

        # The channel is additive: correlation verdicts are untouched.
        assert fused.results == bare.results
        assert fused.fused_verdicts, "fusion must have run"
        if reference is None:
            reference = bare.results
        assert bare.results == reference

    # min-of-N: the repeat least disturbed by host noise.
    overhead_ratio = min(inline_ratios)
    e2e_ratio = min(fused_seconds) / min(bare_seconds)

    print()
    print(render_table(
        ["Measure", "Value"],
        [
            ["bare serving (min s)", f"{min(bare_seconds):.3f}"],
            ["log channel fused (min s)", f"{min(fused_seconds):.3f}"],
            ["log events ingested", f"{events_total:,}"],
            ["cross-run ratio (noisy)", f"{e2e_ratio:.3f}x"],
            ["in-run channel overhead", f"{overhead_ratio:.3f}x"],
        ],
        title=(
            f"Log-channel overhead — {UNITS} units x "
            f"{N_DATABASES} databases x {TICKS} ticks"
        ),
    ))

    record_bench_result(
        "logs_overhead",
        bare_seconds=round(min(bare_seconds), 3),
        fused_seconds=round(min(fused_seconds), 3),
        overhead_ratio=round(overhead_ratio, 4),
        e2e_ratio=round(e2e_ratio, 4),
        budget_ratio=round(overhead_ratio / MAX_OVERHEAD, 4),
        events_ingested=events_total,
    )

    assert overhead_ratio <= MAX_OVERHEAD, (
        f"log-channel overhead {overhead_ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget"
    )
