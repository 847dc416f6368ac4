"""Snapshot + WAL write overhead on the serving path.

Durability is only deployable if it is nearly free: the per-round WAL
group-commit and the periodic snapshots ride inside the dispatch loop,
so their cost lands directly on detection latency.  This bench runs the
same serial fleet bare and with a fresh state directory and gates the
overhead at <=5% (``REPRO_BENCH_PERSIST_MAX_OVERHEAD`` overrides it).

The gated number is measured *within* the persisted run: the scheduler
times every entry into the persistence driver on the
``persist.write_seconds`` histogram, and the overhead ratio is
``total / (total - write_seconds)`` — how much slower the run was than
if durability had been free, with both terms from the same run.  On a
shared CI host the run-to-run jitter is several times larger than the
few-percent effect under test, so comparing wall clocks *across* runs
(bare vs persisted) cannot gate a 5% budget reliably; the cross-run
ratio is still printed and recorded, ungated, for trend reading.

Verdicts must be identical with and without persistence — durability is
bookkeeping, never an accuracy trade.

Sizing: persistence cost scales with what a round *writes* (records,
plus matrices for abnormal rounds) while detection cost scales with the
pairwise correlation work, so the honest overhead ratio depends on unit
density.  The bench pins 32 databases per unit — cloud units in the
paper's setting are clusters, not handfuls — and snapshots every 16
rounds, which exercises both periodic and finalize snapshots at this
length.  Units/ticks are capped so the wall time stays bench-friendly
regardless of the suite-wide env knobs.
"""

import os
import time

from repro.datasets import Dataset, build_unit_series
from repro.eval.tables import render_table
from repro.obs import runtime as obs
from repro.presets import default_config
from repro.service import ServiceConfig, detect_fleet

from _shared import BENCH_TICKS, BENCH_UNITS, record_bench_result

MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_PERSIST_MAX_OVERHEAD", "1.05"))
REPEATS = 3
SNAPSHOT_EVERY = 16
N_DATABASES = 32
UNITS = min(BENCH_UNITS, 2)
TICKS = min(BENCH_TICKS, 240)


def _dataset() -> Dataset:
    units = tuple(
        build_unit_series(
            profile="tencent",
            n_databases=N_DATABASES,
            n_ticks=TICKS,
            seed=8600 + index,
            abnormal_ratio=0.04,
            name=f"persist-{index:03d}",
        )
        for index in range(UNITS)
    )
    return Dataset(name="persist-overhead", units=units)


def test_persist_write_overhead(tmp_path):
    dataset = _dataset()
    config = default_config()

    # Warm-up pass so neither arm pays one-time import/allocation costs.
    detect_fleet(dataset, config=config)

    bare_seconds = []
    persisted_seconds = []
    inline_ratios = []
    reference = None
    for repeat in range(REPEATS):
        started = time.perf_counter()
        bare = detect_fleet(dataset, config=config)
        bare_seconds.append(time.perf_counter() - started)

        state_dir = str(tmp_path / f"state-{repeat}")
        with obs.scoped() as registry:
            started = time.perf_counter()
            persisted = detect_fleet(
                dataset, config=config,
                service_config=ServiceConfig(
                    state_dir=state_dir, snapshot_every=SNAPSHOT_EVERY
                ),
            )
            total = time.perf_counter() - started
            write_seconds = registry.histogram("persist.write_seconds").sum
        persisted_seconds.append(total)
        assert 0.0 < write_seconds < total
        inline_ratios.append(total / (total - write_seconds))

        assert persisted.results == bare.results
        assert persisted.snapshots_written > 0
        if reference is None:
            reference = bare.results
        assert bare.results == reference

    # min-of-N: the repeat least disturbed by host noise.
    overhead_ratio = min(inline_ratios)
    e2e_ratio = min(persisted_seconds) / min(bare_seconds)

    print()
    print(render_table(
        ["Measure", "Value"],
        [
            ["bare serving (min s)", f"{min(bare_seconds):.3f}"],
            ["snapshot + WAL (min s)", f"{min(persisted_seconds):.3f}"],
            ["cross-run ratio (noisy)", f"{e2e_ratio:.3f}x"],
            ["in-run write overhead", f"{overhead_ratio:.3f}x"],
        ],
        title=(
            f"Durable-state write overhead — {UNITS} units x "
            f"{N_DATABASES} databases x {TICKS} ticks, "
            f"snapshot every {SNAPSHOT_EVERY} rounds"
        ),
    ))

    record_bench_result(
        "persist_overhead",
        bare_seconds=round(min(bare_seconds), 3),
        persisted_seconds=round(min(persisted_seconds), 3),
        overhead_ratio=round(overhead_ratio, 4),
        e2e_ratio=round(e2e_ratio, 4),
        budget_ratio=round(overhead_ratio / MAX_OVERHEAD, 4),
        snapshot_every=SNAPSHOT_EVERY,
    )

    assert overhead_ratio <= MAX_OVERHEAD, (
        f"snapshot+WAL overhead {overhead_ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget"
    )
