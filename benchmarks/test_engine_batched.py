"""Batched KCD engine throughput versus the per-lag reference backend.

The correlation-measurement module dominates DBCatcher's detection time
(~70 % in the paper's §IV-D4 breakdown), so the batched engine earns its
default-backend status here: on the paper's unit shape — 5 databases,
the 14 Table II KPIs — it must clear the reference per-lag loop by at
least 3x per round at window sizes >= 60.  In practice the gap is one to
two orders of magnitude; the 3x gate is the regression floor, not the
expectation.

A second measurement times the flexible-window expansion pattern (same
start, growing end): every step normalizes and scores its window afresh.
"""

import time

import numpy as np

from repro.engine import BatchedEngine, ReferenceEngine

from _shared import BENCH_TRIALS, record_bench_result, scale_note

N_DATABASES = 5
N_KPIS = 14
WINDOW = 60
ROUNDS = 3
SPEEDUP_FLOOR = 3.0
KPI_NAMES = [f"kpi_{i:02d}" for i in range(N_KPIS)]


def _unit_series(n_ticks: int, seed: int = 0) -> np.ndarray:
    """Correlated per-database series with mild per-database jitter."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=(1, N_KPIS, n_ticks)), axis=2)
    jitter = 0.05 * rng.normal(size=(N_DATABASES, N_KPIS, n_ticks))
    return base + jitter


def _time_rounds(engine, windows, trials: int) -> float:
    """Best-of-``trials`` seconds to score every window once."""
    best = float("inf")
    for _ in range(max(1, trials)):
        started = time.perf_counter()
        for window, max_delay in windows:
            engine.matrices(window, KPI_NAMES, max_delay=max_delay)
        best = min(best, time.perf_counter() - started)
    return best


def test_engine_batched_speedup():
    series = _unit_series(WINDOW * ROUNDS)
    windows = [
        (series[:, :, start:start + WINDOW], WINDOW // 2)
        for start in range(0, WINDOW * ROUNDS, WINDOW)
    ]

    batched = BatchedEngine()
    reference = ReferenceEngine()

    # Numerical parity first: a fast-but-wrong engine must not "win".
    for window, max_delay in windows:
        fast = batched.matrices(window, KPI_NAMES, max_delay=max_delay)
        slow = reference.matrices(window, KPI_NAMES, max_delay=max_delay)
        for left, right in zip(fast, slow):
            np.testing.assert_allclose(
                left.to_dense(), right.to_dense(), rtol=0.0, atol=1e-9
            )

    batched_seconds = _time_rounds(batched, windows, BENCH_TRIALS)
    reference_seconds = _time_rounds(reference, windows, BENCH_TRIALS)
    speedup = reference_seconds / batched_seconds

    # The detector's expansion pattern: one start, window growing to 2W.
    expanding = [
        (series[:, :, :size], size // 2)
        for size in range(WINDOW, 2 * WINDOW + 1, 10)
    ]
    expanding_seconds = _time_rounds(batched, expanding, BENCH_TRIALS)

    per_round_ms = 1e3 * batched_seconds / len(windows)
    reference_ms = 1e3 * reference_seconds / len(windows)
    print()
    print(scale_note())
    print(f"unit {N_DATABASES} databases x {N_KPIS} KPIs, window {WINDOW}, "
          f"{len(windows)} rounds")
    print(f"  batched:   {per_round_ms:8.3f} ms/round")
    print(f"  reference: {reference_ms:8.3f} ms/round")
    print(f"  speedup:   {speedup:8.1f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"  expansion sweep ({len(expanding)} growing windows): "
          f"{1e3 * expanding_seconds:.3f} ms")

    record_bench_result(
        "engine_batched",
        speedup=round(speedup, 2),
        batched_ms_per_round=round(per_round_ms, 4),
        reference_ms_per_round=round(reference_ms, 4),
        window=WINDOW,
        n_databases=N_DATABASES,
        n_kpis=N_KPIS,
        expansion_ms=round(1e3 * expanding_seconds, 4),
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched engine only {speedup:.2f}x faster than reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
