"""RCA attribution accuracy.

The chaos-based attribution drill: single-database faults injected into
a clean correlated fleet, scored by whether the culprit ranking puts the
faulted database first.  The acceptance floor is precision@1 >= 0.8 for
the attributable injector kinds.  RCA's serving cost is gated with the
other layers in ``test_layer_profile.py``.
"""

from repro.rca import run_attribution_harness

from _shared import BENCH_TRIALS, record_bench_result

#: Precision@1 floor for single-database fault injectors (acceptance bar).
_PRECISION_FLOOR = 0.8


def test_rca_attribution_accuracy():
    """Culprit ranking must put the faulted database first.

    Each trial injects one single-database fault (stuck gauge, clock skew
    past the delay-scan horizon, or multiplicative gauge noise) into a
    clean fleet and checks the strongest attribution's top-ranked
    database against the injection target.
    """
    trials = max(BENCH_TRIALS, 2)
    report = run_attribution_harness(trials_per_kind=trials)

    print()
    print(report.render())

    metrics = {
        "detection_rate": round(report.detection_rate(), 4),
        "precision_at_1": round(report.precision_at(1), 4),
        "precision_at_2": round(report.precision_at(2), 4),
        "trials_per_kind": trials,
    }
    for kind in report.kinds:
        metrics[f"precision_at_1_{kind}"] = round(
            report.precision_at(1, kind=kind), 4
        )
    record_bench_result("rca_attribution_accuracy", **metrics)

    assert report.detection_rate() > 0, "no injected fault was detected"
    assert report.precision_at(1) >= _PRECISION_FLOOR, (
        f"attribution precision@1 {report.precision_at(1):.2f} "
        f"below the {_PRECISION_FLOOR:.1f} floor"
    )
    for kind in report.kinds:
        assert report.precision_at(1, kind=kind) >= _PRECISION_FLOOR, (
            f"precision@1 for {kind} below the floor"
        )
