"""Section IV-D4: component computation time and online throughput.

The paper applies DBCatcher to 50 units of five databases and reports that
a 100 MB dataset — 120 hours of KPI points — takes 42 s, with the
correlation measurement at ~70 % of the time and the window observation at
~30 %.  The bench measures our per-point detection throughput, prints the
component split, and extrapolates the time for the paper's 120-hour
volume.  The split is read from the detector's spans under an enabled
observability runtime: correlation is the ``engine`` layer (window
extraction, normalization and KCD), observation the ``levels`` layer
(thresholding and the flexible-window decisions).  What the spans
themselves cost is gated in ``test_layer_profile.py``.
"""

from repro import DBCatcher
from repro.eval.tables import render_table
from repro.obs import runtime as obs
from repro.presets import default_config

from _shared import LayerTotals, mixed_dataset, record_bench_result, scale_note

#: 120 hours at one point per 5 s, for 50 units x 5 databases x 14 KPIs.
_PAPER_POINTS = int(120 * 3600 / 5) * 50 * 5 * 14
_PAPER_SECONDS = 42.0


def test_sec4d4_component_time(benchmark):
    dataset = mixed_dataset("tencent")

    def detect_all():
        layers = LayerTotals()
        obs.add_span_hook(layers)
        try:
            with obs.scoped():
                for unit in dataset.units:
                    detector = DBCatcher(
                        default_config(), n_databases=unit.n_databases
                    )
                    detector.process(unit.values, time_axis=-1)
        finally:
            obs.remove_span_hook(layers)
        return layers.seconds

    layers = benchmark.pedantic(detect_all, rounds=2, iterations=1)

    correlation = layers["engine"]
    observation = layers["levels"]
    total = correlation + observation
    points = sum(
        unit.n_databases * unit.n_kpis * unit.n_ticks for unit in dataset.units
    )
    throughput = points / total
    extrapolated = _PAPER_POINTS / throughput

    rows = [
        ["correlation measurement", f"{correlation:.2f}",
         f"{100 * correlation / total:.0f}%", "~70% (paper)"],
        ["window observation", f"{observation:.2f}",
         f"{100 * observation / total:.0f}%", "~30% (paper)"],
    ]
    print()
    print(render_table(
        ["Component", "Seconds", "Share", "Paper share"],
        rows,
        title="Section IV-D4 — component computation time " + scale_note(),
    ))
    print(f"  KPI points processed: {points:,} in {total:.2f} s "
          f"({throughput:,.0f} points/s)")
    print(f"  extrapolated 120 h / 50-unit volume ({_PAPER_POINTS:,} points): "
          f"{extrapolated:.0f} s (paper: {_PAPER_SECONDS:.0f} s on a "
          f"12-core 4 GHz server)")

    record_bench_result(
        "sec4d4_component_time",
        correlation_seconds=round(correlation, 4),
        observation_seconds=round(observation, 4),
        correlation_share=round(correlation / total, 4),
        points=points,
        points_per_second=round(throughput, 1),
        extrapolated_paper_volume_seconds=round(extrapolated, 1),
    )

    assert correlation > observation, (
        "correlation measurement must dominate (paper: 70/30 split)"
    )
    assert extrapolated < 3600, (
        "online detection must remain practical for the paper's volume"
    )
