"""DBCatcher reproduction: cloud database online anomaly detection.

A full reimplementation of *"DBCatcher: A Cloud Database Online Anomaly
Detection System based on Indicator Correlation"* (ICDE 2023), including the
substrates the paper evaluates on: a discrete-time cloud-database cluster
simulator, Sysbench/TPC-C/production-like workload generators, an anomaly
injection toolkit, the five baseline detectors (FFT, SR, SR-CNN,
OmniAnomaly, JumpStarter), and the experiment harness that regenerates every
table and figure of the evaluation section.

Quick start::

    from repro import DBCatcher, DBCatcherConfig
    from repro.datasets import build_unit_series

    unit = build_unit_series(profile="tencent", n_databases=5, n_ticks=600,
                             seed=7)
    config = DBCatcherConfig(kpi_names=unit.kpi_names)
    catcher = DBCatcher(config, n_databases=unit.n_databases)
    for result in catcher.process(unit.values, time_axis=-1):
        print(result.start, result.abnormal_databases)
"""

from repro.core import (
    DBCatcher,
    DBCatcherConfig,
    DatabaseState,
    JudgementRecord,
    OnlineFeedback,
    UnitDetectionResult,
    kcd,
    kcd_matrix,
)

__version__ = "1.9.0"

#: Service-layer names resolved lazily so `import repro` stays light —
#: the fleet scheduler pulls in datasets/cluster machinery that pure
#: detector users never need.
_SERVICE_EXPORTS = (
    "DetectionService",
    "ServiceConfig",
    "ServiceReport",
    "TickSource",
    "TickTransport",
    "detect_fleet",
)

#: Engine names resolved lazily for the same reason.
_ENGINE_EXPORTS = (
    "KCDEngine",
    "make_engine",
)

__all__ = [
    "DBCatcher",
    "DBCatcherConfig",
    "DatabaseState",
    "DetectionService",
    "JudgementRecord",
    "KCDEngine",
    "OnlineFeedback",
    "ServiceConfig",
    "ServiceReport",
    "TickSource",
    "TickTransport",
    "UnitDetectionResult",
    "detect_fleet",
    "kcd",
    "kcd_matrix",
    "make_engine",
    "__version__",
]


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    if name in _ENGINE_EXPORTS:
        from repro import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
