"""Public-API snapshot: ``__all__`` of the user-facing packages, pinned.

Renaming or dropping a public name is a breaking change that deserves a
deliberate diff in this file, not a silent side effect of a refactor.
Additions fail the test too — deciding whether a new name is public is
exactly the review moment this snapshot exists to force.
"""

import repro
import repro.core
import repro.engine
import repro.ensemble
import repro.logs
import repro.persist
import repro.rca
import repro.service
import repro.service.api

EXPECTED = {
    repro: [
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
    ],
    repro.core: [
        "BACKENDS",
        "DBCatcher",
        "DBCatcherConfig",
        "CauseHypothesis",
        "diagnose_record",
        "UnitDetectionResult",
        "OnlineFeedback",
        "kcd",
        "kcd_matrix",
        "lagged_correlation_profile",
        "LEVEL_EXTREME_DEVIATION",
        "LEVEL_SLIGHT_DEVIATION",
        "LEVEL_CORRELATED",
        "CorrelationLevels",
        "calculate_levels",
        "score_to_level",
        "CorrelationMatrix",
        "build_correlation_matrices",
        "DatabaseState",
        "JudgementRecord",
        "KPIStreams",
        "FlexibleWindow",
        "WindowDecision",
    ],
    repro.engine: [
        "BatchedEngine",
        "KCDEngine",
        "ReferenceEngine",
        "make_engine",
        "validate_window",
    ],
    repro.ensemble: [
        "PROVENANCE_CORRELATION",
        "PROVENANCE_LOG",
        "PROVENANCE_BOTH",
        "FusedVerdict",
        "fuse_round",
        "HybridVerdict",
        "HybridDetector",
    ],
    repro.logs: [
        "ANOMALY_LOG_PROFILES",
        "FAULT_LOG_PROFILES",
        "LEVELS",
        "LOG_SCENARIOS",
        "LogBook",
        "LogChannel",
        "LogEvent",
        "LogFrequencyDetector",
        "LogScenario",
        "LogVerdict",
        "TemplateCounter",
        "dataset_logbook",
        "events_logbook",
        "fault_logbook",
        "healthy_logbook",
        "log_scenario",
        "mask_message",
        "merge_logbooks",
        "profile_logbook",
        "template_key",
        "unit_logbook",
    ],
    repro.persist: [
        "FleetStateStore",
        "SNAPSHOT_VERSION",
        "STATE_VERSION",
        "UnitStore",
        "WAL_VERSION",
        "WalWriter",
        "atomic_write_json",
        "decode_config",
        "decode_line",
        "decode_matrix",
        "decode_record",
        "decode_result",
        "encode_config",
        "encode_line",
        "encode_matrix",
        "encode_record",
        "encode_result",
        "read_json",
        "read_segment",
        "shift_state",
        "state_next_tick",
    ],
    repro.rca: [
        "Attribution",
        "Attributor",
        "HarnessReport",
        "Incident",
        "IncidentCorrelator",
        "IncidentEvent",
        "RCAOutcome",
        "RCAReport",
        "RootCauseAnalyzer",
        "Topology",
        "TrialResult",
        "attribute_result",
        "classify_severity",
        "replay_alerts",
        "replay_dataset",
        "run_attribution_harness",
    ],
    repro.service: [
        "Alert",
        "AlertPipeline",
        "AlertSink",
        "ApiClient",
        "ApiState",
        "BACKPRESSURE_POLICIES",
        "Backpressure",
        "CallbackSink",
        "Counter",
        "DetectionService",
        "Gauge",
        "HashRing",
        "Histogram",
        "IngestServer",
        "IngestionBridge",
        "JSONLSink",
        "MemorySink",
        "MetricsRegistry",
        "MonitorSource",
        "NetworkSource",
        "PickleTickTransport",
        "ProcessWorkerPool",
        "QueueClosed",
        "QueueFull",
        "RING_SEED",
        "RING_VERSION",
        "ReplaySource",
        "RetrainEvent",
        "RetryingSource",
        "SerialWorkerPool",
        "ServiceConfig",
        "ServiceReport",
        "ShmTickRing",
        "ShmTickTransport",
        "StdoutSink",
        "TRANSPORTS",
        "TickEvent",
        "TickQueue",
        "TickSource",
        "TickTransport",
        "TuningCoordinator",
        "UnitSpec",
        "WorkerDied",
        "assign_units",
        "build_sink",
        "detect_fleet",
        "make_pool",
        "make_transport",
        "push_dataset",
    ],
    repro.service.api: [
        "WIRE_VERSION",
        "DEFAULT_MAX_BATCH",
        "DEFAULT_MAX_BODY_BYTES",
        "FleetSpec",
        "WireError",
        "decode_body",
        "parse_handshake",
        "parse_tick_batch",
        "encode_handshake",
        "encode_tick_batch",
        "Backpressure",
        "NetworkSource",
        "ApiState",
        "IngestServer",
        "ApiClient",
        "ApiError",
        "TransientApiError",
        "PushStats",
        "push_dataset",
    ],
}


def test_all_lists_match_snapshot():
    for module, expected in EXPECTED.items():
        assert sorted(module.__all__) == sorted(expected), module.__name__


def test_every_exported_name_resolves():
    for module, expected in EXPECTED.items():
        for name in expected:
            assert getattr(module, name) is not None, (
                f"{module.__name__}.{name} does not resolve"
            )


def test_no_duplicate_exports():
    for module in EXPECTED:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
