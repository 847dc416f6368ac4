"""Integration tests: the full pipeline, end to end.

These exercise the complete chain the paper describes: workload ->
cluster simulation -> bypass monitoring -> anomaly injection -> streaming
detection -> online feedback -> adaptive threshold learning, plus the
evaluation protocol on top.
"""

import numpy as np
import pytest

from repro import DBCatcher, OnlineFeedback
from repro.baselines import SRDetector
from repro.core.feedback import mark_records
from repro.core.records import DatabaseState
from repro.datasets import Dataset, build_unit_series, train_test_split
from repro.eval.metrics import scores_from_records
from repro.eval.runner import run_baseline_trial, run_dbcatcher_trial
from repro.obs import runtime as obs
from repro.presets import default_config
from repro.tuning import GeneticThresholdLearner


@pytest.fixture(scope="module")
def labelled_split():
    units = tuple(
        build_unit_series(profile="tencent", n_ticks=600, seed=seed,
                          abnormal_ratio=0.05)
        for seed in (100, 101)
    )
    return train_test_split(Dataset(name="integration", units=units))


class TestDetectionPipeline:
    def test_clean_unit_has_high_precision(self, clean_unit):
        catcher = DBCatcher(default_config(), n_databases=5)
        catcher.process(clean_unit.values, time_axis=-1)
        abnormal = [
            r for r in catcher.history if r.state is DatabaseState.ABNORMAL
        ]
        # Without anomalies or fluctuations, false alarms must be rare.
        assert len(abnormal) <= 0.1 * len(catcher.history)

    def test_anomalous_unit_is_caught(self, tencent_unit):
        catcher = DBCatcher(default_config(), n_databases=5)
        catcher.process(tencent_unit.values, time_axis=-1)
        marked = mark_records(catcher.history, tencent_unit.labels)
        scores = scores_from_records(marked)
        assert scores.recall > 0.15
        assert scores.precision > 0.3

    def test_streaming_equals_batch(self, tencent_unit):
        batch = DBCatcher(default_config(), n_databases=5)
        batch.process(tencent_unit.values, time_axis=-1)
        streaming = DBCatcher(default_config(), n_databases=5)
        for tick in tencent_unit.values.transpose(2, 0, 1):
            streaming.process(tick)
        assert len(batch.history) == len(streaming.history)
        for a, b in zip(batch.history, streaming.history):
            assert a.state == b.state
            assert a.window_start == b.window_start
            assert a.window_end == b.window_end

    def test_component_seconds_accumulate(self, tencent_unit):
        # Section IV-D4's split: correlation is the detector's top-level
        # engine spans, window observation its levels spans.
        with obs.scoped() as registry:
            catcher = DBCatcher(default_config(), n_databases=5)
            catcher.process(tencent_unit.values, time_axis=-1)
        snapshot = registry.snapshot()

        def seconds(*names):
            return sum(snapshot[f"span.{n}.wall_seconds"]["sum"] for n in names)

        correlation = seconds("engine.window", "engine.correlate")
        observation = seconds("levels.threshold", "levels.decide")
        assert correlation > 0
        assert observation > 0
        # The paper reports correlation measurement dominating (~70 %).
        assert correlation > observation


class TestFeedbackLoop:
    def test_retraining_improves_or_holds(self, labelled_split):
        train, test = labelled_split
        config = default_config()
        unit = train.units[0]

        catcher = DBCatcher(config, n_databases=unit.n_databases)
        catcher.process(unit.values, time_axis=-1)
        feedback = OnlineFeedback(min_f_measure=0.99)  # force retraining
        feedback.submit(catcher.history, unit.labels)
        feedback.remember_window(unit.values, unit.labels)
        before = feedback.recent_performance()

        learner = GeneticThresholdLearner(
            population_size=6, n_iterations=3, seed=0
        )
        tuned = feedback.maybe_retrain(config, learner)
        assert tuned is not None

        replay = DBCatcher(tuned, n_databases=unit.n_databases)
        replay.process(unit.values, time_axis=-1)
        after = scores_from_records(
            mark_records(replay.history, unit.labels)
        ).f_measure
        assert after >= before - 1e-9


class TestEvaluationProtocol:
    def test_dbcatcher_beats_sr_on_f_measure(self, labelled_split):
        train, test = labelled_split
        ours = run_dbcatcher_trial(
            default_config(), train, test,
            learner=GeneticThresholdLearner(population_size=6, n_iterations=3,
                                            seed=1),
        )
        theirs = run_baseline_trial(
            SRDetector(), train, test,
            rng=np.random.default_rng(1), n_candidates=40,
        )
        assert ours.scores.f_measure > theirs.scores.f_measure

    def test_dbcatcher_window_is_smaller(self, labelled_split):
        train, test = labelled_split
        ours = run_dbcatcher_trial(
            default_config(), train, test,
            learner=GeneticThresholdLearner(population_size=4, n_iterations=2,
                                            seed=2),
        )
        theirs = run_baseline_trial(
            SRDetector(), train, test,
            rng=np.random.default_rng(2), n_candidates=40,
        )
        assert ours.window_size < theirs.window_size
