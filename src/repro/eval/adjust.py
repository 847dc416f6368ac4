"""Segment-adjusted (point-adjust) scoring.

The multivariate-anomaly-detection literature the paper compares against
(OmniAnomaly, JumpStarter) scores with the *point-adjust* convention: an
anomaly segment counts as detected — all of its points/windows become true
positives — as soon as any part of it is flagged, because an operator who
receives one alert for an incident has been served.  Missing the entire
segment converts all of its windows to false negatives.  Verdicts outside
any segment are scored plainly (false alarms stay false alarms).

This module applies that convention at window granularity, both to the
fixed windows of the baselines and to DBCatcher's variable-width
judgement records.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.records import JudgementRecord
from repro.eval.metrics import ConfusionCounts

__all__ = [
    "label_segments",
    "adjusted_confusion_from_windows",
    "adjusted_confusion_from_records",
]


def label_segments(labels_1d: np.ndarray) -> List[Tuple[int, int]]:
    """Contiguous ``True`` runs of a 1-D label series as ``[start, end)``."""
    flags = np.asarray(labels_1d, dtype=bool)
    if flags.ndim != 1:
        raise ValueError(f"expected a 1-D label series, got {flags.shape}")
    padded = np.concatenate(([False], flags, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


def _adjust_one_database(
    spans: Sequence[Tuple[int, int]],
    predictions: np.ndarray,
    labels_1d: np.ndarray,
) -> ConfusionCounts:
    """Adjusted confusion for one database's window verdicts."""
    segments = label_segments(labels_1d)
    window_segment = np.full(len(spans), -1, dtype=int)
    for w, (start, end) in enumerate(spans):
        for segment_index, (seg_start, seg_end) in enumerate(segments):
            if start < seg_end and end > seg_start:
                window_segment[w] = segment_index
                break
    tp = fp = tn = fn = 0
    detected = {
        window_segment[w]
        for w in range(len(spans))
        if predictions[w] and window_segment[w] >= 0
    }
    for w in range(len(spans)):
        segment = window_segment[w]
        if segment >= 0:
            if segment in detected:
                tp += 1
            else:
                fn += 1
        elif predictions[w]:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def adjusted_confusion_from_windows(
    predictions: np.ndarray,
    spans: Sequence[Tuple[int, int]],
    labels: np.ndarray,
) -> ConfusionCounts:
    """Segment-adjusted confusion for fixed-window verdicts.

    Parameters
    ----------
    predictions:
        Boolean verdicts of shape ``(n_databases, n_windows)``.
    spans:
        The windows' tick spans.
    labels:
        Ground truth of shape ``(n_databases, n_ticks)``.
    """
    pred = np.asarray(predictions, dtype=bool)
    truth = np.asarray(labels, dtype=bool)
    if pred.ndim != 2 or pred.shape[1] != len(spans):
        raise ValueError(
            f"predictions must be (n_databases, {len(spans)}), got {pred.shape}"
        )
    if truth.shape[0] != pred.shape[0]:
        raise ValueError("labels and predictions disagree on database count")
    total = ConfusionCounts()
    for db in range(pred.shape[0]):
        total = total + _adjust_one_database(spans, pred[db], truth[db])
    return total


def adjusted_confusion_from_records(
    records: Sequence[JudgementRecord],
    labels: np.ndarray,
) -> ConfusionCounts:
    """Segment-adjusted confusion for DBCatcher's judgement records.

    Records are grouped per database; each record's (variable-width)
    window span plays the role of a fixed window above.
    """
    truth = np.asarray(labels, dtype=bool)
    if truth.ndim != 2:
        raise ValueError(f"labels must be (n_databases, n_ticks), got {truth.shape}")
    per_db: dict = {}
    for record in records:
        per_db.setdefault(record.database, []).append(record)
    total = ConfusionCounts()
    for db, db_records in per_db.items():
        if db >= truth.shape[0]:
            raise IndexError(
                f"record for database {db} but labels cover {truth.shape[0]}"
            )
        spans = [(r.window_start, r.window_end) for r in db_records]
        predictions = np.array([r.predicted_abnormal for r in db_records], dtype=bool)
        total = total + _adjust_one_database(spans, predictions, truth[db])
    return total
