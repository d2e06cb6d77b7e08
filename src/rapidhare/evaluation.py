"""Confusion counts, per-activity metrics, border-tolerant scoring, and the CV driver."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import ALL_LABELS, CHUNK_LINES, N_ACTIVITIES, ActivityLabel, Dataset, split_loso
from .errors import DataError
from .features import FeatureConfig
from .gmm import EmConfig, fit_activity_models
from .hmm import count_transitions, default_transition_matrix, predict_stream_hmm
from .predictor import PredictorSession, checked_window


def _as_label_ids(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 1 or arr.max() > N_ACTIVITIES):
        raise DataError("labels must be activity ids in 1..8")
    return arr.astype(np.int64, copy=False)


def confusion(true_labels, predicted) -> np.ndarray:
    """N x N count matrix: rows are true labels, columns predictions."""
    t = _as_label_ids(true_labels)
    p = _as_label_ids(predicted)
    if t.shape != p.shape:
        raise DataError(f"label lists differ in length: {len(t)} vs {len(p)}")
    counts = np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=np.int64)
    np.add.at(counts, (t - 1, p - 1), 1)
    return counts


@dataclass
class ClassMetrics:
    """Recall, precision, F1, and one-vs-rest accuracy, all in percent."""

    recall: float
    precision: float
    f1: float
    accuracy: float


@dataclass
class EvalReport:
    """Confusion counts with per-activity and unweighted macro metrics."""

    confusion: np.ndarray
    per_activity: dict[ActivityLabel, ClassMetrics]
    macro: ClassMetrics


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(conf: np.ndarray) -> EvalReport:
    """Per-class and macro metrics from a confusion matrix.

    Per-class accuracy is one-vs-rest: (TP + TN) / total. Classes with no
    support report zeros and still enter the unweighted macro averages.
    """
    conf = np.asarray(conf)
    if conf.shape != (N_ACTIVITIES, N_ACTIVITIES):
        raise DataError(f"confusion matrix must be {N_ACTIVITIES}x{N_ACTIVITIES}")
    total = float(conf.sum())
    per = {}
    for i, label in enumerate(ALL_LABELS):
        tp = float(conf[i, i])
        fn = float(conf[i].sum()) - tp
        fp = float(conf[:, i].sum()) - tp
        tn = total - tp - fn - fp
        recall = _safe_ratio(tp, tp + fn)
        precision = _safe_ratio(tp, tp + fp)
        f1 = _safe_ratio(2.0 * precision * recall, precision + recall)
        accuracy = _safe_ratio(tp + tn, total)
        per[label] = ClassMetrics(100.0 * recall, 100.0 * precision, 100.0 * f1, 100.0 * accuracy)
    return EvalReport(conf, per, _mean_metrics(list(per.values())))


def _segments(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Contiguous runs of equal labels as (start, end_exclusive, label)."""
    edges = np.flatnonzero(np.diff(labels)) + 1
    bounds = np.concatenate([[0], edges, [len(labels)]])
    return [
        (int(bounds[i]), int(bounds[i + 1]), int(labels[bounds[i]]))
        for i in range(len(bounds) - 1)
    ]


def _tolerance_pass(true_ids: np.ndarray, pred: np.ndarray, tol: int) -> np.ndarray:
    out = pred.copy()
    segs = _segments(true_ids)
    for (a_start, a_end, a_label), (b_start, b_end, b_label) in zip(segs, segs[1:]):
        # The swap is forgiven only when the follow-up activity is actually
        # recognized past the tolerant zone (anywhere, for short segments).
        check_from = b_start + tol if (b_end - b_start) > tol else b_start
        if not (pred[check_from:b_end] == b_label).any():
            continue
        tail = slice(max(a_start, a_end - tol), a_end)
        out[tail] = np.where(pred[tail] == b_label, a_label, out[tail])
        head = slice(b_start, min(b_end, b_start + tol))
        out[head] = np.where(pred[head] == a_label, b_label, out[head])
    return out


def apply_border_tolerance(true_labels, predicted, tol: int) -> np.ndarray:
    """Forgive label swaps within ``tol`` frames of each ground-truth boundary.

    At a boundary from activity A to activity B, predictions of B in the last
    ``tol`` frames of the A segment and predictions of A in the first ``tol``
    frames of the B segment are rewritten to the true label, provided B is
    recognized somewhere past the tolerant zone. Passes repeat until stable so
    forgiveness at one boundary that newly satisfies another boundary's
    recognition condition is honored, which makes the whole adjustment
    idempotent. Frames farther than ``tol`` from every boundary never change,
    and the adjustment can only increase the number of correct frames.
    """
    if tol < 0:
        raise DataError("tolerance must be non-negative")
    t = _as_label_ids(true_labels)
    p = _as_label_ids(predicted)
    if t.shape != p.shape:
        raise DataError(f"label lists differ in length: {len(t)} vs {len(p)}")
    if tol == 0 or t.size == 0:
        return p
    current = p
    for _ in range(len(t)):
        adjusted = _tolerance_pass(t, current, tol)
        if np.array_equal(adjusted, current):
            break
        current = adjusted
    return current


def _mean_metrics(values: list[ClassMetrics]) -> ClassMetrics:
    return ClassMetrics(
        float(np.mean([v.recall for v in values])),
        float(np.mean([v.precision for v in values])),
        float(np.mean([v.f1 for v in values])),
        float(np.mean([v.accuracy for v in values])),
    )


def aggregate_reports(reports: list[EvalReport]) -> EvalReport:
    """Fold-level aggregation: confusions summed, metric values averaged unweighted."""
    if not reports:
        raise DataError("nothing to aggregate")
    conf = np.sum([r.confusion for r in reports], axis=0)
    per = {
        label: _mean_metrics([r.per_activity[label] for r in reports]) for label in ALL_LABELS
    }
    macro = _mean_metrics([r.macro for r in reports])
    return EvalReport(conf, per, macro)


def run_cv(
    dataset: Dataset,
    counts=None,
    em_cfg: EmConfig = EmConfig(),
    feat_cfg: FeatureConfig = FeatureConfig(),
    window_k: int = 26,
    transitions: str = "builtin",
    window_w: int = 10,
    tolerance: int = 25,
    method: str = "rapidhare",
) -> tuple[EvalReport, EvalReport]:
    """Leave-one-subject-out cross-validation; returns (raw, border-tolerant) reports.

    Every subject takes one turn as the test subject; its cyclic successor is
    held out for validation and stays unused by both methods here, keeping
    folds comparable. Per-fold training seeds derive from the base seed, so
    the whole run is reproducible. With ``transitions="learned"`` the ``hmm``
    method counts each fold's matrix from its training subjects' labels
    alone. The settings are checked, and then ``split_loso`` rejects fewer
    than three subjects, before any training.
    """
    if method not in ("rapidhare", "hmm"):
        raise DataError(f"unknown method: {method!r}")
    if method == "rapidhare":
        checked_window(window_k)
    elif window_w < 1:
        raise DataError("window_w must be positive")
    if tolerance < 0:
        raise DataError("tolerance must be non-negative")
    if transitions not in ("builtin", "learned"):
        raise DataError(f"unknown transitions: {transitions!r}")

    def fold(i, subject):
        train, _validation, test = split_loso(dataset, subject)
        fold_cfg = replace(em_cfg, seed=em_cfg.seed + 1009 * i)
        model_set, _ = fit_activity_models(
            [feat_cfg.apply(s) for s in train.sequences], counts, fold_cfg
        )
        trans = default_transition_matrix()
        if transitions == "learned":
            trans = count_transitions([s.labels for s in train.sequences])
        conf_raw = np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=np.int64)
        conf_tol = np.zeros_like(conf_raw)
        for seq in test.sequences:
            fseq = feat_cfg.apply(seq)
            if method == "rapidhare":
                session = PredictorSession(model_set, window_k)
                pred = np.empty(fseq.n_frames, dtype=np.int64)
                for lo in range(0, len(pred), CHUNK_LINES):  # one block of scores at a time
                    block = session.push_block(fseq.frames[lo : lo + CHUNK_LINES])
                    pred[lo : lo + CHUNK_LINES] = block.argmax(axis=1) + 1
            else:
                decoded = predict_stream_hmm(model_set, trans, window_w, fseq.frames)
                pred = np.asarray(decoded)
            conf_raw += confusion(fseq.labels, pred)
            adjusted = apply_border_tolerance(fseq.labels, pred, tolerance)
            conf_tol += confusion(fseq.labels, adjusted)
        return metrics(conf_raw), metrics(conf_tol)

    subjects = dataset.subjects()
    raw_reports, tol_reports = zip(*map(fold, range(len(subjects)), subjects))
    return aggregate_reports(list(raw_reports)), aggregate_reports(list(tol_reports))
