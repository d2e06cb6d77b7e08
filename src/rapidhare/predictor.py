"""Streaming arg-max classifier over a rolling window of per-frame log-likelihoods.

Every incoming frame is scored once against each activity mixture; the scores
enter a fixed-size ring whose running per-activity sums are the window
log-likelihoods. Per-frame cost is therefore independent of the window length:
exactly one mixture evaluation per activity plus O(1) bookkeeping. Running
sums are recomputed exactly from the ring at a fixed interval to bound
floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel
from .errors import DataError
from .gmm import ActivityModelSet, expansion_coefficients, log_pdf_batch


@dataclass(frozen=True)
class PredictorConfig:
    """Window length, optional class log-priors, and the drift resync interval.

    ``window_k`` counts the look-back depth, so the window spans at most
    ``window_k + 1`` frames including the current one. Absent priors mean
    uniform priors, which drop out of the arg-max entirely.
    """

    window_k: int = 26
    log_priors: tuple[float, ...] | None = None
    resync_interval: int = 1024

    def __post_init__(self):
        if self.window_k < 0:
            raise DataError("window_k must be non-negative")
        if self.resync_interval < 1:
            raise DataError("resync_interval must be positive")
        if self.log_priors is not None:
            priors = np.asarray(self.log_priors, dtype=np.float64)
            if priors.shape != (N_ACTIVITIES,) or not np.isfinite(np.exp(priors)).all():
                raise DataError(f"log_priors must be {N_ACTIVITIES} finite values")
            if abs(float(np.exp(priors).sum()) - 1.0) > 1e-9:
                raise DataError("exp(log_priors) must sum to 1")
            object.__setattr__(self, "log_priors", tuple(float(p) for p in priors))


def posterior(scores, log_priors=None) -> np.ndarray:
    """Normalize scores (plus optional log-priors) into class probabilities.

    Softmax with max-subtraction, so any common shift of the scores cancels.
    """
    z = np.asarray(scores, dtype=np.float64)
    if log_priors is not None:
        z = z + np.asarray(log_priors, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class Prediction:
    """One frame's decision: label, per-activity window scores, posterior on demand."""

    __slots__ = ("label", "scores", "_posterior")

    def __init__(self, label: ActivityLabel, scores: np.ndarray):
        self.label = label
        self.scores = scores
        self._posterior = None

    @property
    def posterior(self) -> np.ndarray:
        if self._posterior is None:
            self._posterior = posterior(self.scores)
        return self._posterior


class _FrameScorer:
    """All activities' log-densities from one precompiled matrix-vector product.

    Every component of every activity is one row of ``expansion_coefficients``
    stacked into a single matrix, and ``_x_buf`` holds the frame's
    ``expansion_lift``. One product plus one segmented log-sum-exp yields the
    per-activity log-likelihood vector without per-frame allocation.
    """

    def __init__(self, model_set: ActivityModelSet):
        models = [model_set.models[label] for label in ALL_LABELS]
        counts = [m.n_components for m in models]
        total = sum(counts)
        self.dim = model_set.dim
        self._coef = np.vstack(
            [expansion_coefficients(m.weights, m.means, m.variances) for m in models]
        )
        self._starts = np.cumsum([0] + counts[:-1])
        self._segment_of = np.repeat(np.arange(N_ACTIVITIES), counts)
        self._x_buf = np.ones(2 * self.dim + 1)
        self._comp = np.empty(total)
        self._seg_max = np.empty(N_ACTIVITIES)
        self._max_rep = np.empty(total)
        self._seg_sum = np.empty(N_ACTIVITIES)

    def scores(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        buf = self._x_buf
        dim = self.dim
        np.multiply(x, x, out=buf[:dim])
        buf[dim : 2 * dim] = x
        np.dot(self._coef, buf, out=self._comp)
        np.maximum.reduceat(self._comp, self._starts, out=self._seg_max)
        np.take(self._seg_max, self._segment_of, out=self._max_rep)
        np.subtract(self._comp, self._max_rep, out=self._comp)
        np.exp(self._comp, out=self._comp)
        np.add.reduceat(self._comp, self._starts, out=self._seg_sum)
        np.log(self._seg_sum, out=self._seg_sum)
        np.add(self._seg_sum, self._seg_max, out=out)
        return out


class PredictorSession:
    """Single-writer streaming state: likelihood ring, running window sums, counters.

    One frame is pushed at a time; sessions may move between threads between
    pushes and may share one immutable model set with other sessions.
    """

    def __init__(self, models: ActivityModelSet, cfg: PredictorConfig = PredictorConfig()):
        self.models = models
        self.cfg = cfg
        self.frames_seen = 0
        self.gmm_evaluations = 0
        self._scorer = _FrameScorer(models)
        self._capacity = cfg.window_k + 1
        self._ring = np.zeros((self._capacity, N_ACTIVITIES))
        self._sums = np.zeros(N_ACTIVITIES)
        self._pos = 0
        self._count = 0
        self._ll = np.empty(N_ACTIVITIES)
        self._scored = np.empty(N_ACTIVITIES)
        self._priors = None if cfg.log_priors is None else np.asarray(cfg.log_priors)

    def push_frame(self, x) -> Prediction:
        """Score one frame, advance the window, and return the current decision.

        Exactly one mixture evaluation per activity happens here regardless of
        the window length; eviction and the running sums cover the rest.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._scorer.dim,):
            raise DataError(f"expected a length-{self._scorer.dim} frame, got shape {x.shape}")
        ll = self._scorer.scores(x, out=self._ll)
        self.gmm_evaluations += N_ACTIVITIES
        if self._count == self._capacity:
            np.subtract(self._sums, self._ring[self._pos], out=self._sums)
        else:
            self._count += 1
        self._ring[self._pos] = ll
        np.add(self._sums, ll, out=self._sums)
        self._pos += 1
        if self._pos == self._capacity:
            self._pos = 0
        self.frames_seen += 1
        if self.frames_seen % self.cfg.resync_interval == 0:
            np.sum(self._ring[: self._count], axis=0, out=self._sums)
        if self._priors is None:
            scores = self._sums
        else:
            scores = np.add(self._sums, self._priors, out=self._scored)
        label = ALL_LABELS[int(np.argmax(scores))]
        return Prediction(label, scores.copy())


def new_session(models: ActivityModelSet, cfg: PredictorConfig = PredictorConfig()) -> PredictorSession:
    return PredictorSession(models, cfg)


def naive_window_scores(
    models: ActivityModelSet, frames, cfg: PredictorConfig = PredictorConfig()
) -> np.ndarray:
    """Per-frame window scores recomputed from scratch, with no incremental state.

    Densities come from the plain per-model batch evaluator and each frame's
    window sum is a fresh slice reduction, so this path shares none of the
    streaming session's caching and serves as its oracle.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.size == 0:
        return np.empty((0, N_ACTIVITIES))
    if frames.ndim != 2 or frames.shape[1] != models.dim:
        raise DataError(f"expected an (n, {models.dim}) matrix, got shape {frames.shape}")
    ll = np.column_stack([log_pdf_batch(models.models[label], frames) for label in ALL_LABELS])
    priors = None if cfg.log_priors is None else np.asarray(cfg.log_priors)
    k = cfg.window_k
    scores = np.empty_like(ll)
    for t in range(len(frames)):
        s = ll[max(0, t - k) : t + 1].sum(axis=0)
        scores[t] = s if priors is None else s + priors
    return scores


def predict_sequence_naive(
    models: ActivityModelSet, frames, cfg: PredictorConfig = PredictorConfig()
) -> list[ActivityLabel]:
    """Reference predictor over naive_window_scores; the oracle for push_frame."""
    scores = naive_window_scores(models, frames, cfg)
    return [ALL_LABELS[int(np.argmax(s))] for s in scores]
