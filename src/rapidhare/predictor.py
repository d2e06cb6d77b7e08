"""Streaming arg-max classifier over a rolling window of per-frame log-likelihoods.

Every incoming frame is scored once against each activity mixture; the scores
enter a fixed-size ring whose running per-activity sums are the window
log-likelihoods. Per-frame cost is therefore independent of the window length:
exactly one mixture evaluation per activity plus O(1) bookkeeping. Running
sums are recomputed exactly from the ring every ``RESYNC_INTERVAL`` frames to
bound floating-point drift, and also on the frame whose window total falls far
below the largest total since the last recomputation, which is the frame that
evicts a row dwarfing the rest of the window. The window length ``window_k``
is the one setting: it counts the look-back depth, so a window spans at most
``window_k + 1`` frames including the current one.

The block form ``PredictorSession.push_block`` labels frames that are already
in memory: it scores ``BLOCK_ROWS`` frames per matrix product and sums each
window exactly, from the session's last ``window_k`` rows onwards, so it has
no drift at all. Both forms share one state and can be mixed freely.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel
from .errors import DataError
from .gmm import ActivityModelSet, expansion_coefficients, expansion_lift, log_pdf_batch

RESYNC_INTERVAL = 1024  # frames between exact recomputations of the window sums
BLOCK_ROWS = 256  # frames per matrix product in push_block
# A window total this many times below its peak since the last exact
# recomputation triggers one: the running sums then carry rounding error from
# values over 2**10 times their own size.
_CANCELLATION_RATIO = 1024.0


def _checked_window(window_k: int) -> int:
    if window_k < 0:
        raise DataError("window_k must be non-negative")
    return window_k


def posterior(scores) -> np.ndarray:
    """Normalize scores into class probabilities along the last axis.

    Softmax with max-subtraction, so any common shift of the scores cancels;
    a block of score rows gives one probability row per frame.
    """
    z = np.asarray(scores, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    """All activities' log-densities from one precompiled matrix product.

    Every component of every activity is one row of ``expansion_coefficients``
    stacked into a single matrix, and ``_x_buf`` holds the frame's
    ``expansion_lift``. One product plus one segmented log-sum-exp yields the
    per-activity log-likelihood vector without per-frame allocation;
    ``block_scores`` does the same for a block of frames with one product.
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

    def block_scores(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``scores`` of every row of X into the same row of ``out``."""
        comp = expansion_lift(X) @ self._coef.T
        seg_max = np.maximum.reduceat(comp, self._starts, axis=1)
        comp -= seg_max[:, self._segment_of]
        np.exp(comp, out=comp)
        np.log(np.add.reduceat(comp, self._starts, axis=1), out=out)
        out += seg_max
        return out


class PredictorSession:
    """Single-writer streaming state: likelihood ring, running window sums, counters.

    Frames are pushed one at a time or in blocks; sessions may move between
    threads between pushes and may share one immutable model set with other
    sessions.
    """

    def __init__(self, models: ActivityModelSet, window_k: int = 26):
        self.models = models
        self.frames_seen = 0
        self.gmm_evaluations = 0
        self._scorer = _FrameScorer(models)
        self._capacity = _checked_window(window_k) + 1
        self._ring = np.zeros((self._capacity, N_ACTIVITIES))
        self._sums = np.zeros(N_ACTIVITIES)
        self._next_sums = np.empty(N_ACTIVITIES)
        self._pos = 0
        self._count = 0
        self._peak = 0.0  # largest |window total| since the last exact recomputation
        self._ll = np.empty(N_ACTIVITIES)

    def push_frame(self, x) -> Prediction:
        """Score one frame, advance the window, and return the current decision.

        Exactly one mixture evaluation per activity happens here regardless of
        the window length; eviction and the running sums cover the rest. A
        frame after which the window scores or their total would not be
        finite (NaN or infinite input, or log-likelihoods too large to sum)
        raises DataError and leaves the session exactly as it was.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._scorer.dim,):
            raise DataError(f"expected a length-{self._scorer.dim} frame, got shape {x.shape}")
        ll = self._scorer.scores(x, out=self._ll)
        sums = self._next_sums
        full = self._count == self._capacity
        if full:
            np.subtract(self._sums, self._ring[self._pos], out=sums)
            np.add(sums, ll, out=sums)
        else:
            np.add(self._sums, ll, out=sums)
        total = abs(float(sums.sum()))
        if not math.isfinite(total):
            raise DataError("frame gives non-finite activity scores")
        self._next_sums, self._sums = self._sums, sums
        self.gmm_evaluations += N_ACTIVITIES
        if not full:
            self._count += 1
        self._ring[self._pos] = ll
        self._pos += 1
        if self._pos == self._capacity:
            self._pos = 0
        self.frames_seen += 1
        self._peak = max(self._peak, total)
        if self.frames_seen % RESYNC_INTERVAL == 0 or total * _CANCELLATION_RATIO < self._peak:
            np.sum(self._ring[: self._count], axis=0, out=sums)
            self._peak = abs(float(sums.sum()))
        label = ALL_LABELS[int(np.argmax(sums))]
        return Prediction(label, sums.copy())

    def push_block(self, frames) -> np.ndarray:
        """Score a block of frames and return their window scores, one row per frame.

        The result and the session afterwards are those of pushing the rows
        one by one, except that every window is summed exactly, oldest row
        first, from the session's last ``window_k`` rows onwards. If any
        frame's window scores or their total would not be finite, DataError
        names that frame by its index in the whole stream and the session is
        left exactly as it was.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.size == 0:
            return np.empty((0, N_ACTIVITIES))
        if frames.ndim != 2 or frames.shape[1] != self._scorer.dim:
            raise DataError(
                f"expected an (n, {self._scorer.dim}) block, got shape {frames.shape}"
            )
        n, cap = len(frames), self._capacity
        k = cap - 1
        # ll holds the last k rows in window order, zero-padded, then the block's.
        ll = np.zeros((k + n, N_ACTIVITIES))
        kept = min(self._count, k)
        ll[k - kept : k] = self._ring[(self._pos - kept + np.arange(kept)) % cap]
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(n, lo + BLOCK_ROWS)
            self._scorer.block_scores(frames[lo:hi], ll[k + lo : k + hi])
        scores = ll[:n].copy()
        for lag in range(1, cap):
            scores += ll[lag : lag + n]
        totals = scores.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            raise DataError(f"frame {self.frames_seen + int(bad[0])}: non-finite activity scores")
        entering = min(n, cap)
        self._ring[(self._pos + np.arange(n - entering, n)) % cap] = ll[k + n - entering :]
        self._pos = (self._pos + n) % cap
        self._count = min(cap, self._count + n)
        self._sums[:] = scores[-1]
        self._peak = abs(float(totals[-1]))
        self.frames_seen += n
        self.gmm_evaluations += N_ACTIVITIES * n
        return scores


def naive_window_scores(models: ActivityModelSet, frames, window_k: int = 26) -> np.ndarray:
    """Per-frame window scores recomputed from scratch, with no incremental state.

    Densities come from the plain per-model batch evaluator and each frame's
    window sum is a fresh slice reduction, so this path shares none of the
    streaming session's caching and serves as its oracle.
    """
    k = _checked_window(window_k)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.size == 0:
        return np.empty((0, N_ACTIVITIES))
    if frames.ndim != 2 or frames.shape[1] != models.dim:
        raise DataError(f"expected an (n, {models.dim}) matrix, got shape {frames.shape}")
    ll = np.column_stack([log_pdf_batch(models.models[label], frames) for label in ALL_LABELS])
    scores = np.empty_like(ll)
    for t in range(len(frames)):
        scores[t] = ll[max(0, t - k) : t + 1].sum(axis=0)
    return scores


def predict_sequence_naive(
    models: ActivityModelSet, frames, window_k: int = 26
) -> list[ActivityLabel]:
    """Reference predictor over naive_window_scores; the oracle for push_frame."""
    scores = naive_window_scores(models, frames, window_k)
    return [ALL_LABELS[int(np.argmax(s))] for s in scores]
