"""Streaming arg-max classifier over a rolling window of per-frame log-likelihoods.

Every incoming frame is scored once against each activity mixture, and its
window score is the sum of its own log-likelihoods and those of the
``window_k`` frames before it, added oldest row first. Per frame that is
exactly one mixture evaluation per activity plus ``window_k + 1`` additions
of 8-vectors. Each window is summed afresh from its rows, so no rounding
error carries over from one frame to the next. The window length ``window_k``
is the one setting: it counts the look-back depth, so a window spans at most
``window_k + 1`` frames including the current one.

The session keeps its last ``window_k`` rows twice over in one ring, so the
look-back is always one contiguous slice in window order. ``push_frame``
scores the frame straight into the slot after that slice, which holds the
oldest row's second copy, reduces the look-back and the new row as one slice
and returns the frame's (8,) window-score row; a rejected frame gives the
slot its old row back. The frame's label is
``ALL_LABELS[int(scores.argmax())]`` and its class probabilities are
``posterior(scores)``. The block form ``PredictorSession.push_block`` takes
frames that are already in memory and returns one such row per frame; it adds
each window's rows in the same order, but its rows come from one matrix product
per ``BLOCK_ROWS`` frames, so their low bits can differ from ``push_frame``'s.
The two forms share one state and can be mixed freely.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel
from .errors import DataError
from .gmm import ActivityModelSet, expansion_coefficients, expansion_lift, log_pdf_batch

BLOCK_ROWS = 256  # frames per matrix product in push_block
MAX_WINDOW_K = 100_000  # about half an hour at 56.35 Hz; the ring holds 2 * window_k rows
_NON_FINITE = "frame gives non-finite activity scores"


def checked_window(window_k: int) -> int:
    """``window_k``, after a DataError if it is outside 0..MAX_WINDOW_K."""
    if not 0 <= window_k <= MAX_WINDOW_K:
        raise DataError(f"window_k must be in 0..{MAX_WINDOW_K}, got {window_k}")
    return window_k


def posterior(scores) -> np.ndarray:
    """Normalize scores into class probabilities along the last axis.

    Softmax with max-subtraction, so any common shift of the scores cancels;
    a block of score rows gives one probability row per frame.
    """
    z = np.asarray(scores, dtype=np.float64)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


class _FrameScorer:
    """All activities' log-densities from one precompiled matrix product.

    Every component of every activity is one row of ``expansion_coefficients``
    stacked into one matrix. ``scores`` multiplies it by one frame lifted into
    ``_x_buf``, ``block_scores`` by ``expansion_lift`` of a block, a column per
    frame; both end in ``_log_sums``, one segmented log-sum-exp per activity.
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
        self._x_sq, self._x_lin = self._x_buf[: self.dim], self._x_buf[self.dim : 2 * self.dim]
        self._comp = np.empty(total)
        self._seg_max = np.empty(N_ACTIVITIES)
        self._max_rep = np.empty(total)

    def _log_sums(self, comp, seg_max, max_rep, out):
        """Each activity's log-sum-exp of its rows of ``comp`` into ``out``; ``comp`` is overwritten."""
        np.maximum.reduceat(comp, self._starts, axis=0, out=seg_max)
        # The method form with mode="clip" skips np.take's dispatch and its
        # buffered copy; _segment_of holds valid indices by construction.
        seg_max.take(self._segment_of, axis=0, out=max_rep, mode="clip")
        np.subtract(comp, max_rep, out=comp)
        np.exp(comp, out=comp)
        np.add.reduceat(comp, self._starts, axis=0, out=out)
        np.log(out, out=out)
        out += seg_max
        return out

    def scores(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(x, x, out=self._x_sq)
        self._x_lin[...] = x
        np.dot(self._coef, self._x_buf, out=self._comp)
        return self._log_sums(self._comp, self._seg_max, self._max_rep, out)

    def block_scores(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``scores`` of every row of X into the same row of ``out``."""
        comp = self._coef @ expansion_lift(X)
        return self._log_sums(comp, np.empty((N_ACTIVITIES, len(X))), np.empty_like(comp), out.T)


class PredictorSession:
    """Single-writer streaming state: the last ``window_k`` log-likelihood rows and counters.

    Frames are pushed one at a time or in blocks; sessions may move between
    threads between pushes and may share one immutable model set with other
    sessions.
    """

    def __init__(self, models: ActivityModelSet, window_k: int = 26):
        self.frames_seen = 0
        self.gmm_evaluations = 0
        self._scorer = _FrameScorer(models)
        self._k = checked_window(window_k)
        # Each row is written at _pos and _pos + k, so _ring[_pos : _pos + k]
        # is the look-back, oldest first; rows not yet written are zero.
        self._ring = np.zeros((2 * self._k, N_ACTIVITIES))
        self._pos = 0

    def push_frame(self, x) -> np.ndarray:
        """Score one frame, advance the window, and return its window scores.

        The result is a new (8,) float64 array, one score per activity in
        ``ALL_LABELS`` order: the look-back rows summed oldest first, plus this
        frame's. Exactly one mixture evaluation per activity happens here.
        A frame after which the window scores or their total would not be
        finite (NaN or infinite input, or log-likelihoods too large to sum)
        raises DataError and leaves the session exactly as it was.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._scorer.dim,):
            raise DataError(f"expected a length-{self._scorer.dim} frame, got shape {x.shape}")
        ring, p, k = self._ring, self._pos, self._k
        if k == 0:
            sums = self._scorer.scores(x, out=np.empty(N_ACTIVITIES))
            if not math.isfinite(np.add.reduce(sums)):
                raise DataError(_NON_FINITE)
        else:
            # The new row goes over the oldest row's second copy, so the window
            # is one slice: the look-back oldest first, then this frame.
            new = self._scorer.scores(x, out=ring[p + k])
            sums = np.add.reduce(ring[p : p + k + 1], axis=0)
            if not math.isfinite(np.add.reduce(sums)):
                new[:] = ring[p]  # the oldest row's second copy again
                raise DataError(_NON_FINITE)
            ring[p] = new
            self._pos = p + 1 if p + 1 < k else 0
        self.frames_seen += 1
        self.gmm_evaluations += N_ACTIVITIES
        return sums

    def push_block(self, frames) -> np.ndarray:
        """Score a block of frames and return their window scores, one row per frame.

        Every window is summed oldest row first, as in ``push_frame``, from the
        session's last ``window_k`` rows onwards; the rows' low bits can differ
        from ``push_frame``'s and with the block length. If any frame's window
        scores or their total would not be finite, DataError names that frame
        by its index in the whole stream and the session is left exactly as
        it was.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.size == 0:
            return np.empty((0, N_ACTIVITIES))
        if frames.ndim != 2 or frames.shape[1] != self._scorer.dim:
            raise DataError(
                f"expected an (n, {self._scorer.dim}) block, got shape {frames.shape}"
            )
        n, k = len(frames), self._k
        # ll holds the look-back in window order, then the block's rows.
        ll = np.empty((k + n, N_ACTIVITIES))
        ll[:k] = self._ring[self._pos : self._pos + k]
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(n, lo + BLOCK_ROWS)
            self._scorer.block_scores(frames[lo:hi], ll[k + lo : k + hi])
        scores = ll[:n].copy()
        for lag in range(1, k + 1):
            scores += ll[lag : lag + n]
        bad = np.flatnonzero(~np.isfinite(scores.sum(axis=1)))
        if bad.size:
            raise DataError(f"frame {self.frames_seen + int(bad[0])}: non-finite activity scores")
        self._ring[:k] = self._ring[k:] = ll[n:]
        self._pos = 0
        self.frames_seen += n
        self.gmm_evaluations += N_ACTIVITIES * n
        return scores


def naive_window_scores(models: ActivityModelSet, frames, window_k: int = 26) -> np.ndarray:
    """Per-frame window scores recomputed from scratch, with no incremental state.

    Densities come from the plain per-model batch evaluator and each frame's
    window sum is a fresh slice reduction, so this path shares none of the
    streaming session's caching and serves as its oracle. Like ``push_block``,
    it raises DataError at the first frame whose scores' total is not finite.
    """
    k = checked_window(window_k)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.size == 0:
        return np.empty((0, N_ACTIVITIES))
    if frames.ndim != 2 or frames.shape[1] != models.dim:
        raise DataError(f"expected an (n, {models.dim}) matrix, got shape {frames.shape}")
    ll = np.column_stack([log_pdf_batch(models.models[label], frames) for label in ALL_LABELS])
    scores = np.empty_like(ll)
    for t in range(len(frames)):
        scores[t] = ll[max(0, t - k) : t + 1].sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(scores.sum(axis=1)))
    if bad.size:
        raise DataError(f"frame {int(bad[0])}: non-finite activity scores")
    return scores


def predict_sequence_naive(
    models: ActivityModelSet, frames, window_k: int = 26
) -> list[ActivityLabel]:
    """Reference predictor over naive_window_scores; the oracle for push_frame."""
    scores = naive_window_scores(models, frames, window_k)
    return [ALL_LABELS[int(np.argmax(s))] for s in scores]
