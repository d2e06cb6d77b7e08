"""Blockwise Viterbi baseline over the same per-activity mixtures.

The transition matrix is either the hand-set default or one counted from
labelled training recordings (``count_transitions``); zero entries are exact
minus-infinity in the log domain so forbidden transitions can never appear
inside a decoded block. A stream is cut into consecutive blocks of
``window_w`` frames, and ``block_decoder`` carries the state prior from each
block to the next; ``predict_stream_hmm`` and the ``hmm`` bench method both
decode through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel
from .errors import DataError, NumericError
from .gmm import ActivityModelSet


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic state transition probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DataError("transition matrix must be square")
        if not np.isfinite(p).all() or (p < 0).any():
            raise DataError("transition probabilities must be finite and non-negative")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise DataError("transition matrix rows must sum to 1")
        object.__setattr__(self, "probs", p)

    @cached_property
    def log_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.probs)


def default_transition_matrix() -> TransitionMatrix:
    """Hand-calibrated defaults: strong self-transitions, physically absurd moves at zero."""
    rows = [
        # walking  running  g_up    g_down  sitting s_down  s_up    standing
        [0.99,     0.0025,  0.0025, 0.0025, 0,      0,      0,      0.0025],  # walking
        [0.0025,   0.99,    0.0025, 0.0025, 0,      0,      0,      0.0025],  # running
        [0.005,    0,       0.99,   0,      0,      0,      0,      0.005],   # going_up
        [0.005,    0,       0,      0.99,   0,      0,      0,      0.005],   # going_down
        [0,        0,       0,      0,      0.99,   0,      0.01,   0],       # sitting
        [0,        0,       0,      0,      0.01,   0.99,   0,      0],       # sitting_down
        [0,        0,       0,      0,      0,      0,      0.99,   0.01],    # standing_up
        [0.002,    0.002,   0.002,  0.002,  0,      0.002,  0,      0.99],    # standing
    ]
    return TransitionMatrix(np.array(rows))


def count_transitions(label_arrays) -> TransitionMatrix:
    """Frame-to-frame moves counted within each label array, plus one per cell, rows normalized.

    No move is counted across two arrays, so recordings never join.
    """
    counts = np.ones((N_ACTIVITIES, N_ACTIVITIES))
    for labels in label_arrays:
        ids = np.asarray(labels, dtype=np.int64) - 1
        np.add.at(counts, (ids[:-1], ids[1:]), 1)
    return TransitionMatrix(counts / counts.sum(axis=1, keepdims=True))


def viterbi_block(
    models: ActivityModelSet, trans: TransitionMatrix, prior, frames
) -> list[ActivityLabel]:
    """Maximum-probability state path for one block, decoded in the log domain.

    Ties break toward the lowest state id. Raises NumericError if no state is
    admissible at some step, which cannot happen with floored variances and a
    prior putting mass on at least one state.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.size == 0:
        raise DataError("viterbi_block needs at least one frame")
    if frames.shape[1] != models.dim:
        raise DataError(f"expected frames of length {models.dim}, got {frames.shape[1]}")
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (N_ACTIVITIES,) or (prior < 0).any():
        raise DataError(f"prior must be {N_ACTIVITIES} non-negative values")
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    log_trans = trans.log_probs
    n_frames = len(frames)

    delta = log_prior + models.frame_log_likelihoods(frames[0])
    if not (delta > -np.inf).any():
        raise NumericError("no admissible state at the start of a Viterbi block")
    back = np.empty((n_frames, N_ACTIVITIES), dtype=np.intp)
    state_idx = np.arange(N_ACTIVITIES)
    for t in range(1, n_frames):
        cand = delta[:, None] + log_trans
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], state_idx] + models.frame_log_likelihoods(frames[t])
        if not (delta > -np.inf).any():
            raise NumericError(f"no admissible state at block frame {t}")
    path = [int(np.argmax(delta))]
    for t in range(n_frames - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return [ALL_LABELS[s] for s in path]


def block_decoder(models: ActivityModelSet, trans: TransitionMatrix):
    """A decoder of one stream's consecutive blocks, called once per block in order.

    The first block starts from the uniform state prior; each later block
    starts from the transition row of the previous block's final decoded
    state, so decoding latency stays bounded by one block.
    """
    prior = np.full(N_ACTIVITIES, 1 / N_ACTIVITIES)

    def decode(block) -> list[ActivityLabel]:
        nonlocal prior
        labels = viterbi_block(models, trans, prior, block)
        prior = trans.probs[int(labels[-1]) - 1]
        return labels

    return decode


def predict_stream_hmm(
    models: ActivityModelSet,
    trans: TransitionMatrix,
    window_w: int,
    frames,
) -> list[ActivityLabel]:
    """Decode a stream in consecutive blocks of ``window_w`` frames with ``block_decoder``."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.size == 0:
        raise DataError("predict_stream_hmm needs a non-empty sequence")
    if window_w < 1:
        raise DataError("window_w must be positive")
    decode = block_decoder(models, trans)
    labels: list[ActivityLabel] = []
    for lo in range(0, len(frames), window_w):
        labels.extend(decode(frames[lo : lo + window_w]))
    return labels
