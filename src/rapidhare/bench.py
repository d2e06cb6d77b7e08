"""Single-thread per-frame latency of the streaming session and the HMM baseline.

Frames are pre-materialized in memory so the timed path is exactly the
per-frame inference loop, never parsing or I/O. Methods: ``rapidhare`` times
each ``push_frame``; ``batch`` times ``push_block`` on BLOCK_ROWS-frame blocks
and ``hmm`` times each Viterbi block, both charged per frame by dividing each
block's wall time by its length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import N_ACTIVITIES
from .errors import DataError
from .gmm import ActivityModelSet
from .hmm import block_starts, default_transition_matrix, viterbi_block
from .predictor import BLOCK_ROWS, PredictorSession

BENCH_METHODS = ("rapidhare", "hmm", "batch")


@dataclass(frozen=True)
class BenchStats:
    """Per-frame latency summary in microseconds."""

    mean_us: float
    std_us: float
    p99_us: float
    frames: int
    repeats: int
    method: str


def _bench_frames(dim: int, frames: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(frames, dim))


def _time_rapidhare(models, window_k, X) -> np.ndarray:
    session = PredictorSession(models, window_k)
    samples = np.empty(len(X))
    clock = time.perf_counter
    for i, x in enumerate(X):
        t0 = clock()
        session.push_frame(x)
        samples[i] = clock() - t0
    return samples


def _time_batch(models, window_k, X) -> np.ndarray:
    session = PredictorSession(models, window_k)
    samples = np.empty(len(X))
    clock = time.perf_counter
    for lo in range(0, len(X), BLOCK_ROWS):
        block = X[lo : lo + BLOCK_ROWS]
        t0 = clock()
        session.push_block(block)
        samples[lo : lo + len(block)] = (clock() - t0) / len(block)
    return samples


def _time_hmm(models, trans, window_w, X) -> np.ndarray:
    samples = np.empty(len(X))
    clock = time.perf_counter
    prior = np.full(N_ACTIVITIES, 1 / N_ACTIVITIES)
    for lo in block_starts(len(X), window_w):
        block = X[lo : lo + window_w]
        t0 = clock()
        path = viterbi_block(models, trans, prior, block)
        dt = clock() - t0
        samples[lo : lo + len(block)] = dt / len(block)
        prior = trans.probs[int(path[-1]) - 1]
    return samples


def run_bench(
    models: ActivityModelSet,
    method: str = "rapidhare",
    frames: int = 2000,
    repeats: int = 5,
    window_k: int = 26,
    window_w: int = 10,
    seed: int = 0,
) -> BenchStats:
    """Measure mean/std/p99 per-frame wall time over several passes of a fixed stream.

    The mean and std summarize per-repeat means; the p99 pools every
    individual per-frame sample across repeats. The HMM baseline decodes with
    the default transition matrix.
    """
    if frames <= 0:
        raise DataError("frames must be positive")
    if repeats <= 0:
        raise DataError("repeats must be positive")
    if method not in BENCH_METHODS:
        raise DataError(f"unknown bench method: {method!r}")
    trans = default_transition_matrix()
    X = _bench_frames(models.dim, frames, seed)

    runner = {
        "rapidhare": lambda: _time_rapidhare(models, window_k, X),
        "hmm": lambda: _time_hmm(models, trans, window_w, X),
        "batch": lambda: _time_batch(models, window_k, X),
    }[method]

    runner()  # warm-up pass, untimed
    all_samples = []
    repeat_means = []
    for _ in range(repeats):
        samples = runner()
        all_samples.append(samples)
        repeat_means.append(samples.mean())
    pooled = np.concatenate(all_samples)
    return BenchStats(
        mean_us=float(np.mean(repeat_means) * 1e6),
        std_us=float(np.std(repeat_means) * 1e6),
        p99_us=float(np.percentile(pooled, 99) * 1e6),
        frames=frames,
        repeats=repeats,
        method=method,
    )
