"""Single-thread per-frame latency of the streaming session and the HMM baseline.

Frames are pre-materialized in memory so the timed path is exactly the
per-frame inference loop, never parsing or I/O. Every method runs one step
per consecutive block of the stream, timing each call once and charging its
wall time evenly to the block's frames: ``rapidhare`` is ``push_frame`` on
one-frame blocks, ``batch`` is ``push_block`` on BLOCK_ROWS-frame blocks and
``hmm`` is ``block_decoder`` on ``window_w``-frame Viterbi blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gmm import ActivityModelSet
from .hmm import block_decoder, default_transition_matrix
from .predictor import BLOCK_ROWS, PredictorSession

BENCH_METHODS = ("rapidhare", "hmm", "batch")
# The longest stream timed, checked before its frames are drawn: about five
# hours at 56.35 Hz, 336 MB of float64 frames at 42 dimensions.
MAX_BENCH_FRAMES = 1_000_000


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


def _time_blocks(X: np.ndarray, width: int, step) -> np.ndarray:
    """Per-frame seconds of ``step`` on consecutive ``width``-frame blocks of X.

    Each call is timed once and its time split evenly over its frames.
    """
    samples = np.empty(len(X))
    clock = time.perf_counter
    for lo in range(0, len(X), width):
        block = X[lo : lo + width]
        t0 = clock()
        step(block)
        samples[lo : lo + len(block)] = (clock() - t0) / len(block)
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
    if not 1 <= frames <= MAX_BENCH_FRAMES:
        raise DataError(f"frames must be in 1..{MAX_BENCH_FRAMES}, got {frames}")
    if repeats <= 0:
        raise DataError("repeats must be positive")
    if seed < 0:
        raise DataError("seed must be non-negative")
    if method not in BENCH_METHODS:
        raise DataError(f"unknown bench method: {method!r}")
    if method == "hmm" and window_w < 1:
        raise DataError("window_w must be positive")
    trans = default_transition_matrix()
    X = _bench_frames(models.dim, frames, seed)

    def runner() -> np.ndarray:
        if method == "hmm":
            return _time_blocks(X, window_w, block_decoder(models, trans))
        session = PredictorSession(models, window_k)
        if method == "batch":
            return _time_blocks(X, BLOCK_ROWS, session.push_block)
        return _time_blocks(X, 1, lambda block: session.push_frame(block[0]))

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
