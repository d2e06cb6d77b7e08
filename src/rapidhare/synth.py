"""Synthetic labeled streams from known mixtures, for oracle tests and demos.

Frames are drawn independently within each activity segment; there is no
temporal correlation because none is needed to exercise the classifier math.
Default generators place each activity at a distinct sign-pattern mean with a
spread far smaller than the pattern separation, and they stay inside [-1, 1]
so generated datasets can round-trip through the recording file format.
"""

from __future__ import annotations

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel, ChannelSpec, Dataset, LabeledSequence
from .errors import DataError
from .gmm import GmmModel

# The largest draws accepted: the frame width of default_generators, and the
# frame values of a whole dataset (n_subjects * frames_per_subject * dim, 800 MB
# as float64), which generate checks first. Both are checked before anything
# is allocated.
MAX_DIM = 1024
MAX_DRAW_VALUES = 100_000_000


def default_generators(
    dim: int = 6, separation: float = 0.6, sigma: float = 0.02
) -> dict[ActivityLabel, GmmModel]:
    """Well-separated single-component generators on sign-pattern means.

    Activity i's mean follows the binary code of i - 1 across dimensions, at
    +-``separation``; with the default spread the nearest pair of activities
    sits dozens of standard deviations apart.
    """
    if dim < 3:
        raise DataError("default generators need at least 3 dimensions")
    if dim > MAX_DIM:
        raise DataError(f"default generators take at most {MAX_DIM} dimensions, got {dim}")
    gens = {}
    for label in ALL_LABELS:
        bits = [(int(label) - 1) >> (d % 3) & 1 for d in range(dim)]
        mean = separation * (2.0 * np.array(bits, dtype=np.float64) - 1.0)
        gens[label] = GmmModel(
            np.array([1.0]), mean[None, :], np.full((1, dim), sigma * sigma)
        )
    return gens


def synth_channels(dim: int) -> list[ChannelSpec]:
    return [ChannelSpec(f"acc_sig_{i}") for i in range(dim)]


def _label_stream(n: int, min_segment: int, rng: np.random.Generator) -> np.ndarray:
    # Segment-level chain: the next activity is uniform over the other seven.
    chain = np.full((N_ACTIVITIES, N_ACTIVITIES), 1.0 / (N_ACTIVITIES - 1))
    np.fill_diagonal(chain, 0.0)
    labels = np.empty(n, dtype=np.int64)
    current = int(rng.integers(N_ACTIVITIES))
    pos = 0
    while pos < n:
        length = min_segment + int(rng.integers(min_segment + 1))
        end = pos + length
        # The closing segment absorbs any remainder shorter than min_segment.
        if n - end < min_segment:
            end = n
        labels[pos:end] = current + 1
        pos = end
        current = int(rng.choice(N_ACTIVITIES, p=chain[current]))
    return labels


def _sample_mixture(model: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    noise = rng.standard_normal((n, model.dim))
    return model.means[comp] + noise * np.sqrt(model.variances[comp])


def generate(
    n_subjects: int = 3, frames_per_subject: int = 20000, dim: int = 6, separation: float = 0.6,
    sigma: float = 0.02, min_segment: int = 200, seed: int = 1,
) -> Dataset:
    """Draw one labeled sequence per subject of ``default_generators(dim, separation, sigma)``.

    Bit-identical for a fixed seed. A draw of more than ``MAX_DRAW_VALUES``
    frame values is rejected first, before the generators are built.
    """
    n_values = n_subjects * frames_per_subject * dim
    if n_values > MAX_DRAW_VALUES:
        raise DataError(
            f"a draw of {n_values} frame values (n_subjects * frames_per_subject * dim) "
            f"exceeds the cap of {MAX_DRAW_VALUES}"
        )
    generators = default_generators(dim, separation, sigma)
    if n_subjects < 1 or frames_per_subject < 1 or min_segment < 1:
        raise DataError("subject, frame, and segment counts must be positive")
    if frames_per_subject < min_segment:
        raise DataError("frames_per_subject must be at least min_segment")
    if seed < 0:
        raise DataError("seed must be non-negative")
    children = np.random.SeedSequence(seed).spawn(n_subjects)
    sequences = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        labels = _label_stream(frames_per_subject, min_segment, rng)
        frames = np.empty((frames_per_subject, dim))
        for label_id in np.unique(labels):
            mask = labels == label_id
            frames[mask] = _sample_mixture(
                generators[ActivityLabel(int(label_id))], int(mask.sum()), rng
            )
        sequences.append(LabeledSequence(f"{i + 1:02d}", frames, labels))
    return Dataset(sequences, synth_channels(dim))
