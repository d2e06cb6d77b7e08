"""Synthetic labeled streams from known mixtures, for oracle tests and demos.

Frames are drawn independently within each activity segment; there is no
temporal correlation because none is needed to exercise the classifier math.
Default generators place each activity at a distinct sign-pattern mean with a
spread far smaller than the pattern separation, and they stay inside [-1, 1]
so generated datasets can round-trip through the recording file format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ALL_LABELS, N_ACTIVITIES, ActivityLabel, ChannelSpec, Dataset, LabeledSequence, _LineReader
from .errors import DataError
from .gmm import GmmModel
from .hmm import TransitionMatrix

DEFAULT_SYNTH_SEED = 20260101
# The largest draws accepted: the frame width of default_generators, and the
# frame values of a whole dataset (n_subjects * frames_per_subject * dim, 800 MB
# as float64), which every SynthSpec checks. Both are checked before anything
# is allocated.
MAX_DIM = 1024
MAX_DRAW_VALUES = 100_000_000


def _check_draw(n_subjects: int, frames_per_subject: int, dim: int) -> None:
    n_values = n_subjects * frames_per_subject * dim
    if n_values > MAX_DRAW_VALUES:
        raise DataError(
            f"a draw of {n_values} frame values (n_subjects * frames_per_subject * dim) "
            f"exceeds the cap of {MAX_DRAW_VALUES}"
        )


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to draw a reproducible labeled dataset."""

    generators: dict[ActivityLabel, GmmModel]
    activity_chain: TransitionMatrix
    n_subjects: int = 3
    frames_per_subject: int = 20000
    min_segment: int = 200
    seed: int = DEFAULT_SYNTH_SEED

    def __post_init__(self):
        if set(self.generators) != set(ALL_LABELS):
            raise DataError("need one generator mixture per activity")
        dims = {g.dim for g in self.generators.values()}
        if len(dims) != 1:
            raise DataError("generator mixtures must share one dimensionality")
        if self.n_subjects < 1 or self.frames_per_subject < 1 or self.min_segment < 1:
            raise DataError("subject, frame, and segment counts must be positive")
        _check_draw(self.n_subjects, self.frames_per_subject, self.dim)
        if self.frames_per_subject < self.min_segment:
            raise DataError("frames_per_subject must be at least min_segment")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        if self.activity_chain.probs.shape != (N_ACTIVITIES, N_ACTIVITIES):
            raise DataError("activity chain must cover all activities")

    @property
    def dim(self) -> int:
        return next(iter(self.generators.values())).dim


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


def uniform_activity_chain() -> TransitionMatrix:
    """Segment-level chain: the next activity is uniform over the other seven."""
    p = np.full((N_ACTIVITIES, N_ACTIVITIES), 1.0 / (N_ACTIVITIES - 1))
    np.fill_diagonal(p, 0.0)
    return TransitionMatrix(p)


def default_spec(**overrides) -> SynthSpec:
    """The desk-scale defaults: 3 subjects, 20k frames each, 6 dims, 200-frame segments.

    A draw of more than ``MAX_DRAW_VALUES`` frame values is rejected first.
    """
    dim = overrides.pop("dim", 6)
    _check_draw(
        overrides.get("n_subjects", SynthSpec.n_subjects),
        overrides.get("frames_per_subject", SynthSpec.frames_per_subject),
        dim,
    )
    separation = overrides.pop("separation", 0.6)
    sigma = overrides.pop("sigma", 0.02)
    overrides.setdefault("generators", default_generators(dim, separation, sigma))
    overrides.setdefault("activity_chain", uniform_activity_chain())
    return SynthSpec(**overrides)


def synth_channels(dim: int) -> list[ChannelSpec]:
    return [ChannelSpec(f"acc_sig_{i}") for i in range(dim)]


def _label_stream(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.frames_per_subject
    labels = np.empty(n, dtype=np.int64)
    chain = spec.activity_chain.probs
    current = int(rng.integers(N_ACTIVITIES))
    pos = 0
    while pos < n:
        length = spec.min_segment + int(rng.integers(spec.min_segment + 1))
        end = pos + length
        # The closing segment absorbs any remainder shorter than min_segment.
        if n - end < spec.min_segment:
            end = n
        labels[pos:end] = current + 1
        pos = end
        current = int(rng.choice(N_ACTIVITIES, p=chain[current]))
    return labels


def _sample_mixture(model: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    noise = rng.standard_normal((n, model.dim))
    return model.means[comp] + noise * np.sqrt(model.variances[comp])


def generate(spec: SynthSpec) -> Dataset:
    """Draw one labeled sequence per subject; bit-identical for a fixed seed."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_subjects)
    sequences = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        labels = _label_stream(spec, rng)
        frames = np.empty((spec.frames_per_subject, spec.dim))
        for label_id in np.unique(labels):
            mask = labels == label_id
            frames[mask] = _sample_mixture(
                spec.generators[ActivityLabel(int(label_id))], int(mask.sum()), rng
            )
        sequences.append(LabeledSequence(f"{i + 1:02d}", frames, labels))
    return Dataset(sequences, synth_channels(spec.dim))


_INT_KEYS = {"n_subjects", "frames_per_subject", "dim", "min_segment", "seed"}
_FLOAT_KEYS = {"separation", "sigma"}


def load_spec(path) -> SynthSpec:
    """Read a spec from a ``key value`` text file; blank and ``#`` lines are skipped.

    A bad line names ``file:line``; a spec that fails its own checks names the file.
    """
    r = _LineReader(path, "spec", skip=lambda line: line.lstrip()[:1] in ("", "#"))
    overrides = {}
    while r.remaining:
        parts = r.next("").split()
        if len(parts) != 2:
            r.fail("expected 'key value'")
        key, value = parts
        if key not in _INT_KEYS | _FLOAT_KEYS:
            r.fail(f"unknown key {key!r}")
        if key in overrides:
            r.fail(f"key {key!r} given twice")
        try:
            overrides[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            r.fail(f"bad value for {key!r}")
    return r.check(0, lambda: default_spec(**overrides))
