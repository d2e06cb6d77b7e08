"""Seeded inputs for the stream and replay workloads: one model, one recording, stdin frames.

The model is drawn, not trained, so that a change to training cannot change
these inputs. Its shape is the one acceptance criterion 7 times: the default
component counts (86 components), parameters drawn as the test suite's
``random_gmm`` draws them, here at 42 dimensions (38 channels plus 4
directional features). The recording is sampled from that model's first 38
dimensions, activity segment by activity segment, and written in the
recording format with the full sensor names; the stdin frames are the scaled
values ``parse_recording`` yields for it, written with ``repr`` so the
``predict -`` child reads back the same float64 bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rapidhare.data import ALL_LABELS, LabeledSequence, full_sensor_channels, parse_recording, write_recording
from rapidhare.gmm import DEFAULT_COMPONENT_COUNTS, ActivityModelSet, GmmModel, save_model_set

N_CHANNELS = 38
# acc_rt_x, acc_rt_z, acc_lt_x, acc_lt_z: the thigh x/z accelerometers that
# `--df lag=15` finds by name in a file and `predict -` must be given by index.
DIRECTIONAL_SOURCES = (12, 14, 30, 32)
MODEL_DIM = N_CHANNELS + len(DIRECTIONAL_SOURCES)
SEGMENT_FRAMES = (200, 400)


@dataclass
class StreamInputs:
    model: Path
    recording: Path
    frames: Path  # the stdin form of the recording, one tab-separated frame per line
    frame_lines: list[bytes]
    sha256: dict[str, str]


def _random_gmm(rng, dim, k, mean_scale=1.2, var_lo=0.05, var_hi=0.6) -> GmmModel:
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    means = rng.uniform(-mean_scale, mean_scale, size=(k, dim))
    variances = rng.uniform(var_lo, var_hi, size=(k, dim))
    return GmmModel(weights, means, variances)


def draw_model_set(rng) -> ActivityModelSet:
    return ActivityModelSet({
        label: _random_gmm(rng, MODEL_DIM, DEFAULT_COMPONENT_COUNTS[label]) for label in ALL_LABELS
    })


def draw_recording(model_set: ActivityModelSet, n_frames: int, rng) -> LabeledSequence:
    """Activity segments of 200-400 frames, each sampled from its activity's mixture."""
    frames = np.empty((n_frames, N_CHANNELS))
    labels = np.empty(n_frames, dtype=np.int64)
    pos = 0
    label = ALL_LABELS[int(rng.integers(len(ALL_LABELS)))]
    while pos < n_frames:
        end = min(n_frames, pos + int(rng.integers(SEGMENT_FRAMES[0], SEGMENT_FRAMES[1] + 1)))
        m = model_set.models[label]
        comp = rng.choice(m.n_components, size=end - pos, p=m.weights)
        noise = rng.standard_normal((end - pos, N_CHANNELS))
        sample = m.means[comp, :N_CHANNELS] + noise * np.sqrt(m.variances[comp, :N_CHANNELS])
        frames[pos:end] = np.clip(sample, -1.0, 1.0)
        labels[pos:end] = int(label)
        others = [other for other in ALL_LABELS if other != label]
        label = others[int(rng.integers(len(others)))]
        pos = end
    return LabeledSequence("01", frames, labels)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_stream_inputs(work: Path, seed: int, n_frames: int) -> StreamInputs:
    """Write the model, the recording and its stdin form for one seed."""
    channels = full_sensor_channels()
    if [channels[i].name for i in DIRECTIONAL_SOURCES] != ["acc_rt_x", "acc_rt_z", "acc_lt_x", "acc_lt_z"]:
        raise ValueError("directional source indices no longer match the sensor layout")
    rng = np.random.default_rng(seed)
    model_set = draw_model_set(rng)
    model = work / "model.txt"
    save_model_set(model_set, model)
    recording = work / "recording.tsv"
    write_recording(draw_recording(model_set, n_frames, rng), channels, recording)
    scaled = parse_recording(recording, channels).frames
    frame_lines = [("\t".join(map(repr, row)) + "\n").encode() for row in scaled.tolist()]
    frames = work / "frames.tsv"
    frames.write_bytes(b"".join(frame_lines))
    sha = {p.name: sha256_file(p) for p in (model, recording, frames)}
    return StreamInputs(model, recording, frames, frame_lines, sha)
