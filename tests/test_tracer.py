"""The benchmark's tracer still finds every function it hooks.

``perfbench/tracer.py`` wraps functions at the names their callers look them
up by. A rename in the library would leave a hook wrapping a function nobody
calls, and its per-layer metric would silently read zero. Each command here
runs under the tracer in a child process, as ``perfbench/run.py --trace 1``
runs it, and must record spans under the names its layers go through.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rapidhare
from rapidhare import ALL_LABELS, parse_recording, read_header
from rapidhare.cli import main
from rapidhare.predictor import BLOCK_ROWS

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
N_FRAMES = 2400  # per recording
DF = ["--df", "lag=5,channels=0,2"]  # directional features, so the streamer runs too
TWO_EACH = ",".join(f"{label.label_name}=2" for label in ALL_LABELS)  # small, quick models


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    data, model = root / "data", root / "model.txt"
    synth = ["synth", "--out", str(data), "--subjects", "3", "--frames", str(N_FRAMES),
             "--dim", "4", "--min-segment", "40", "--seed", "99"]
    assert main(synth) == 0
    assert main(["train", str(data), "--out", str(model), "--components", TWO_EACH,
                 "--em-iters", "10", "--seed", "5", *DF]) == 0
    return data, model


def _traced(tmp_path, args, stdin=None):
    """Span counts by name and the metadata (counters, frames seen) of one traced command."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(rapidhare.__file__).resolve().parents[1])
    out = tmp_path / "spans.npz"
    child = subprocess.run(
        [sys.executable, str(TRACER), str(out), "--", *args],
        input=stdin, capture_output=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr.decode()
    with np.load(out) as npz:
        meta = json.loads(str(npz["meta"]))
        spans = npz["spans"]
    counts = Counter(meta["names"][int(nid)] for nid in spans[:, 0])
    return counts, meta


def _frames_as_stdin(recording: Path) -> bytes:
    """The recording's frames scaled to [-1, 1] as the file reader scales them, one per line."""
    seq = parse_recording(recording, read_header(recording))
    return "".join("\t".join(map(repr, row)) + "\n" for row in seq.frames.tolist()).encode()


def test_predict_file_hits_its_layers(inputs, tmp_path):
    """The recording is read in chunks, so neither the whole-file parse nor ``apply`` runs."""
    data, model = inputs
    recording = sorted(data.iterdir())[0]
    counts, meta = _traced(tmp_path, ["predict", str(recording), "--model", str(model), *DF])
    assert meta["frames_seen"] == N_FRAMES
    assert meta["gmm_evaluations"] == 8 * N_FRAMES
    for name in ("cli.main", "gmm.load_model_set", "predictor.session_init"):
        assert counts[name] == 1, (name, counts)
    assert counts["features.stream_push"] == -(-N_FRAMES // rapidhare.data.CHUNK_LINES)  # one per chunk
    assert counts["predictor.posterior"] == -(-N_FRAMES // BLOCK_ROWS)
    assert counts["data.parse_recording"] == counts["features.apply"] == 0


def test_predict_stdin_hits_its_layers(inputs, tmp_path):
    data, model = inputs
    stdin = _frames_as_stdin(sorted(data.iterdir())[0])
    counts, meta = _traced(tmp_path, ["predict", "-", "--model", str(model), *DF], stdin)
    assert meta["frames_seen"] == N_FRAMES
    for name in ("predictor.push_frame", "features.stream_push", "predictor.posterior"):
        assert counts[name] == N_FRAMES, (name, counts)
    assert counts["cli.stdin_read"] == N_FRAMES + 1  # the last read finds the end of input
    for name in ("cli.main", "gmm.load_model_set", "predictor.session_init"):
        assert counts[name] == 1, (name, counts)


def test_evaluate_hits_its_layers(inputs, tmp_path):
    data, _ = inputs
    args = ["evaluate", str(data), "--components", TWO_EACH, "--em-iters", "10", "--seed", "5", *DF]
    counts, meta = _traced(tmp_path, args)
    folds = 3
    assert meta["frames_seen"] == folds * N_FRAMES
    assert meta["counters"]["gmm.em_iters"] > 0
    assert meta["counters"]["tolerance.frames"] == folds * N_FRAMES
    for name, want in (
        ("cli.main", 1),
        ("data.load_dataset", 1),
        ("data.parse_recording", folds),
        ("gmm.fit_activity_models", folds),
        ("gmm.fit_em", 8 * folds),
        ("gmm.kmeans_init", 8 * folds),
        ("features.apply", 2 * folds),  # the training subject and the test subject
        ("features.stream_push", 2 * folds),
        ("predictor.session_init", folds),
        ("evaluation.apply_border_tolerance", folds),
    ):
        assert counts[name] == want, (name, counts)
