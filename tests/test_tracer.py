"""The benchmark's tracer still finds every function it hooks.

``perfbench/tracer.py`` wraps functions at the names their callers look them
up by. A rename in the library would leave a hook wrapping a function nobody
calls, and its per-layer metric would silently read zero. Every hook's name
is first looked up in the package, and each command here runs under the
tracer in a child process, as ``perfbench/run.py --trace 1`` runs it, and
must record spans under the names its layers go through.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rapidhare
from rapidhare import ALL_LABELS, load_model_set, parse_recording
from rapidhare.cli import _SETTLED_GAP, main
from rapidhare.features import DirectionalConfig, FeatureConfig
from rapidhare.gmm import save_model_set
from rapidhare.predictor import BLOCK_ROWS, PredictorSession

from conftest import identical_model_set, write_predictions_oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
N_FRAMES = 2400  # per recording
DF = ["--df", "lag=5,channels=0,2"]  # directional features, so the streamer runs too
FEATURES = FeatureConfig(None, DirectionalConfig(5, (0, 2)))  # what DF selects
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


@pytest.fixture(scope="module")
def plain_model(inputs, tmp_path_factory):
    """A model of the recordings' own channels, for runs without ``--df``."""
    data, _ = inputs
    model = tmp_path_factory.mktemp("plain") / "model.txt"
    assert main(["train", str(data), "--out", str(model), "--components", TWO_EACH,
                 "--em-iters", "10", "--seed", "5"]) == 0
    return model


def _resolve(expr, names):
    """The dotted text of an owner expression in the tracer and the object it names, or None."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id, (expr.id, None))
    text, owner = _resolve(expr.value, names)
    return f"{text}.{expr.attr}", getattr(owner, expr.attr, None)


def _hooks(body, names):
    """(line, owner text, owner, attribute) of each ``tr.patch``/``tr.count`` call in ``body``."""
    for node in body:
        if isinstance(node, ast.For):  # ``for owner in (cli, data): tr.patch(owner, ...)``
            for item in node.iter.elts:
                yield from _hooks(node.body, {**names, node.target.id: _resolve(item, names)})
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and (
            ast.unparse(node.value.func) in ("tr.patch", "tr.count")
        ):
            owner, attr = node.value.args[:2]
            yield (node.lineno, *_resolve(owner, names), attr.value)


def test_every_tracer_hook_names_a_function_of_the_package():
    """A rename fails here, with the hook's line, not inside a traced child run."""
    install = next(
        node for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    names = {}  # ``cli, data, ... = (rapidhare.cli, rapidhare.data, ...)``
    for node in install.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target, module in zip(node.targets[0].elts, node.value.elts):
                text = ast.unparse(module)
                names[target.id] = (text, importlib.import_module(text))
    hooks = list(_hooks(install.body, names))
    assert hooks, "no tr.patch or tr.count call found in install()"
    missing = [f"tracer.py:{line}: {text}.{attr}" for line, text, owner, attr in hooks
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench/tracer.py hooks names the package does not have: {missing}"


def _traced(tmp_path, args, stdin=None):
    """Span counts by name, the metadata (counters, frames seen) and the stdout of one traced command."""
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
    return counts, meta, child.stdout.decode()


def _frames_as_stdin(recording: Path) -> bytes:
    """The recording's frames scaled to [-1, 1] as the file reader scales them, one per line."""
    seq = parse_recording(recording)
    return "".join("\t".join(map(repr, row)) + "\n" for row in seq.frames.tolist()).encode()


def _window_scores(model_set, recording: Path) -> np.ndarray:
    """The window scores ``predict -`` and ``predict FILE`` compute for ``recording``, one row per frame."""
    frames = FEATURES.apply(parse_recording(recording)).frames
    session = PredictorSession(model_set, 26)
    return np.array([session.push_frame(x) for x in frames])


def _check_predict_file(data, model, tmp_path) -> int:
    """Checks one traced ``predict FILE`` run over the first recording; its count of posterior calls.

    The recording is read in chunks, so neither the whole-file parse nor
    ``apply`` runs. A 256-row block computes its posteriors once if one of its
    rows leads by less than the settled gap, and not at all otherwise.
    """
    recording = sorted(data.iterdir())[0]
    counts, meta, stdout = _traced(tmp_path, ["predict", str(recording), "--model", str(model), *DF])
    assert meta["frames_seen"] == N_FRAMES
    assert meta["gmm_evaluations"] == 8 * N_FRAMES
    for name in ("cli.main", "gmm.load_model_set", "predictor.session_init"):
        assert counts[name] == 1, (name, counts)
    assert counts["features.stream_push"] == -(-N_FRAMES // rapidhare.data.CHUNK_LINES)  # one per chunk
    assert counts["data.parse_recording"] == counts["features.apply"] == 0
    scores = _window_scores(load_model_set(model), recording)
    with contextlib.redirect_stdout(io.StringIO()) as oracle:
        write_predictions_oracle(0, scores)
    assert stdout == oracle.getvalue()
    assert rapidhare.data.CHUNK_LINES % BLOCK_ROWS == 0  # so every block starts at a multiple of 256
    ranked = np.sort(scores, axis=1)
    unsettled = ranked[:, -1] - ranked[:, -2] < _SETTLED_GAP
    blocks = sum(unsettled[lo : lo + BLOCK_ROWS].any() for lo in range(0, N_FRAMES, BLOCK_ROWS))
    assert counts["predictor.posterior"] == blocks, counts
    return blocks


def test_predict_file_hits_its_layers(inputs, tmp_path):
    data, model = inputs
    _check_predict_file(data, model, tmp_path)


def test_predict_file_on_identical_mixtures_computes_one_posterior_per_block(inputs, tmp_path):
    """Every activity's mixture is the same, so every row ties and every block is unsettled."""
    data, _ = inputs
    model = tmp_path / "identical.txt"
    save_model_set(identical_model_set(FEATURES.streamer(4).dim), model)
    assert _check_predict_file(data, model, tmp_path) == -(-N_FRAMES // BLOCK_ROWS)


def test_predict_file_without_df_pushes_each_chunk_through_the_feature_span(inputs, plain_model, tmp_path):
    data, _ = inputs
    recording = sorted(data.iterdir())[0]
    counts, meta, _ = _traced(tmp_path, ["predict", str(recording), "--model", str(plain_model)])
    assert meta["frames_seen"] == N_FRAMES
    assert counts["features.stream_push"] == -(-N_FRAMES // rapidhare.data.CHUNK_LINES)


def _check_predict_stdin(data, model, tmp_path) -> int:
    """Checks one traced ``predict -`` run over the first recording; its count of unsettled frames.

    A frame is unsettled when its best window score leads by less than the
    settled gap, and only such a frame computes a posterior.
    """
    recording = sorted(data.iterdir())[0]
    counts, meta, stdout = _traced(
        tmp_path, ["predict", "-", "--model", str(model), *DF], _frames_as_stdin(recording)
    )
    assert meta["frames_seen"] == N_FRAMES
    for name in ("predictor.push_frame", "features.stream_push"):
        assert counts[name] == N_FRAMES, (name, counts)
    scores = _window_scores(load_model_set(model), recording)
    with contextlib.redirect_stdout(io.StringIO()) as oracle:
        write_predictions_oracle(0, scores)
    assert stdout == oracle.getvalue()
    ranked = np.sort(scores, axis=1)
    unsettled = np.count_nonzero(ranked[:, -1] - ranked[:, -2] < _SETTLED_GAP)
    assert counts["predictor.posterior"] == unsettled, counts
    assert counts["cli.stdin_read"] == N_FRAMES + 1  # the last read finds the end of input
    for name in ("cli.main", "gmm.load_model_set", "predictor.session_init"):
        assert counts[name] == 1, (name, counts)
    return unsettled


def test_predict_stdin_hits_its_layers(inputs, tmp_path):
    data, model = inputs
    _check_predict_stdin(data, model, tmp_path)


def test_predict_stdin_on_identical_mixtures_computes_every_posterior(inputs, tmp_path):
    """Every activity's mixture is the same, so every frame's scores tie."""
    data, _ = inputs
    model = tmp_path / "identical.txt"
    save_model_set(identical_model_set(FEATURES.streamer(4).dim), model)
    assert _check_predict_stdin(data, model, tmp_path) == N_FRAMES


def test_evaluate_hits_its_layers(inputs, tmp_path):
    data, _ = inputs
    args = ["evaluate", str(data), "--components", TWO_EACH, "--em-iters", "10", "--seed", "5", *DF]
    counts, meta, _ = _traced(tmp_path, args)
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


def test_evaluate_without_df_pushes_each_subject_through_the_feature_span(inputs, tmp_path):
    data, _ = inputs
    args = ["evaluate", str(data), "--components", TWO_EACH, "--em-iters", "10", "--seed", "5"]
    counts, _, _ = _traced(tmp_path, args)
    folds = 3
    assert counts["features.apply"] == counts["features.stream_push"] == 2 * folds
