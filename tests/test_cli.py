import contextlib
import io
import os
import resource
import selectors
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rapidhare
from rapidhare import cli, evaluation
from rapidhare.bench import MAX_BENCH_FRAMES
from rapidhare.cli import main
from rapidhare import (
    ALL_LABELS, DataError, PredictorSession, load_dataset, load_model_set, parse_recording,
)

from conftest import child_env, traced_main_peak


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(
        [
            "synth",
            "--out", str(out),
            "--subjects", "3",
            "--frames", "2400",
            "--dim", "4",
            "--min-segment", "40",
            "--seed", "99",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_path(synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model.txt"
    rc = main(
        [
            "train", str(synth_dir),
            "--out", str(path),
            "--components", ",".join(f"{n}=2" for n in (
                "walking", "running", "going_up", "going_down",
                "sitting", "sitting_down", "standing_up", "standing",
            )),
            "--em-iters", "30",
            "--seed", "5",
        ]
    )
    assert rc == 0
    return path


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_bad_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--method", "rnn", "somewhere"])
    assert err.value.code == 1


def test_missing_data_dir_is_data_error(tmp_path, capsys):
    assert main(["train", str(tmp_path / "nope"), "--out", str(tmp_path / "m.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_prints_per_activity_loglik(synth_dir, model_path, capsys):
    # reuse the fixture run's side effects; retrain to capture stdout
    rc = main(
        [
            "train", str(synth_dir),
            "--out", str(model_path),
            "--components", "walking=2,running=2,going_up=2,going_down=2,"
            "sitting=2,sitting_down=2,standing_up=2,standing=2",
            "--em-iters", "30",
            "--seed", "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8
    assert lines[0].startswith("walking\t")
    model_set = load_model_set(model_path)
    assert model_set.n_total_components == 16


def test_components_override_is_partial(synth_dir, tmp_path, capsys):
    path = tmp_path / "m.txt"
    rc = main(
        [
            "train", str(synth_dir),
            "--out", str(path),
            "--components", "sitting=3",
            "--em-iters", "10",
            "--seed", "5",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    model_set = load_model_set(path)
    counts = {label.label_name: m.n_components for label, m in model_set.models.items()}
    assert counts["sitting"] == 3
    assert counts["walking"] == 18  # untouched default


@pytest.mark.parametrize("override", ["sitting=x", "sitting=0", "walking=-1"])
def test_a_component_override_below_one_is_a_usage_error(override, synth_dir, tmp_path, capsys):
    """Rejected with the flags, before any activity is trained."""
    path = tmp_path / "m.txt"
    with pytest.raises(SystemExit) as err:
        main(["train", str(synth_dir), "--out", str(path), "--components", override])
    assert err.value.code == 1
    message = f"error: argument --components: bad component override: '{override}'\n"
    assert capsys.readouterr().err.endswith(message)
    assert not path.exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--em-tol=nan", "tol must be finite and positive, got nan"),
        ("--em-tol=inf", "tol must be finite and positive, got inf"),
        ("--variance-floor=nan", "variance_floor must be finite and positive, got nan"),
        ("--variance-floor=inf", "variance_floor must be finite and positive, got inf"),
    ],
)
def test_em_settings_must_be_finite_and_positive(flag, message, synth_dir, tmp_path, capsys):
    """A NaN tolerance never stops EM early; a non-finite floor made every mixture non-finite."""
    path = tmp_path / "m.txt"
    assert main(["train", str(synth_dir), "--out", str(path), "--em-iters=2", flag]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


def test_predict_file_outputs_one_line_per_frame(synth_dir, model_path, capsys):
    recording = sorted(synth_dir.iterdir())[0]
    rc = main(["predict", str(recording), "--model", str(model_path), "--window", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2400
    first = lines[0].split("\t")
    assert first[0] == "0"
    assert len(first) == 10  # index, label, 8 posteriors
    posts = np.array([float(v) for v in first[2:]])
    assert posts.sum() == pytest.approx(1.0, abs=1e-6)


def test_predict_streaming_matches_oracle(synth_dir, model_path, capsys, monkeypatch):
    recording = sorted(synth_dir.iterdir())[0]
    rc = main(
        ["predict", str(recording), "--model", str(model_path), "--window", "8", "--oracle"]
    )
    oracle_out = capsys.readouterr().out
    assert rc == 0

    data_lines = [
        ln for ln in recording.read_text().splitlines() if ln and not ln.startswith("#")
    ][1:]
    mins, maxs = -32768.0, 32767.0
    stream = []
    for ln in data_lines:
        vals = [int(v) for v in ln.split("\t")[:-1]]
        scaled = [-1.0 + 2.0 * (v - mins) / (maxs - mins) for v in vals]
        stream.append("\t".join(repr(v) for v in scaled))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(stream) + "\n"))
    rc = main(["predict", "-", "--model", str(model_path), "--window", "8"])
    stream_out = capsys.readouterr().out
    assert rc == 0
    assert stream_out == oracle_out


def test_predict_file_streaming_equals_oracle_output(synth_dir, model_path, capsys):
    recording = sorted(synth_dir.iterdir())[0]
    base = ["predict", str(recording), "--model", str(model_path), "--window", "8"]
    assert main(base) == 0
    streamed = capsys.readouterr().out
    assert main(base + ["--oracle"]) == 0
    oracled = capsys.readouterr().out
    assert streamed == oracled


def test_predict_stdin_features_match_file_oracle(synth_dir, tmp_path, capsys, monkeypatch):
    features = ["--channels", "3,0,2", "--df", "lag=5,channels=2,3"]
    path = tmp_path / "model.txt"
    train = [
        "train", str(synth_dir),
        "--out", str(path),
        "--components", "walking=2,running=2,going_up=2,going_down=2,"
        "sitting=2,sitting_down=2,standing_up=2,standing=2",
        "--em-iters", "10",
        "--seed", "5",
    ]
    assert main(train + features) == 0
    capsys.readouterr()
    recording = sorted(synth_dir.iterdir())[0]
    predict = ["--model", str(path), "--window", "8"] + features
    assert main(["predict", str(recording), "--oracle"] + predict) == 0
    oracle_out = capsys.readouterr().out

    frames = parse_recording(recording).frames
    stream = "".join("\t".join(repr(float(v)) for v in x) + "\n" for x in frames)
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert main(["predict", "-"] + predict) == 0
    assert capsys.readouterr().out == oracle_out


def test_predict_stdin_numbers_frames_not_lines(synth_dir, model_path, capsys, monkeypatch):
    """Blank lines between frames change neither the frame indices nor the labels."""
    recording = sorted(synth_dir.iterdir())[0]
    frames = parse_recording(recording).frames[:3]
    lines = ["\t".join(repr(float(v)) for v in x) for x in frames]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["predict", "-", "--model", str(model_path)]) == 0
    plain = capsys.readouterr().out
    assert [ln.split("\t")[0] for ln in plain.splitlines()] == ["0", "1", "2"]
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{lines[0]}\n\n{lines[1]}\n\n\n{lines[2]}\n"))
    assert main(["predict", "-", "--model", str(model_path)]) == 0
    assert capsys.readouterr().out == plain
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{lines[0]}\n\nx\n"))
    assert main(["predict", "-", "--model", str(model_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stdin:3: non-numeric frame value\n"
    assert captured.out.splitlines() == plain.splitlines()[:1]


class _FrameSpy(PredictorSession):
    """A session that keeps a copy of every frame pushed into it."""

    frames: list = []

    def push_frame(self, x):
        self.frames.append(np.array(x))
        return super().push_frame(x)


_FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_0", " 1.5 ", "nan", "-iNF", "1e400", "+.5e-3", "", "x", "0x10", "1__0",
                     "_1", "1e", "infinity", "\u0661\u0662", "1.5\x0b", "--1"]),
    st.text(" \x0b\x0c+-_.eE0159naifxINF\u0661", max_size=6),
)


@settings(max_examples=300)
@given(fields=st.lists(_FLOAT_TEXT, min_size=1, max_size=6))
def test_predict_stdin_reads_fields_as_float_does(model_path, fields):
    """A field is accepted iff ``float()`` accepts it, and the frame is ``float()``'s, bit for bit.

    The second line is drawn; a non-numeric field is reported before a width
    that differs from the first frame's.
    """
    first = "0.25\t-0.5\t0.75\t0.0"
    stdin = io.StringIO(f"{first}\n" + "\t".join(fields) + "\n")
    try:
        want = [float(v) for v in fields]
    except ValueError:
        want = None
    _FrameSpy.frames = []
    old_stdin, sys.stdin = sys.stdin, stdin
    try:
        with mock.patch("rapidhare.cli.PredictorSession", _FrameSpy), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["predict", "-", "--model", str(model_path)])
    finally:
        sys.stdin = old_stdin
    assert np.array_equal(_FrameSpy.frames[0], [0.25, -0.5, 0.75, 0.0])
    if fields == [""]:  # a blank line, skipped
        assert (rc, len(_FrameSpy.frames)) == (0, 1)
    elif want is None:
        assert (rc, err.getvalue()) == (2, "error: stdin:2: non-numeric frame value\n")
        assert len(_FrameSpy.frames) == 1
    elif len(want) != 4:
        assert (rc, err.getvalue()) == (2, f"error: stdin:2: {len(want)} values, the first frame had 4\n")
    else:
        assert len(_FrameSpy.frames) == 2
        got = _FrameSpy.frames[1]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
        assert rc == (0 if np.isfinite(want).all() else 2)


def test_predict_stdin_width_change_names_the_line(model_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.1\t0.2\t0.3\t0.4\n\n0.1\t0.2\n"))
    assert main(["predict", "-", "--model", str(model_path)]) == 2
    assert "stdin:3: 2 values, the first frame had 4" in capsys.readouterr().err


def test_predict_stdin_non_finite_frame_names_the_line(model_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("nan\t0.1\t0.2\t0.3\n0.1\t0.1\t0.2\t0.3\n"))
    assert main(["predict", "-", "--model", str(model_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stdin:1: frame gives non-finite activity scores" in captured.err
    assert "Warning" not in captured.err


def test_predict_stdin_sends_each_line_before_more_input(model_path):
    """A client that writes one frame and waits gets its label line, even through a pipe."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(rapidhare.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "rapidhare.cli", "predict", "-", "--model", str(model_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        child.stdin.write(b"0.1\t0.2\t0.3\t0.4\n")
        child.stdin.flush()
        with selectors.DefaultSelector() as sel:
            sel.register(child.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout=10.0)
        assert ready, "no label line within 10 s while stdin stayed open"
        assert child.stdout.readline().startswith(b"0\t")
    finally:
        child.kill()
        child.communicate()


@pytest.mark.parametrize(
    "extra",
    [
        ["predict", "REC", "--model", "MODEL", "--seed", "3"],
        ["predict", "REC", "--model", "MODEL", "--format", "tsv"],
        ["predict", "REC", "--model", "MODEL", "--resync", "5"],
        ["train", "DATA", "--out", "OUT", "--format", "tsv"],
        ["synth", "--out", "OUT", "--format", "tsv"],
    ],
)
def test_removed_flags_are_usage_errors(extra, synth_dir, model_path, tmp_path, capsys):
    recording = sorted(synth_dir.iterdir())[0]
    subst = {"REC": str(recording), "MODEL": str(model_path), "DATA": str(synth_dir),
             "OUT": str(tmp_path / "out")}
    with pytest.raises(SystemExit) as err:
        main([subst.get(a, a) for a in extra])
    assert err.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_predict_bad_model_number_exits_two(synth_dir, model_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    lines = model_path.read_text().splitlines()
    lines[1] = "dim x"
    bad.write_text("\n".join(lines) + "\n")
    recording = sorted(synth_dir.iterdir())[0]
    assert main(["predict", str(recording), "--model", str(bad)]) == 2
    assert "bad.txt:2: dim must be an integer" in capsys.readouterr().err


def test_predict_model_count_of_5000_digits_is_named_by_its_length(
    synth_dir, model_path, tmp_path, capsys
):
    bad = tmp_path / "bad.txt"
    lines = model_path.read_text().splitlines()
    lines[1] = "dim " + "1" * 5000
    bad.write_text("\n".join(lines) + "\n")
    recording = sorted(synth_dir.iterdir())[0]
    assert main(["predict", str(recording), "--model", str(bad)]) == 2
    message = f"error: {bad}:2: dim must be an integer, got a 5000-character value\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", ["predict", "train", "evaluate"])
@pytest.mark.parametrize(
    "column,field,message",
    [
        (-1, b"99999999999999999999", "unknown label id 99999999999999999999"),
        (
            0,
            b"-99999999999999999999",
            "value -99999999999999999999 outside the raw range of channel 'acc_sig_0'",
        ),
        (2, b"12\xe9", "non-ASCII byte"),
        (-1, b"1" * 4301, "integer field too long"),
        (0, b"1" * 4301, "integer field too long"),
    ],
)
def test_bad_recording_field_exits_two_naming_the_line(
    command, column, field, message, synth_dir, model_path, tmp_path, capsys
):
    """A field beyond int64 or a non-ASCII byte is a data error at its line, not a traceback."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for src in sorted(synth_dir.iterdir()):
        (data_dir / src.name).write_bytes(src.read_bytes())
    recording = sorted(data_dir.iterdir())[0]
    lines = recording.read_bytes().split(b"\n")
    fields = lines[9].split(b"\t")
    fields[column] = field
    lines[9] = b"\t".join(fields)
    recording.write_bytes(b"\n".join(lines))
    args = {
        "predict": ["predict", str(recording), "--model", str(model_path)],
        "train": ["train", str(data_dir), "--out", str(tmp_path / "model.txt")],
        "evaluate": ["evaluate", str(data_dir)],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {recording}:10: {message}\n"
    assert captured.out == ""


def test_predict_file_scoring_error_names_file_and_frame(tmp_path, capsys):
    """A frame whose window scores overflow stops `predict FILE` with exit 2, naming both."""
    component = "component 1\nmean 0 0 0 0\nvar 1e-308 1e-308 1e-308 1e-308\n"
    model = tmp_path / "model.txt"
    model.write_text(
        "RAPIDHARE-MODEL v1\ndim 4\nactivities 8\n"
        + "".join(f"activity {label.label_name} components 1\n{component}" for label in ALL_LABELS)
    )
    rows = ["0\t0\t0\t0\t1"] * 300 + ["32767\t0\t0\t0\t1"] * 10  # scaled 1.5e-5, then 1.0
    recording = tmp_path / "recording.tsv"
    recording.write_text(
        "#subject 01\nacc_sig_0\tacc_sig_1\tacc_sig_2\tacc_sig_3\tact\n" + "\n".join(rows) + "\n"
    )
    assert main(["predict", str(recording), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {recording}: frame 300: non-finite activity scores\n"
    assert len(captured.out.splitlines()) == 256  # the block holding frame 300 is not written
    assert main(["predict", str(recording), "--model", str(model), "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {recording}: frame 300: non-finite activity scores\n"
    assert "nan" not in captured.out


def test_predict_model_with_a_repeated_activity_exits_two(synth_dir, model_path, tmp_path, capsys):
    lines = model_path.read_text().splitlines()
    second = next(i for i, ln in enumerate(lines) if ln.startswith("activity running "))
    bad = tmp_path / "model.txt"
    lines[second] = lines[second].replace("running", "walking")
    bad.write_text("\n".join(lines) + "\n")
    recording = sorted(synth_dir.iterdir())[0]
    assert main(["predict", str(recording), "--model", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}:{second + 1}: activity walking given twice\n"
    assert captured.out == ""


def test_predict_oracle_on_stdin_is_rejected(model_path, capsys):
    assert main(["predict", "-", "--model", str(model_path), "--oracle"]) == 2
    capsys.readouterr()


def test_evaluate_reports_both_tables(synth_dir, capsys):
    rc = main(
        [
            "evaluate", str(synth_dir),
            "--components", "walking=2,running=2,going_up=2,going_down=2,"
            "sitting=2,sitting_down=2,standing_up=2,standing=2",
            "--em-iters", "20",
            "--window", "8",
            "--tolerance", "10",
            "--seed", "5",
            "--format", "tsv",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "no border tolerance" in out
    assert "border tolerance 10 frames" in out
    assert "recall" in out and "accuracy" in out
    assert "confusion" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--window", "100001"], "argument --window: must be in 0..100000, got 100001"),
        (["--tolerance", "-1"], "argument --tolerance: must be at least 0, got -1"),
        (["--method", "hmm", "--hmm-window", "0"], "argument --hmm-window: must be at least 1, got 0"),
        (["--window", "x"], "argument --window: invalid int value: 'x'"),
    ],
    ids=["window", "tolerance", "hmm-window", "non-integer"],
)
def test_evaluate_rejects_bad_settings_as_usage_errors(flags, message, synth_dir, capsys):
    """Rejected with the flags, before any recording is read."""
    with mock.patch.object(cli, "load_dataset", side_effect=AssertionError("evaluate read data")):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(synth_dir), *flags])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.endswith(f"rapidhare evaluate: error: {message}\n")


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--em-tol=nan", "tol must be finite and positive, got nan"),
        ("--variance-floor=0", "variance_floor must be finite and positive, got 0.0"),
        ("--em-iters=0", "max_iters must be positive, got 0"),
        ("--restarts=0", "n_init_restarts must be positive"),
        ("--seed=-1", "seed must be non-negative"),
    ],
)
def test_em_settings_are_checked_before_any_recording_is_read(
    command, flag, message, synth_dir, tmp_path, capsys
):
    args = {
        "train": ["train", str(synth_dir), "--out", str(tmp_path / "m.txt")],
        "evaluate": ["evaluate", str(synth_dir)],
    }[command]
    with mock.patch.object(cli, "load_dataset", side_effect=AssertionError("read data")):
        assert main([*args, flag]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize(
    "lag, message",
    [
        ("0", "directional lag must be in 1..100000, got 0"),
        ("100001", "directional lag must be in 1..100000, got 100001"),
        ("x", "bad directional lag: 'x'"),
    ],
)
def test_a_bad_lag_is_a_usage_error_before_any_recording_is_read(
    command, lag, message, synth_dir, tmp_path, capsys
):
    args = {
        "train": ["train", str(synth_dir), "--out", str(tmp_path / "m.txt")],
        "evaluate": ["evaluate", str(synth_dir)],
    }[command]
    with mock.patch.object(cli, "load_dataset", side_effect=AssertionError("read data")):
        with pytest.raises(SystemExit) as err:
            main([*args, f"--df=lag={lag}"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.endswith(f"rapidhare {command}: error: argument --df: {message}\n")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"window_k": 100001}, "window_k must be in 0..100000, got 100001"),
        ({"tolerance": -1}, "tolerance must be non-negative"),
        ({"method": "hmm", "window_w": 0}, "window_w must be positive"),
    ],
    ids=["window", "tolerance", "hmm-window"],
)
def test_run_cv_rejects_bad_settings_before_it_trains(overrides, message, synth_dir):
    def no_training(*args, **kwargs):
        raise AssertionError("run_cv trained a fold")

    with mock.patch.object(evaluation, "fit_activity_models", no_training):
        with pytest.raises(DataError) as err:
            evaluation.run_cv(load_dataset(synth_dir), **overrides)
    assert str(err.value) == message


def test_importing_the_cli_loads_no_thread_pool():
    """``concurrent.futures`` brings ``logging`` and ``queue``: 0.7 MB of RSS for every command."""
    child = subprocess.run(
        [sys.executable, "-c", "import sys, rapidhare.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")


# Trains, evaluates and predicts from a file and from stdin in one child, then
# prints their exit codes and whether numpy.random was imported on the way.
_COMMAND_MODULES = """
import contextlib, io, pathlib, sys
from rapidhare.cli import main
data, model = sys.argv[1:]
recording = str(sorted(pathlib.Path(data).iterdir())[0])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["train", data, "--out", model, "--em-iters", "5"]),
        main(["evaluate", data, "--em-iters", "5"]),
        main(["predict", recording, "--model", model]),
    ]
    sys.stdin = io.StringIO("0.1\\t0.2\\t0.3\\t0.4\\n" * 3)
    codes.append(main(["predict", "-", "--model", model]))
print(codes, "numpy.random" in sys.modules)
"""


def test_train_evaluate_and_predict_load_no_random_number_generator(synth_dir, tmp_path):
    """Training draws from ``gmm._Pcg64``: ``numpy.random`` would add about 6 MB of peak RSS."""
    child = subprocess.run(
        [sys.executable, "-c", _COMMAND_MODULES, str(synth_dir), str(tmp_path / "m.txt")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[0, 0, 0, 0] False\n", "")


def test_train_holds_one_activitys_frames_at_a_time(tmp_path):
    """The traced peak of ``train``, in units of the dataset's frame table, stays below 3.3.

    The bound is set from measurements on 3 subjects of 2,400 frames and 6
    channels: 2.64 tables when each activity's frames are gathered just before
    its fit, 3.90 when every activity's were copied at once.
    """
    data = tmp_path / "data"
    synth = ["synth", f"--out={data}", "--frames=2400", "--dim=6", "--min-segment=40", "--seed=99"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(synth) == 0
    table = sum(s.frames.nbytes for s in load_dataset(data).sequences)
    peak = traced_main_peak(["train", str(data), f"--out={tmp_path / 'm.txt'}", "--em-iters=5"])
    assert peak < 3.3 * table


# Runs predict FILE, its oracle and predict - on three frames in one child, then
# prints their exit codes and whether numpy.random was imported on the way.
_PREDICT_MODULES = """
import contextlib, io, sys
from rapidhare.cli import main
model, recording = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["predict", recording, "--model", model, *oracle]) for oracle in ([], ["--oracle"])]
    sys.stdin = io.StringIO("0.1\\t0.2\\t0.3\\t0.4\\n" * 3)
    codes.append(main(["predict", "-", "--model", model]))
print(codes, "numpy.random" in sys.modules)
"""


def test_predict_loads_no_random_number_generator(synth_dir, model_path):
    """``numpy.random`` costs 6.3 MB of RSS, and only training draws numbers."""
    recording = sorted(synth_dir.iterdir())[0]
    child = subprocess.run(
        [sys.executable, "-c", _PREDICT_MODULES, str(model_path), str(recording)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[0, 0, 0] False\n", "")


@pytest.mark.parametrize("method", ["rapidhare", "batch", "hmm"])
def test_bench_reports_stats(method, model_path, capsys):
    args = ["bench", "--model", str(model_path), "--frames", "300", "--repeats", "2"]
    assert main(args + ["--method", method, "--format", "tsv"]) == 0
    header, values = capsys.readouterr().out.splitlines()
    stats = dict(zip(header.split("\t"), values.split("\t")))
    assert stats["method"] == method
    assert int(stats["frames"]) == 300
    assert 0 < float(stats["mean_us"]) <= float(stats["p99_us"])


def test_bench_hmm_rejects_zero_block_width(model_path, capsys):
    args = ["bench", "--model", str(model_path), "--method", "hmm", "--hmm-window", "0"]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 1
    captured = capsys.readouterr()
    message = "rapidhare bench: error: argument --hmm-window: must be at least 1, got 0\n"
    assert captured.err.endswith(message)
    assert captured.out == ""


def test_bench_rejects_zero_frames(model_path, capsys):
    assert main(["bench", "--model", str(model_path), "--frames", "0"]) == 2
    capsys.readouterr()
    assert main(["bench", "--model", str(model_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"


def test_synth_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("n_subjects 2\nframes_per_subject 300\ndim 4\nmin_segment 50\nseed 3\n")
    out = tmp_path / "generated"
    rc = main(["synth", "--out", str(out), "--spec", str(spec)])
    capsys.readouterr()
    assert rc == 0
    assert len(list(out.iterdir())) == 2

    spec.write_text("n_subjects 2\nseed -1\n")
    for args, where in ((["--spec", str(spec)], f"{spec}: "), (["--seed", "-1"], "")):
        assert main(["synth", "--out", str(tmp_path / "negative"), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {where}seed must be non-negative\n"
        assert captured.out == ""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# Runs main in a child and prints how long main took, so interpreter start-up is not counted.
_TIMED_MAIN = (
    "import sys, time; from rapidhare.cli import main; t = time.perf_counter(); "
    "rc = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(rc)"
)


@pytest.mark.parametrize(
    "key, flag, value, n_values",
    [
        ("dim", "--dim", "1000000000000000", 3 * 20000 * 10**15),
        ("n_subjects", "--subjects", "1000000000000", 10**12 * 20000 * 6),
    ],
)
@pytest.mark.parametrize("through", ["spec", "flags"])
def test_synth_rejects_a_draw_beyond_its_cap_at_once(key, flag, value, n_values, through, tmp_path):
    """A huge count exits 2 in under a second, before anything is drawn or written.

    The child runs under a 1 GiB address-space limit and a timeout, so a
    missing check fails the test instead of filling memory.
    """
    out = tmp_path / "generated"
    if through == "spec":
        spec = tmp_path / "spec.txt"
        spec.write_text(f"{key} {value}\n")
        args, where = ["--spec", str(spec)], f"{spec}: "
    else:
        args, where = [flag, value], ""
    child = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, "synth", "--out", str(out), *args],
        capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"), timeout=10,
        preexec_fn=_limit_memory,
    )
    assert child.returncode == 2
    assert child.stderr == (
        f"error: {where}a draw of {n_values} frame values "
        "(n_subjects * frames_per_subject * dim) exceeds the cap of 100000000\n"
    )
    assert float(child.stdout) < 1.0
    assert not out.exists()


@pytest.mark.parametrize("frames", [MAX_BENCH_FRAMES + 1, 10**15])
def test_bench_rejects_frames_beyond_the_cap_at_once(frames, model_path):
    """Exit 2 in under a second, before any frame is drawn, under a 1 GiB address-space limit."""
    child = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, "bench", "--model", str(model_path), "--frames", str(frames)],
        capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"), timeout=10,
        preexec_fn=_limit_memory,
    )
    assert child.returncode == 2
    assert child.stderr == f"error: frames must be in 1..{MAX_BENCH_FRAMES}, got {frames}\n"
    assert float(child.stdout) < 1.0


def test_synth_out_of_range_draws_name_file_subject_and_channel(tmp_path, capsys):
    """A spread too wide for the raw range exits 2 naming where the first value fell outside."""
    spec = tmp_path / "spec.txt"
    spec.write_text("sigma 0.3\nframes_per_subject 300\nmin_segment 50\nseed 3\n")
    out = tmp_path / "generated"
    assert main(["synth", "--out", str(out), "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {out / 'subject_01.tsv'}: subject 01, channel 'acc_sig_0': "
        "scaled values fall outside the representable raw range\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["predict", "bench", "evaluate", "synth"])
def test_non_ascii_byte_in_an_input_file_exits_two_naming_the_line(
    command, synth_dir, model_path, tmp_path, capsys
):
    """Model, transition matrix and spec files report a non-ASCII byte at its line."""
    if command in ("predict", "bench"):
        path = tmp_path / "model.txt"
        lines = model_path.read_bytes().split(b"\n")
        lines[2] += b"\xe9"
    elif command == "evaluate":
        path = tmp_path / "transitions.txt"
        names = " ".join(label.label_name for label in ALL_LABELS)
        lines = [names.encode()] + [b" ".join([b"0.125"] * len(ALL_LABELS))] * len(ALL_LABELS)
        lines[2] += b"\xe9"
    else:
        path = tmp_path / "spec.txt"
        lines = [b"n_subjects 2", b"frames_per_subject 300", b"seed 3\xe9"]
    path.write_bytes(b"\n".join(lines))
    recording = sorted(synth_dir.iterdir())[0]
    args = {
        "predict": ["predict", str(recording), "--model", str(path)],
        "bench": ["bench", "--model", str(path)],
        "evaluate": ["evaluate", str(synth_dir), "--transitions", str(path)],
        "synth": ["synth", "--out", str(tmp_path / "out"), "--spec", str(path)],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:3: non-ASCII byte\n"
    assert captured.out == ""


def test_a_bad_mixture_names_its_activity_line_and_a_bad_model_set_the_file(
    model_path, tmp_path, capsys
):
    lines = model_path.read_text().splitlines()
    assert lines[10] == "activity running components 2"
    path = tmp_path / "model.txt"
    for text, where, message in [
        (lines[:11] + ["component nan"] + lines[12:], ":11", "mixture parameters must be finite"),
        (
            lines[:11] + ["component 0.9"] + lines[12:14] + ["component 0.3"] + lines[15:],
            ":11",
            "mixture weights must be positive and sum to 1",
        ),
        (
            lines[:2] + ["activities 7"] + lines[3:-7],
            "",
            "a model set needs exactly one mixture per activity",
        ),
    ]:
        path.write_text("\n".join(text) + "\n")
        assert main(["bench", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}{where}: {message}\n"
        assert captured.out == ""


def test_a_bad_transition_matrix_names_the_file(synth_dir, tmp_path, capsys):
    rows = [" ".join(["0.125"] * len(ALL_LABELS))] * len(ALL_LABELS)
    rows[5] = " ".join(["0.25"] * len(ALL_LABELS))
    path = tmp_path / "transitions.txt"
    path.write_text("\n".join([" ".join(label.label_name for label in ALL_LABELS)] + rows) + "\n")
    assert main(["evaluate", str(synth_dir), "--transitions", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: transition matrix rows must sum to 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text,where,message",
    [
        ("sigma nan\n", "", "mixture parameters must be finite"),
        ("seed 3\n# again\nseed 4\n", ":3", "key 'seed' given twice"),
    ],
)
def test_a_bad_spec_names_the_file_and_a_key_given_twice_its_line(
    text, where, message, tmp_path, capsys
):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    assert main(["synth", "--out", str(tmp_path / "out"), "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {spec}{where}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["model", "transition matrix", "spec"])
def test_a_missing_input_file_is_named_with_its_kind(kind, synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = {
        "model": ["bench", "--model", "./absent.txt"],
        "transition matrix": ["evaluate", str(synth_dir), "--transitions", "./absent.txt"],
        "spec": ["synth", "--out", "out", "--spec", "./absent.txt"],
    }[kind]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no such {kind} file: absent.txt\n"
    assert captured.out == ""
