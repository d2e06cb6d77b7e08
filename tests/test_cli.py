import io
import os
import selectors
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rapidhare
from rapidhare.cli import main
from rapidhare import ALL_LABELS, load_model_set, parse_recording, read_header


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
    counts = {label.label_name: k for label, k in model_set.component_counts.items()}
    assert counts["sitting"] == 3
    assert counts["walking"] == 18  # untouched default


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

    frames = parse_recording(recording, read_header(recording)).frames
    stream = "".join("\t".join(repr(float(v)) for v in x) + "\n" for x in frames)
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert main(["predict", "-"] + predict) == 0
    assert capsys.readouterr().out == oracle_out


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


def test_evaluate_parallel_folds(synth_dir, capsys):
    args = [
        "evaluate", str(synth_dir),
        "--components", "walking=2,running=2,going_up=2,going_down=2,"
        "sitting=2,sitting_down=2,standing_up=2,standing=2",
        "--em-iters", "15",
        "--window", "8",
        "--seed", "5",
        "--format", "tsv",
    ]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


def test_bench_reports_stats(model_path, capsys):
    rc = main(
        [
            "bench",
            "--model", str(model_path),
            "--frames", "64",
            "--repeats", "2",
            "--method", "rapidhare",
            "--format", "tsv",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    header, values = out.splitlines()
    stats = dict(zip(header.split("\t"), values.split("\t")))
    assert stats["method"] == "rapidhare"
    assert float(stats["mean_us"]) > 0
    assert int(stats["frames"]) == 64


def test_bench_batch_reports_stats(model_path, capsys):
    args = ["bench", "--model", str(model_path), "--frames", "300", "--repeats", "2"]
    assert main(args + ["--method", "batch", "--format", "tsv"]) == 0
    header, values = capsys.readouterr().out.splitlines()
    stats = dict(zip(header.split("\t"), values.split("\t")))
    assert stats["method"] == "batch"
    assert int(stats["frames"]) == 300
    assert 0 < float(stats["mean_us"]) <= float(stats["p99_us"])


def test_bench_rejects_zero_frames(model_path, capsys):
    assert main(["bench", "--model", str(model_path), "--frames", "0"]) == 2
    capsys.readouterr()


def test_synth_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("n_subjects 2\nframes_per_subject 300\ndim 4\nmin_segment 50\nseed 3\n")
    out = tmp_path / "generated"
    rc = main(["synth", "--out", str(out), "--spec", str(spec)])
    capsys.readouterr()
    assert rc == 0
    assert len(list(out.iterdir())) == 2
