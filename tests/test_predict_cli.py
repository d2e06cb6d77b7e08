"""`predict` output and robustness: the line writer against its per-line oracle,
and `predict FILE` and `predict -` over corrupted inputs and drawn flags."""

import contextlib
import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidhare import ALL_LABELS, DataError, cli, load_model_set, parse_recording
from rapidhare.cli import main
from rapidhare.data import CHUNK_LINES, LabeledSequence, full_sensor_channels, write_recording
from rapidhare.features import MAX_DIRECTIONAL_LAG
from rapidhare.gmm import save_model_set
from rapidhare.predictor import MAX_WINDOW_K, PredictorSession, posterior

from conftest import (
    child_env, identical_model_set, predict_file_oracle, random_model_set, traced_main_peak,
    write_predictions_oracle,
)
from test_data import TWO_CHANNELS, _recordings

_NAMES = [label.label_name for label in ALL_LABELS]
_FAR = -800.0  # exp(-800) is 0.0, so a score this far below the maximum has posterior 0.0
# k / 512 for odd k lies half-way between two 8-digit decimals; with the
# maximum at 0 and one other score at log(k / (512 - k)) the posteriors are
# exactly k / 512 and (512 - k) / 512.
_HALF_WAY = (1, 255, 257, 511)


def _printed(write, first_index, scores):
    with contextlib.redirect_stdout(io.StringIO()) as out, np.errstate(over="ignore"):
        write(first_index, scores)
    return out.getvalue()


def _write_one_row_blocks(first_index, scores):
    """The block's rows one at a time through ``cli._write_predictions``, as ``predict -`` prints them."""
    for i, row in enumerate(scores, first_index):
        cli._write_predictions(i, row[np.newaxis])


_WRITERS = pytest.mark.parametrize(
    "write", [cli._write_predictions, _write_one_row_blocks], ids=["block", "frame"]
)


def _near_the_gap(ulps):
    """The settled gap moved by ``ulps`` units in the last place, up for positive ``ulps``."""
    gap = cli._SETTLED_GAP
    for _ in range(abs(ulps)):
        gap = math.nextafter(gap, math.inf if ulps > 0 else 0.0)
    return gap


@st.composite
def _score_rows(draw):
    """One row of 8 finite window scores, often with posteriors at or near the settled cut."""
    kind = draw(st.sampled_from(["any", "cut", "gap", "exact", "tie", "half"]))
    if kind == "any":
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
    order = draw(st.permutations(range(8)))
    row = [_FAR] * 8
    row[order[0]] = 0.0
    if kind == "cut":  # posteriors from 4e-9 to 6e-9, so the maximum's is from 1 - 6e-9 to 1 - 4e-9
        for j in order[1 : 1 + draw(st.integers(1, 3))]:
            row[j] = math.log(draw(st.floats(4e-9, 6e-9)))
    elif kind == "gap":  # a runner-up, or more than one, within a few ulps of the settled gap
        for j in order[1 : 1 + draw(st.integers(1, 3))]:
            row[j] = -_near_the_gap(draw(st.integers(-4, 4)))
    elif kind == "tie":  # two or more scores at the maximum
        for j in order[1 : 1 + draw(st.integers(1, 7))]:
            row[j] = 0.0
    elif kind == "half":
        k = draw(st.sampled_from(_HALF_WAY))
        row[order[1]] = math.log(k / (512 - k))
        return row
    shift = draw(st.sampled_from([0.0, 3.0, -700.0, 1e6]))
    return [v + shift for v in row]


@_WRITERS
@settings(max_examples=500)
@given(first_index=st.integers(0, 10**7), rows=st.lists(_score_rows(), max_size=10))
def test_write_predictions_matches_the_per_line_oracle(write, first_index, rows):
    scores = np.array(rows, dtype=np.float64).reshape(-1, len(ALL_LABELS))
    assert _printed(write, first_index, scores) == _printed(write_predictions_oracle, first_index, scores)


@_WRITERS
@pytest.mark.parametrize("p", [3.9e-9, 4e-9, 4.1e-9, 4.99e-9, 5.01e-9, 6e-9])
def test_rows_either_side_of_the_settled_cut_print_as_the_oracle_does(write, p):
    row = np.full(len(ALL_LABELS), _FAR)
    row[2], row[5] = 0.0, math.log(p)
    scores = np.array([row, row[::-1]])
    assert _printed(write, 7, scores) == _printed(write_predictions_oracle, 7, scores)


@_WRITERS
@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
@pytest.mark.parametrize("shift", [0.0, -700.0, 1e6])
def test_rows_either_side_of_the_settled_gap_print_as_the_oracle_does(write, ulps, shift):
    """Leads a few ulps either side of ``_SETTLED_GAP``, with one or seven runners-up, and exact ties."""
    lead = _near_the_gap(ulps)
    one = np.full(len(ALL_LABELS), _FAR)
    one[3], one[6] = 0.0, -lead
    seven = np.full(len(ALL_LABELS), -lead)
    seven[1] = 0.0
    tie = np.full(len(ALL_LABELS), -lead)
    tie[4] = tie[0] = 0.0
    scores = np.array([one, one[::-1], seven, seven[::-1], tie, tie[::-1]]) + shift
    assert _printed(write, 11, scores) == _printed(write_predictions_oracle, 11, scores)


def test_a_settled_frame_computes_no_posterior(monkeypatch):
    """A block of rows that lead by ``_SETTLED_GAP`` or more makes no posterior call; any other, one.

    The gap is ln(7 / 4e-9), about 21.28, so a lead of 21.3 is settled. A
    block with one or with several unsettled rows computes its posteriors
    once, whatever their number; a one-row block is how ``predict -`` writes.
    """
    calls = []

    def counted(scores):
        calls.append(scores)
        return posterior(scores)

    monkeypatch.setattr(cli, "posterior", counted)

    def row(lead):
        values = np.full(len(ALL_LABELS), _FAR)
        values[5], values[2] = 0.0, -lead
        return values

    settled = [row(_near_the_gap(0)), row(21.3), row(800.0)]
    unsettled = [row(_near_the_gap(-1)), row(0.0), row(3.0)]
    for rows, want in (
        (settled, 0),
        (settled[:1], 0),
        (settled + unsettled[:1] + settled, 1),
        (unsettled[1:2] + settled, 1),
        (settled + unsettled, 1),
        (unsettled + settled + unsettled, 1),
        (unsettled[:1], 1),
        (unsettled[1:2], 1),
    ):
        scores = np.array(rows)
        calls.clear()
        out = _printed(cli._write_predictions, 9, scores)
        assert len(calls) == want, rows
        assert out == _printed(write_predictions_oracle, 9, scores)


def test_the_strategy_rows_hit_exact_and_half_way_posteriors():
    """The special rows of ``_score_rows`` give the posteriors they are drawn for."""
    row = np.full(len(ALL_LABELS), _FAR)
    row[0] = 0.0
    assert posterior(row).tolist() == [1.0] + [0.0] * 7
    for k in _HALF_WAY:
        row[1] = math.log(k / (512 - k))
        assert posterior(row)[:2].tolist() == [(512 - k) / 512, k / 512]


# ---------------------------------------------------------------- the CLI fuzz


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A model file of a given feature width, drawn once per width."""
    root = tmp_path_factory.mktemp("fuzz_models")

    def model(dim):
        path = root / f"model{dim}.txt"
        if not path.exists():
            save_model_set(random_model_set(np.random.default_rng(dim), dim, 1, 2), path)
        return path

    return model


def _exit_code(argv):
    """``main(argv)``'s exit code, a usage error's included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _run(argv, stdin=None):
    """Run the CLI in process; a traceback fails the test. Checks how the run ended."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", newline=None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _exit_code(argv)
    finally:
        sys.stdin = old_stdin
    if rc == 1:  # a flag refused while the arguments are parsed, before any input is read
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("rapidhare predict: error: argument ")
    elif rc == 0:
        assert err.getvalue() == ""
        for i, line in enumerate(out.getvalue().splitlines()):
            fields = line.split("\t")
            assert fields[0] == str(i) and fields[1] in _NAMES
            probs = [float(v) for v in fields[2:]]
            assert len(probs) == len(ALL_LABELS)
            assert all(0.0 <= v <= 1.0 for v in probs)
    else:
        assert rc in (2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " if rc == 2 else "numeric failure: ")
    return rc


_WINDOWS = st.sampled_from([0, 1, 5, 26, -1, MAX_WINDOW_K + 1, 10**15])
_LAGS = st.sampled_from([1, 3, 15, 0, MAX_DIRECTIONAL_LAG + 1, 10**15])


@st.composite
def _feature_flags(draw, n_channels):
    """``--channels`` and ``--df`` flags, with the feature width they give when valid."""
    index = st.integers(-1, n_channels)
    keep = draw(st.none() | st.lists(index, min_size=1, max_size=3))
    flags, width = [], n_channels if keep is None else len(keep)
    if keep is not None:
        flags.append("--channels=" + ",".join(map(str, keep)))
    if draw(st.booleans()):
        lag = draw(_LAGS)
        sources = draw(st.none() | st.lists(index, min_size=1, max_size=3))
        if sources is None:  # found by name: no fuzzed channel is a thigh accelerometer
            flags.append(f"--df=lag={lag}")
        else:
            flags.append(f"--df=lag={lag},channels=" + ",".join(map(str, sources)))
            width += len(sources)
    return flags, width


@settings(max_examples=200)
@given(data=st.data(), recording=_recordings(), window=_WINDOWS, oracle=st.booleans())
def test_predict_file_ends_in_lines_or_one_error(data, recording, window, oracle, models, tmp_path_factory):
    """Exit 0 with finite posteriors, 1 with a usage error, or 2/3 with one ``error:`` line."""
    channels, raw = recording
    path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
    path.write_bytes(raw)
    flags, width = data.draw(_feature_flags(len(channels)))
    width += data.draw(st.sampled_from([0, 0, 0, 1]))  # now and then a model of another width
    argv = ["predict", str(path), f"--model={models(max(width, 1))}", f"--window={window}", *flags]
    _run(argv + ["--oracle"] * oracle)


_STDIN_VALUE = st.floats(-2.0, 2.0).map(repr) | st.floats().map(repr)


@st.composite
def _stdin_lines(draw, n_channels):
    """Frames of the first frame's width, other widths, blank lines, any text and any bytes."""
    kind = draw(st.sampled_from(["frame", "frame", "frame", "width", "blank", "text", "bytes"]))
    if kind == "frame":
        return "\t".join(draw(st.lists(_STDIN_VALUE, min_size=n_channels, max_size=n_channels))).encode()
    if kind == "width":
        return "\t".join(draw(st.lists(_STDIN_VALUE, min_size=1, max_size=n_channels + 2))).encode()
    if kind == "blank":
        return b""
    if kind == "text":
        return draw(st.text(max_size=12)).encode()
    return draw(st.binary(max_size=12))


@settings(max_examples=200)
@given(data=st.data(), n_channels=st.integers(1, 4), window=_WINDOWS)
def test_predict_stdin_ends_in_lines_or_one_error(data, n_channels, window, models):
    lines = data.draw(st.lists(_stdin_lines(n_channels), min_size=1, max_size=6))
    flags, width = data.draw(_feature_flags(n_channels))
    width += data.draw(st.sampled_from([0, 0, 0, 1]))
    argv = ["predict", "-", f"--model={models(max(width, 1))}", f"--window={window}", *flags]
    _run(argv, stdin=b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("lag", ["0", str(MAX_DIRECTIONAL_LAG + 1), "1000000000000000", "x"])
@pytest.mark.parametrize("mode", [["-"], ["r.tsv"], ["r.tsv", "--oracle"]], ids=["stdin", "file", "oracle"])
def test_a_lag_outside_its_range_is_a_usage_error(lag, mode, tmp_path, capsys):
    """The lag sets a ring of twice its length, so a huge one would be allocated, not refused.

    It is refused with the flags, before the model or input is read.
    """
    argv = ["predict", *mode, f"--model={tmp_path / 'missing.txt'}", f"--df=lag={lag},channels=0"]
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    want = (
        "bad directional lag: 'x'" if lag == "x"
        else f"directional lag must be in 1..{MAX_DIRECTIONAL_LAG}, got {lag}"
    )
    assert out == "" and err.endswith(f"rapidhare predict: error: argument --df: {want}\n")


@pytest.mark.parametrize("window", ["-1", str(MAX_WINDOW_K + 1), "x"])
@pytest.mark.parametrize("mode", [["-"], ["r.tsv"], ["r.tsv", "--oracle"]], ids=["stdin", "file", "oracle"])
def test_a_window_outside_its_range_is_a_usage_error(window, mode, tmp_path, capsys):
    """The window sets a ring of twice its length; a bad one is refused before the model or input is read."""
    argv = ["predict", *mode, f"--model={tmp_path / 'missing.txt'}", f"--window={window}"]
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    want = "invalid int value: 'x'" if window == "x" else f"must be in 0..{MAX_WINDOW_K}, got {window}"
    assert out == "" and err.endswith(f"rapidhare predict: error: argument --window: {want}\n")


def test_a_byte_stdin_cannot_decode_is_a_non_numeric_field(models):
    """Under a strict stdin encoding an undecodable byte names its line, as any bad field does."""
    child = subprocess.run(
        [sys.executable, "-m", "rapidhare.cli", "predict", "-", "--model", str(models(4))],
        input=b"0.1\t0.2\t0.3\t0.4\n\n0.1\t\xff\t0.3\t0.4\n", capture_output=True,
        env=child_env(PYTHONIOENCODING="utf-8:strict"), timeout=60,
    )
    assert child.returncode == 2
    assert child.stderr == b"error: stdin:3: non-numeric frame value\n"
    assert child.stdout.startswith(b"0\t") and child.stdout.count(b"\n") == 1


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--df=lag=5,channels=1,1", "directional source_channels contains duplicate indices"),
        ("--channels=0,0", "channel selection contains duplicate indices"),
    ],
)
def test_a_bad_feature_index_on_stdin_is_reported_at_the_first_frame(flag, message, models, monkeypatch, capsys):
    """The first frame sets the input width, so both flags' indices are checked there; no frame, no check."""
    argv = ["predict", "-", f"--model={models(4)}", flag]
    frames = b"0.1\t0.2\t0.3\t0.4\n" * 3
    for stdin, want in ((b"\n\n", (0, "", "")), (frames, (2, "", f"error: {message}\n"))):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
        assert (main(argv), *capsys.readouterr()) == want


@pytest.mark.parametrize("window", [0, 1, 26])
@pytest.mark.parametrize("tied", [False, True], ids=["drawn", "identical"])
def test_predict_stdin_prints_the_oracle_lines_of_its_window_scores(window, tied, models, tmp_path):
    """Every ``predict -`` line is the block oracle's line for that frame's window scores.

    On the drawn model these frames give both settled and unsettled lines at
    every window; on identical mixtures every frame ties.
    """
    model = models(4)
    if tied:
        model = tmp_path / "identical.txt"
        save_model_set(identical_model_set(4), model)
    frames = np.random.default_rng(window).uniform(-5, 5, (300, 4))
    session = PredictorSession(load_model_set(model), window)
    scores = np.array([session.push_frame(x) for x in frames])
    ranked = np.sort(scores, axis=1)
    settled = np.count_nonzero(ranked[:, -1] - ranked[:, -2] >= cli._SETTLED_GAP)
    assert settled == 0 if tied else 0 < settled < len(frames)
    stdin = "".join("\t".join(map(repr, row)) + "\n" for row in frames.tolist()).encode()
    out = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            assert main(["predict", "-", f"--model={model}", f"--window={window}"]) == 0
    finally:
        sys.stdin = old_stdin
    assert out.getvalue() == _printed(write_predictions_oracle, 0, scores)


# ------------------------------------------------------- the chunked file reader

_CHUNK = CHUNK_LINES  # data lines per chunk of a recording, 1024
# Three thigh accelerometers, so `--df lag=N` finds three sources by name.
_CHUNK_HEADER = "acc_rt_x\tacc_rt_z\tacc_lt_x\tgyro_lt_y\tact"


def _recording_text(n_frames, seed, newline="\n"):
    """A valid recording of random raw values and 100-frame label runs."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-32768, 32768, size=(n_frames, 4))
    labels = np.repeat(rng.integers(1, 9, size=-(-n_frames // 100)), 100)[:n_frames]
    rows = np.column_stack([values, labels]).tolist()
    lines = ["#subject 01", _CHUNK_HEADER] + ["\t".join(map(str, row)) for row in rows]
    return newline.join(lines) + newline


def _predict_output(predict, argv):
    """What a ``predict FILE`` function prints for ``argv``, run as cmd_predict runs it."""
    args = cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()) as out, np.errstate(over="ignore", invalid="ignore"):
        assert predict(load_model_set(args.model), args) == 0
    return out.getvalue()


@settings(max_examples=40)
@given(
    n_frames=st.sampled_from([1, 255, 256, 257, 1023, 1024, 1025, 2049]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(0, 1100),
    lag=st.none() | st.integers(1, 2100),
)
def test_predict_file_in_chunks_prints_what_the_whole_file_path_printed(
    n_frames, newline, seed, window, lag, models, tmp_path_factory
):
    path = tmp_path_factory.getbasetemp() / "chunks.tsv"
    path.write_bytes(_recording_text(n_frames, seed, newline).encode("ascii"))
    width, flags = (4, []) if lag is None else (7, [f"--df=lag={lag}"])
    argv = ["predict", str(path), f"--model={models(width)}", f"--window={window}", *flags]
    expected = _predict_output(predict_file_oracle, argv)
    assert len(expected.splitlines()) == n_frames
    assert _predict_output(cli._predict_file, argv) == expected


@pytest.mark.parametrize("column, field", [(0, b"12x"), (1, b"1\xe92"), (-1, b"9")])
def test_an_error_in_the_second_chunk_comes_after_the_first_chunks_lines(
    column, field, models, tmp_path, capsys
):
    """Exit 2 with the whole-file parse's message, after exactly the first chunk's lines."""
    path = tmp_path / "r.tsv"
    text = _recording_text(2 * _CHUNK + 1, 3).encode("ascii")
    path.write_bytes(text)
    argv = ["predict", str(path), f"--model={models(4)}"]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines(keepends=True)
    lines = text.split(b"\n")
    frame = _CHUNK + 476  # in the second chunk, its line past the header's two
    fields = lines[2 + frame].split(b"\t")
    fields[column] = field
    lines[2 + frame] = b"\t".join(fields)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as whole:
        parse_recording(path)
    assert f":{3 + frame}: " in str(whole.value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {whole.value}\n"
    assert captured.out == "".join(clean[:_CHUNK])


def _two_channel_lines(n_frames):
    """A valid recording of ``n_frames`` frames ``0 0 1`` as lines of bytes; frame i is on line i + 3."""
    return [b"#subject 01", b"acc_rt_x\temg_r\tact"] + [b"0\t0\t1"] * n_frames


def test_a_byte_early_in_the_second_chunk_comes_after_the_first_chunks_lines(
    models, tmp_path, capsys
):
    """The header is read line by line, so a byte after it waits for its chunk's turn.

    Line 1033 starts 6.2 kB into the file, inside the first 8 kB that text
    mode decodes at once.
    """
    path = tmp_path / "r.tsv"
    lines = _two_channel_lines(1100)
    path.write_bytes(b"\n".join(lines) + b"\n")
    argv = ["predict", str(path), f"--model={models(2)}"]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines(keepends=True)
    lines[1032] = b"0\t0\xe9\t1"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError) as whole:
        parse_recording(path, TWO_CHANNELS)
    assert str(whole.value) == f"{path}:1033: non-ASCII byte"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {whole.value}\n"
    assert captured.out == "".join(clean[:_CHUNK])


@pytest.mark.parametrize(
    "command", ["parse_recording", "train", "evaluate", "predict", "predict --oracle"]
)
def test_every_reader_reports_a_first_chunk_label_before_a_second_chunk_line(
    command, models, tmp_path, capsys
):
    """One error order: each chunk's lines, labels and values before the next chunk's."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / "r.tsv"
    lines = _two_channel_lines(1100)
    lines[12] = b"0\t0\t9"  # frame 10, in the first chunk
    lines[1052] = b"0\tx\t1"  # frame 1050, in the second
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = f"{path}:13: unknown label id 9"
    if command == "parse_recording":
        with pytest.raises(DataError) as err:
            parse_recording(path, TWO_CHANNELS)
        assert str(err.value) == message
        return
    args = {
        "train": ["train", str(data_dir), "--out", str(tmp_path / "model.txt")],
        "evaluate": ["evaluate", str(data_dir)],
        "predict": ["predict", str(path), f"--model={models(2)}"],
        "predict --oracle": ["predict", str(path), f"--model={models(2)}", "--oracle"],
    }[command]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("bad_line", [3, 1053])
@pytest.mark.parametrize(
    "flags, width, message",
    [
        (["--channels=0,7"], 2, "channel selection: channel index 7 out of range for 2 channels"),
        ([], 3, "{path}: model has 3 dimensions, the features have 2"),
    ],
)
def test_predict_file_and_its_oracle_check_every_setting_before_the_first_data_line(
    flags, width, message, bad_line, oracle, models, tmp_path, capsys
):
    """A bad setting comes before a bad data line, in the first chunk or the second, on both paths."""
    path = tmp_path / "r.tsv"
    lines = _two_channel_lines(1100)
    lines[bad_line - 1] = b"0\tx\t1"
    path.write_bytes(b"\n".join(lines) + b"\n")
    argv = ["predict", str(path), f"--model={models(width)}", *flags, *["--oracle"] * oracle]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


def _first_file_error(command, path, models, tmp_path):
    """The one error line of ``command`` on the recording at ``path``, which must exit 2."""
    if command == "parse_recording":
        with pytest.raises(DataError) as err:
            parse_recording(path)
        return f"error: {err.value}\n"
    args = {
        "train": ["train", str(path.parent), "--out", str(tmp_path / "model.txt")],
        "predict": ["predict", str(path), f"--model={models(2)}"],
        "predict --oracle": ["predict", str(path), f"--model={models(2)}", "--oracle"],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(args) == 2
    assert out.getvalue() == ""
    return err.getvalue()


@pytest.mark.parametrize("second", [False, True])
@pytest.mark.parametrize("command", ["parse_recording", "train", "predict", "predict --oracle"])
def test_a_file_of_only_a_rate_line_misses_its_subject_for_every_reader(
    command, second, models, tmp_path
):
    """No header and no ``#subject``: the subject is missed first, wherever the file comes."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    if second:  # a valid recording before it in the directory
        (data_dir / "a.tsv").write_bytes(b"\n".join(_two_channel_lines(3)) + b"\n")
    path = data_dir / "b.tsv"
    path.write_bytes(b"#rate 50\n")
    message = f"error: {path}: missing '#subject' metadata line\n"
    assert _first_file_error(command, path, models, tmp_path) == message


@pytest.mark.parametrize("command", ["parse_recording", "train", "predict", "predict --oracle"])
def test_a_header_column_of_no_known_kind_names_its_line(command, models, tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / "r.tsv"
    path.write_bytes(b"#subject 01\nacc_rt_x\tfoo\tact\n0\t0\t1\n")
    message = f"error: {path}:2: cannot infer sensor kind from column name 'foo'\n"
    assert _first_file_error(command, path, models, tmp_path) == message


@pytest.mark.filterwarnings("error")  # np.loadtxt warns when every line it is given is blank
@pytest.mark.parametrize("command", ["parse_recording", "train", "predict", "predict --oracle"])
def test_a_chunk_of_only_blank_lines_is_one_error_line(command, models, tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / "r.tsv"
    path.write_bytes(b"#subject 01\nacc_rt_x\temg_r\tact\n\n\n")
    message = f"error: {path}:3: blank line\n"
    assert _first_file_error(command, path, models, tmp_path) == message


def test_predict_file_memory_does_not_grow_with_the_recording(models, tmp_path):
    """Eight times the frames, less than twice the traced peak.

    The bound is set from a measurement: the peaks at 2,048 and 16,384 frames
    were 308 and 307 kB (1.00 times), and 290 kB at 32,768 frames, with each
    chunk's lines taken from the text stream. With 64 Ki-character reads
    they were 472 and 699 kB (1.48 times); reading the whole recording
    first, 0.41 and 2.41 MB (5.8 times).
    """
    peaks = []
    for n_frames in (2048, 16384):
        path = tmp_path / f"r{n_frames}.tsv"
        path.write_text(_recording_text(n_frames, 5))
        peaks.append(traced_main_peak(["predict", str(path), f"--model={models(7)}", "--df=lag=15"]))
    assert peaks[1] <= 2.0 * peaks[0]


def test_predict_file_frees_each_chunks_tables_before_it_scores_the_chunk(models, tmp_path):
    """On 38 channels the traced peak stays below five of one chunk's float tables.

    The bound is set from measurements at 2,048 to 16,384 frames: 3.6 tables
    when the chunk's integer table, masks, scaled frames and features are freed
    as soon as they are used, 4.7 when only the integer table, masks and scaled
    frames are, and 6.7 when the integer table and masks are held while the
    chunk is scored and the features while the next chunk is read.
    """
    channels = full_sensor_channels()
    rng = np.random.default_rng(3)
    labels = np.repeat(rng.integers(1, 9, size=41), 100)[:4096]
    path = tmp_path / "wide.tsv"
    write_recording(LabeledSequence("01", rng.uniform(-1, 1, (4096, 38)), labels), channels, path)
    peak = traced_main_peak(["predict", str(path), f"--model={models(42)}", "--df=lag=15"])
    assert peak < 5.0 * CHUNK_LINES * len(channels) * 8
