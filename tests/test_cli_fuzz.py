"""`synth`, `bench`, `train` and `evaluate` through ``cli.main`` over drawn inputs and flags.

Every run must end with exit 0, or with exit 1, 2 or 3 and one error line on
stderr; never with a traceback or a RuntimeWarning. A usage error (exit 1)
prints argparse's usage text before its one error line.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidhare.bench import BENCH_METHODS
from rapidhare.cli import main
from rapidhare.data import ALL_LABELS, load_dataset
from rapidhare.gmm import load_model_set, save_model_set
from rapidhare.predictor import MAX_WINDOW_K

from conftest import random_model_set


def _run(argv):
    """Run the CLI in process and check how it ended; its exit code, stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    elif rc == 1:
        assert out.getvalue() == ""
        assert lines[-1].startswith(f"rapidhare {argv[0]}: error: argument ")
        assert sum(": error: " in line for line in lines) == 1
    else:
        assert rc in (2, 3)
        assert len(lines) == 1
        assert lines[0].startswith("error: " if rc == 2 else "numeric failure: ")
    return rc, out.getvalue(), lines


def _mostly(valid, other, times=7):
    """Draws of ``valid`` about ``times`` times in ``times + 1``, of ``other`` otherwise."""
    return st.sampled_from([valid] * times + [other]).flatmap(lambda strategy: strategy)


# ---------------------------------------------------------------------- synth

# Small counts, and counts far past the draw cap: a draw in between would write
# a recording too long for the time this test has.
_SYNTH_INTS = st.integers(-3, 40) | st.sampled_from([10**9, 10**30, -(10**30), 2**63])
_SYNTH_ANY = (
    _SYNTH_INTS.map(str)
    | st.floats().map(repr)  # nan, inf, huge and negative values among them
    | st.sampled_from(["nan", "-inf", "1e400", "0.5", "1_0", "0x10", "x"])
)
_SYNTH_VALID = {
    "--subjects": st.integers(1, 3),
    "--frames": st.integers(1, 60),
    "--dim": st.integers(3, 8),
    "--min-segment": st.integers(1, 10),
    "--seed": st.integers(0, 2**64),
    "--separation": st.floats(-0.9, 0.9),
    "--sigma": st.floats(0.001, 0.1) | st.floats(-0.1, -0.001),
}


@st.composite
def _synth_flags(draw):
    """The ``synth`` flags in any order, with mostly valid values.

    ``--frames`` and ``--min-segment`` are always given: no draw writes the
    default 20,000 frames per subject, and a short one can still hold its
    segments. Each value follows an ``=``, so a negative one is not read as a flag.
    """
    optional = [flag for flag in _SYNTH_VALID if flag not in ("--frames", "--min-segment")]
    flags = ["--frames", "--min-segment"] + draw(st.lists(st.sampled_from(optional), unique=True))
    return [
        f"{flag}={draw(_mostly(_SYNTH_VALID[flag].map(repr), _SYNTH_ANY))}"
        for flag in draw(st.permutations(flags))
    ]


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(flags=_synth_flags())
def test_synth_ends_in_recordings_or_one_error(flags, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("synth")
    rc, stdout, _ = _run(["synth", "--out", str(out_dir), *flags])
    if rc == 0:
        written = int(re.fullmatch(rf"wrote (\d+) recordings to {re.escape(str(out_dir))}\n", stdout)[1])
        assert written == len(list(out_dir.iterdir())) >= 1


# ---------------------------------------------------------------------- bench


@pytest.fixture(scope="module")
def bench_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(3), 3, 1, 2), path)
    return path


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(
    frames=_mostly(st.integers(1, 50), st.integers(-2, 0) | st.just("x")),
    repeats=_mostly(st.integers(1, 2), st.integers(-2, 0)),
    method=_mostly(st.sampled_from(BENCH_METHODS), st.just("viterbi")),
    window=_mostly(st.sampled_from([0, 1, 26, 1000]), st.sampled_from([-1, MAX_WINDOW_K + 1, "x"])),
    hmm_window=_mostly(st.sampled_from([1, 2, 10, 49, 10**15]), st.sampled_from([0, -1])),
    seed=_mostly(st.integers(0, 2**64 + 1), st.integers(-(2**64), -1)),
    fmt=st.sampled_from(["table", "tsv"]),
)
def test_bench_ends_in_finite_fields_or_one_error(
    frames, repeats, method, window, hmm_window, seed, fmt, bench_model
):
    """``--window`` stops at 1000 here: a ``batch`` pass at MAX_WINDOW_K sums 100,000 look-back rows."""
    argv = ["bench", f"--model={bench_model}", f"--frames={frames}", f"--repeats={repeats}",
            f"--method={method}", f"--window={window}", f"--hmm-window={hmm_window}",
            f"--seed={seed}", f"--format={fmt}"]
    rc, stdout, _ = _run(argv)
    if rc == 0:
        lines = stdout.splitlines()
        fields = dict(zip(*[line.split("\t") for line in lines])) if fmt == "tsv" else dict(
            line.split(": ") for line in lines
        )
        assert (fields["method"], fields["frames"], fields["repeats"]) == (method, str(frames), str(repeats))
        for name in ("mean_us", "std_us", "p99_us"):
            assert math.isfinite(float(fields[name])) and float(fields[name]) >= 0.0


# ----------------------------------------------------------- train, evaluate

@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    """A three-subject ``synth`` directory per (frames, dim, min_segment, seed), written once.

    ``synth_data(*key)`` gives the directory and the activities it lacks.
    """
    written = {}

    def get(frames, dim, min_segment, seed):
        key = (frames, dim, min_segment, seed)
        if key not in written:
            out_dir = tmp_path_factory.mktemp("fuzz_data")
            rc, _, _ = _run(["synth", f"--out={out_dir}", "--subjects=3", f"--frames={frames}",
                             f"--dim={dim}", f"--min-segment={min_segment}", f"--seed={seed}"])
            assert rc == 0
            present = set(np.concatenate([s.labels for s in load_dataset(out_dir).sequences]).tolist())
            written[key] = out_dir, [label for label in ALL_LABELS if int(label) not in present]
        return written[key]

    return get


def _flag(valid, other):
    """(value, True) from ``valid`` 15 times in 16, else (value, False) from ``other``.

    So about half of ``evaluate``'s runs get all ten of its flags valid and reach training.
    """
    return _mostly(valid.map(lambda v: (v, True)), other.map(lambda v: (v, False)), times=15)


_COMPONENTS = st.dictionaries(st.sampled_from(ALL_LABELS), st.integers(1, 40), min_size=1).map(
    lambda counts: ",".join(f"{label.label_name}={k}" for label, k in counts.items())
)
_BAD_REALS = st.sampled_from(["0", "-1", "nan", "inf", "x"])
# Up to 1000 frames a subject, 3000 in all; the longer segments leave activities out.
# ``synth`` draws at least 3 channels, and ``--channels`` keeps 2 of them.
_DATA = st.tuples(
    st.integers(150, 1000), st.integers(3, 6), st.sampled_from([20, 30, 150]), st.integers(0, 20)
)
# Short segments over 1000 frames a subject: every fold's two subjects nearly always hold
# every activity, so most of ``evaluate``'s runs with valid flags get to score.
_FOLD_DATA = st.tuples(st.just(1000), st.integers(3, 6), st.just(20), st.integers(0, 20))
_TRAIN_FLAGS = {
    "--em-iters": _flag(st.integers(1, 12), st.sampled_from([0, -1, "x"])),
    "--em-tol": _flag(st.sampled_from([1e-6, 1e-3, 0.5, 1e300]), _BAD_REALS),
    "--variance-floor": _flag(st.sampled_from([1e-6, 1e-3, 0.5, 1e300]), _BAD_REALS | st.just(1e-320)),
    "--restarts": _flag(st.integers(1, 2), st.sampled_from([0, -1])),
    "--components": _flag(st.none() | _COMPONENTS, st.sampled_from(["walking=0", "walkin=3", "sitting=2,"])),
    "--seed": _flag(st.integers(0, 2**64 + 1), st.integers(-(2**64), -1)),
    "--channels": _flag(st.sampled_from([None, "0,1", "2,0"]), st.just("0,9")),
}
_EVALUATE_FLAGS = {
    "--window": _flag(st.sampled_from([0, 1, 26, 1000]), st.sampled_from([-1, MAX_WINDOW_K + 1])),
    "--method": _flag(st.sampled_from(["rapidhare", "hmm"]), st.just("viterbi")),
    "--tolerance": _flag(st.integers(0, 60), st.just(-1)),
}


def _argv(flags):
    return [f"{name}={value}" for name, (value, _) in flags.items() if value is not None]


def _check_missing_activity(rc, lines, missing, flags, folds=False):
    """With every flag valid, a dataset that lacks an activity ends in train's one-line exit 2.

    In ``folds`` (``evaluate``) an activity that only the held-out subject
    holds can stop a fold first.
    """
    if missing and all(ok for _, ok in flags.values()):
        assert rc == 2
        match = re.fullmatch(r"error: activity (\w+): (\d+) training frames, need at least (\d+)", lines[0])
        assert match and int(match[2]) < int(match[3])
        if flags["--components"][0] is None and not folds:
            assert (match[1], match[2]) == (missing[0].label_name, "0")


@pytest.mark.filterwarnings("error")
@settings(max_examples=150)
@given(data=_DATA, flags=st.fixed_dictionaries(_TRAIN_FLAGS))
def test_train_ends_in_a_model_or_one_error(data, flags, synth_data, tmp_path_factory):
    data_dir, missing = synth_data(*data)
    out = tmp_path_factory.getbasetemp() / "fuzz_model.txt"
    rc, stdout, lines = _run(["train", str(data_dir), f"--out={out}"] + _argv(flags))
    _check_missing_activity(rc, lines, missing, flags)
    if rc == 0:
        assert not missing
        assert [line.split("\t")[0] for line in stdout.splitlines()] == [label.label_name for label in ALL_LABELS]
        assert all(math.isfinite(float(line.split("\t")[1])) for line in stdout.splitlines())
        assert load_model_set(out).dim == (2 if flags["--channels"][0] else data[1])


@pytest.mark.filterwarnings("error")
@settings(max_examples=70)
@given(data=_mostly(_FOLD_DATA, _DATA, times=3), flags=st.fixed_dictionaries({**_TRAIN_FLAGS, **_EVALUATE_FLAGS}))
def test_evaluate_ends_in_two_reports_or_one_error(data, flags, synth_data):
    data_dir, missing = synth_data(*data)
    rc, stdout, lines = _run(["evaluate", str(data_dir), "--format=tsv"] + _argv(flags))
    _check_missing_activity(rc, lines, missing, flags, folds=True)
    if rc == 0:
        assert not missing
        out = stdout.splitlines()
        starts = [i + 1 for i, line in enumerate(out) if line.startswith("confusion")]
        assert len(starts) == 2
        for i in starts:  # every frame of every subject, once
            assert sum(int(v) for line in out[i : i + len(ALL_LABELS)] for v in line.split("\t")) == 3 * data[0]
