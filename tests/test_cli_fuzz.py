"""`synth --spec` and `bench` through ``cli.main`` over drawn spec files and flags.

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
from rapidhare.gmm import save_model_set
from rapidhare.predictor import MAX_WINDOW_K

from conftest import random_model_set


def _run(argv):
    """Run the CLI in process and check how it ended; its exit code and stdout."""
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
    return rc, out.getvalue()


def _mostly(valid, other):
    """Draws of ``valid`` about seven times in eight, of ``other`` otherwise."""
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda strategy: strategy)


# ---------------------------------------------------------------- synth --spec

# Small counts, and counts far past the draw cap: a draw in between would write
# a recording too long for the time this test has.
_SPEC_INTS = st.integers(-3, 40) | st.sampled_from([10**9, 10**30, -(10**30), 2**63])
_SPEC_ANY = (
    _SPEC_INTS.map(str)
    | st.floats().map(repr)  # nan, inf, huge and negative values among them
    | st.sampled_from(["nan", "-inf", "1e400", "0.5", "1_0", "0x10", "x"])
)
_SPEC_VALID = {
    "n_subjects": st.integers(1, 3),
    "frames_per_subject": st.integers(1, 60),
    "dim": st.integers(3, 8),
    "min_segment": st.integers(1, 10),
    "seed": st.integers(0, 2**64),
    "separation": st.floats(-0.9, 0.9),
    "sigma": st.floats(0.001, 0.1) | st.floats(-0.1, -0.001),
}


@st.composite
def _spec_text(draw):
    """Known keys with mostly valid values, now and then an unknown or repeated key.

    ``frames_per_subject`` and ``min_segment`` are always given: no draw
    writes the default 20,000 frames per subject, and a short one can still
    hold its segments.
    """
    optional = [key for key in _SPEC_VALID if key not in ("frames_per_subject", "min_segment")]
    keys = ["frames_per_subject", "min_segment"] + draw(st.lists(st.sampled_from(optional), unique=True))
    keys += draw(_mostly(st.just([]), st.lists(st.sampled_from(["frames", "Seed", "dim"]), max_size=1)))
    lines = []
    for key in draw(st.permutations(keys)):
        value = draw(_mostly(_SPEC_VALID.get(key, _SPEC_INTS).map(str), _SPEC_ANY))
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(text=_spec_text())
def test_synth_spec_ends_in_recordings_or_one_error(text, tmp_path_factory):
    spec = tmp_path_factory.getbasetemp() / "fuzz_spec.txt"
    spec.write_text(text)
    out_dir = tmp_path_factory.mktemp("synth")
    rc, stdout = _run(["synth", "--out", str(out_dir), "--spec", str(spec)])
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
    rc, stdout = _run(argv)
    if rc == 0:
        lines = stdout.splitlines()
        fields = dict(zip(*[line.split("\t") for line in lines])) if fmt == "tsv" else dict(
            line.split(": ") for line in lines
        )
        assert (fields["method"], fields["frames"], fields["repeats"]) == (method, str(frames), str(repeats))
        for name in ("mean_us", "std_us", "p99_us"):
            assert math.isfinite(float(fields[name])) and float(fields[name]) >= 0.0
