"""The model reader against the reader it replaced.

The test draws a valid file, applies at most one mutation to it, and requires
the reader to give its oracle's parameters bit for bit, or its DataError text.
Any other exception fails the test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidhare import DataError, load_model_set, save_model_set
from conftest import load_model_set_oracle, random_model_set

_TOKENS = ("nan", "inf", "1e400", "x", "0", "-1")
_MUTATIONS = (
    None, "insert", "line_end", "drop", "repeat", "swap", "token", "extra_token", "trailing",
    "non_ascii",
)


@st.composite
def _mutated(draw, lines: list[str]) -> bytes:
    """``lines`` as the bytes of a file, with at most one mutation drawn."""
    lines = list(lines)
    kind = draw(st.sampled_from(_MUTATIONS))
    end = "\n"
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "insert":
        line = draw(st.sampled_from(["", " \t ", "#", "# note"]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif kind == "line_end":
        end = draw(st.sampled_from(["\r\n", "\r"]))
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind in ("token", "extra_token"):
        i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.split()]))
        tokens = lines[i].split()
        token = draw(st.sampled_from(_TOKENS))
        if kind == "token":  # counted from the end, so values come before keywords
            tokens[-1 - draw(st.integers(0, len(tokens) - 1))] = token
        else:
            tokens.append(token)
        lines[i] = " ".join(tokens)
    elif kind == "trailing":
        lines.append(draw(st.sampled_from(["x", "1", "seed 1", "component 1"])))
    data = "".join(line + end for line in lines).encode("ascii")
    if kind == "non_ascii":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


def _outcome(load, path, params):
    """The parameters of what ``load`` reads, or the text of its DataError."""
    try:
        return params(load(path))
    except DataError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _model_params(model_set):
    return {
        label: (m.weights.tobytes(), m.means.tobytes(), m.variances.tobytes())
        for label, m in model_set.models.items()
    }


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), data=st.data())
def test_model_reader_matches_its_oracle(scratch, seed, dim, data):
    path = scratch / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(seed), dim, k_lo=1, k_hi=2), path)
    path.write_bytes(data.draw(_mutated(path.read_text().splitlines())))
    expected = _outcome(load_model_set_oracle, path, _model_params)
    assert _outcome(load_model_set, path, _model_params) == expected
