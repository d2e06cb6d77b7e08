"""The benchmark's input builder still runs against the package.

``perfbench/inputs.py`` writes the ``stream`` and ``replay`` workloads'
model, recording and stdin frames through the package's channel, recording
and model API. A change there would otherwise show only as a failed
benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from rapidhare import parse_recording

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_stream_inputs_are_written_and_the_stdin_frames_are_the_parsed_recording(
    tmp_path, monkeypatch
):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    inputs = importlib.import_module("inputs")
    made = inputs.make_stream_inputs(tmp_path, 5, 600)
    assert all(p.is_file() for p in (made.model, made.recording, made.frames))
    text = made.frames.read_bytes()
    assert text == b"".join(made.frame_lines)
    stdin = np.array([[float(v) for v in line.split(b"\t")] for line in text.splitlines()])
    frames = parse_recording(made.recording).frames
    assert stdin.shape == (600, inputs.N_CHANNELS)
    assert np.array_equal(stdin.view(np.int64), frames.view(np.int64))
