"""Run one rapidhare command with a span around each layer's public functions.

Usage: python3 perfbench/tracer.py SPANS.npz -- COMMAND ARGS...

The program is not changed: each function is replaced, at the module or
class attribute its callers look it up by, with a wrapper that records the
span (name, start, end, parent span) in memory. Reading a line from standard
input gets a span too, so that time spent waiting for input is not counted as
the command's own work. ``rapidhare.cli.main`` then runs with the given
arguments under a root span ``cli.main``, and the spans and counters are
written to SPANS.npz when the command returns. ``run.py`` turns them into
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

import rapidhare.cli
import rapidhare.data
import rapidhare.evaluation
import rapidhare.features
import rapidhare.gmm
import rapidhare.predictor


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent span index or -1)
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.sessions: list = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` updates counters."""
        nid = self.names.setdefault(name, len(self.names))
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def count(self, owner, attr: str, after) -> None:
        """Count through ``after`` without a span, so the caller's self time keeps the work."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, counted)


def install(tr: Tracer) -> None:
    cli, data, ev, feat, gmm, pred = (
        rapidhare.cli, rapidhare.data, rapidhare.evaluation, rapidhare.features,
        rapidhare.gmm, rapidhare.predictor,
    )
    c = tr.counters

    def rows(args, seq):
        c["data.rows"] += seq.n_frames

    def em_iters(args, result):
        c["gmm.em_iters"] += len(result[1])

    def tolerance(args, adjusted):
        before = np.asarray(args[1])
        c["tolerance.frames"] += len(before)
        c["tolerance.fixed"] += int(np.count_nonzero(np.asarray(adjusted) != before))

    def session(args, _):
        tr.sessions.append(args[0])

    for owner in (cli, data):
        tr.patch(owner, "parse_recording", "data.parse_recording", rows)
    tr.patch(cli, "load_dataset", "data.load_dataset")
    tr.patch(feat.FeatureConfig, "apply", "features.apply")
    tr.patch(feat.StreamingDirectional, "push", "features.stream_push")
    tr.patch(cli, "load_model_set", "gmm.load_model_set")
    for owner in (cli, ev):
        tr.patch(owner, "fit_activity_models", "gmm.fit_activity_models")
    tr.patch(gmm, "fit_em", "gmm.fit_em")
    tr.patch(gmm, "kmeans_init", "gmm.kmeans_init")
    tr.count(gmm, "fit_em_trace", em_iters)
    tr.patch(pred.PredictorSession, "__init__", "predictor.session_init", session)
    tr.patch(pred.PredictorSession, "push_frame", "predictor.push_frame")
    for owner in (cli, pred):
        tr.patch(owner, "posterior", "predictor.posterior")
    tr.patch(ev, "apply_border_tolerance", "evaluation.apply_border_tolerance", tolerance)
    tr.patch(cli, "generate", "synth.generate")
    sys.stdin = _TracedLines(sys.stdin, tr.wrap("cli.stdin_read", sys.stdin.__next__))


class _TracedLines:
    """Standard input whose line iteration, all that `predict -` uses, is traced."""

    def __init__(self, stream, next_line):
        self._stream = stream
        self._next_line = next_line

    def __iter__(self):
        return self

    def __next__(self):
        return self._next_line()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out, command = argv[0], argv[2:]
    tr = Tracer()
    install(tr)
    code = tr.wrap("cli.main", rapidhare.cli.main)(command)
    sys.stdout.flush()
    meta = {
        "names": sorted(tr.names, key=tr.names.get),
        "counters": dict(tr.counters),
        "gmm_evaluations": sum(s.gmm_evaluations for s in tr.sessions),
        "frames_seen": sum(s.frames_seen for s in tr.sessions),
    }
    spans = np.array(tr.spans, dtype=np.int64).reshape(-1, 4)
    np.savez(out, spans=spans, meta=np.array(json.dumps(meta)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
