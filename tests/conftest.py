"""Shared builders and independent oracles used across the test suite."""

import contextlib
import itertools
import os
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import rapidhare
from rapidhare import (
    ALL_LABELS, ActivityLabel, ActivityModelSet, DataError, GmmModel, LabeledSequence,
    PredictorSession, naive_window_scores, parse_recording,
)
from rapidhare.cli import _feature_config, _write_predictions, main
from rapidhare.data import N_ACTIVITIES, recording_chunks
from rapidhare.gmm import KMEANS_MAX_ITERS, MODEL_FORMAT_TAG
from rapidhare.hmm import TransitionMatrix
from rapidhare.predictor import BLOCK_ROWS, posterior
from rapidhare.synth import default_spec

# Every property test draws the same examples on every run, however long it takes.
settings.register_profile("rapidhare", derandomize=True, deadline=None)
settings.load_profile("rapidhare")


def random_gmm(rng, dim, k, mean_scale=1.2, var_lo=0.05, var_hi=0.6):
    """A random but well-conditioned mixture for oracle comparisons."""
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    means = rng.uniform(-mean_scale, mean_scale, size=(k, dim))
    variances = rng.uniform(var_lo, var_hi, size=(k, dim))
    return GmmModel(weights, means, variances)


def random_model_set(rng, dim, k_lo=1, k_hi=3):
    models = {
        label: random_gmm(rng, dim, int(rng.integers(k_lo, k_hi + 1))) for label in ALL_LABELS
    }
    return ActivityModelSet(models)


def identical_model_set(dim=3):
    """Every activity the same one-component mixture, so every window score ties."""
    base = GmmModel(np.array([1.0]), np.zeros((1, dim)), np.ones((1, dim)))
    return ActivityModelSet({label: base for label in ALL_LABELS})


def log_pdf_oracle(model, x):
    """Direct mixture summation in 80-bit extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    w = model.weights.astype(np.longdouble)
    mu = model.means.astype(np.longdouble)
    var = model.variances.astype(np.longdouble)
    diff = x - mu
    expo = -0.5 * np.sum(diff * diff / var, axis=1)
    norm = np.prod(2.0 * np.longdouble(np.pi) * var, axis=1) ** np.longdouble(-0.5)
    total = np.sum(w * norm * np.exp(expo))
    return float(np.log(total))


def enumerate_viterbi(log_prior, log_trans, emissions, states):
    """Best path by brute-force enumeration over the given admissible states.

    Accumulates each path's score in time order so it is bit-comparable with
    a dynamic-programming decode of the same instance.
    """
    n_frames = len(emissions)
    best_path, best_score = None, -np.inf
    for path in itertools.product(states, repeat=n_frames):
        score = log_prior[path[0]] + emissions[0][path[0]]
        for t in range(1, n_frames):
            score = score + log_trans[path[t - 1], path[t]] + emissions[t][path[t]]
        if score > best_score:
            best_path, best_score = path, score
    return list(best_path), best_score


def parse_recording_oracle(path, channels):
    """The line-by-line parser that ``parse_recording`` replaced, kept as its oracle.

    It reads the file in text mode and converts each field with ``int()``.
    Four rules were added to the original: a non-ASCII byte is a DataError
    naming its line, the first check made on each line; a field holding ``_``
    is non-integer (``int()`` reads ``1_000``; the format does not); label ids
    and raw ranges are checked on Python integers, so a value beyond int64 is
    an unknown label or out of range instead of an OverflowError; and a
    ``#rate`` that is not finite and positive is a DataError naming its line.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such recording file: {path}")
    with open(path, encoding="ascii", errors="replace") as fh:
        lines = [line.rstrip("\n") for line in fh]
    subject = None
    rate = 56.35
    header_seen = False
    rows = []
    first_data_line = 0
    n_cols = len(channels) + 1
    for lineno, line in enumerate(lines, start=1):
        if "\ufffd" in line:
            raise DataError(f"{path}:{lineno}: non-ASCII byte")
        if not line:
            raise DataError(f"{path}:{lineno}: blank line")
        if line.startswith("#"):
            if header_seen:
                raise DataError(f"{path}:{lineno}: metadata line after the header")
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "subject":
                subject = parts[1]
            elif len(parts) == 2 and parts[0] == "rate":
                try:
                    rate = float(parts[1])
                except ValueError:
                    rate = np.nan
                if not 0 < rate < np.inf:
                    raise DataError(f"{path}:{lineno}: bad sample rate {parts[1]!r}")
        elif not header_seen:
            names = line.split("\t")
            if len(names) < 2 or names[-1] != "act":
                raise DataError(f"{path}:{lineno}: header must end with an 'act' column")
            if names[:-1] != [c.name for c in channels]:
                raise DataError(f"{path}:{lineno}: header columns do not match the channel spec")
            header_seen = True
        else:
            parts = line.split("\t")
            if len(parts) != n_cols:
                raise DataError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
            try:
                if any("_" in p for p in parts):
                    raise ValueError
                row = [int(p) for p in parts]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer field") from None
            if not rows:
                first_data_line = lineno
            rows.append(row)
    if subject is None:
        raise DataError(f"{path}: missing '#subject' metadata line")
    if not header_seen:
        raise DataError(f"{path}: missing header line")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if not 1 <= row[-1] <= len(ALL_LABELS):
            raise DataError(f"{path}:{first_data_line + i}: unknown label id {row[-1]}")
    for i, row in enumerate(rows):
        for value, chan in zip(row, channels):
            if not chan.raw_min <= value <= chan.raw_max:
                raise DataError(
                    f"{path}:{first_data_line + i}: value {value} outside the raw range of "
                    f"channel {chan.name!r}"
                )
    raw = np.array(rows, dtype=np.int64)
    mins = np.array([c.raw_min for c in channels], dtype=np.float64)
    spans = np.array([c.raw_max - c.raw_min for c in channels], dtype=np.float64)
    return LabeledSequence(subject, -1.0 + 2.0 * (raw[:, :-1] - mins) / spans, raw[:, -1], rate)


def expansion_coefficients_oracle(weights, means, variances):
    """The three coefficient blocks of ``expansion_coefficients``, joined by ``np.hstack``."""
    inv_var = 1.0 / variances
    const = (
        np.log(weights)
        - 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(variances), axis=1)
        - 0.5 * np.sum(means * means * inv_var, axis=1)
    )
    return np.hstack([-0.5 * inv_var, means * inv_var, const[:, None]])


def kmeans_pp_seeds_oracle(data, k, rng):
    """k-means++ seeds by brute force: each row's distance to every seed so far, anew.

    Each draw is one ``rng.random()``, r. A uniform row is ``int(r * n)``: the
    first seed, and every seed once no weight is left. Otherwise the seed is
    the first row whose cumulative weight, over the total, exceeds r; a row's
    weight is its squared distance to the nearest seed.
    """
    n = len(data)
    chosen = [int(rng.random() * n)]
    while len(chosen) < k:
        d2 = np.min([((data - data[i]) ** 2).sum(axis=1) for i in chosen], axis=0)
        cdf = np.cumsum(d2)
        if cdf[-1] > 0:
            chosen.append(int(np.flatnonzero(cdf / cdf[-1] > rng.random())[0]))
        else:
            chosen.append(int(rng.random() * n))
    return data[chosen]


def kmeans_init_oracle(data, k, seed, variance_floor=1e-6):
    """The allocating Lloyd loop that ``kmeans_init`` replaced, kept as its oracle.

    It starts from ``kmeans_pp_seeds_oracle`` on ``random.Random(seed)``.
    Each step builds a fresh distance matrix and takes every centroid as the
    mean of a masked copy of its rows. It reseeds an empty cluster by the
    library's rule: the point farthest from its centroid among clusters of two
    or more points.
    """
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    centers = kmeans_pp_seeds_oracle(data, k, random.Random(seed))
    sq_norms = (data * data).sum(axis=1)
    for _ in range(KMEANS_MAX_ITERS):
        dists = sq_norms[:, None] - 2.0 * (data @ centers.T) + (centers * centers).sum(axis=1)
        assign = dists.argmin(axis=1)
        d2min = dists[np.arange(n), assign]
        for j in range(k):
            if not (assign == j).any():
                sizes = np.bincount(assign, minlength=k)
                far = int(np.argmax(np.where(sizes[assign] >= 2, d2min, -np.inf)))
                assign[far] = j
        previous = centers
        centers = np.array([data[assign == j].mean(axis=0) for j in range(k)])
        if np.array_equal(centers, previous):
            break
    weights = np.bincount(assign, minlength=k) / n
    variances = np.array([data[assign == j].var(axis=0) for j in range(k)])
    return GmmModel(weights / weights.sum(), centers, np.maximum(variances, variance_floor))


def _allocating_em(data, init, cfg, rng, component_major):
    """EM with allocating steps; starved components restart at ``rng``'s rows.

    ``component_major`` keeps the densities as a (k, n) table and the lift as
    a contiguous (2 dim + 1, n) array, as ``gmm._em`` does; otherwise as the
    (n, k) table and (n, 2 dim + 1) lift it used before.
    """
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    lifted = np.hstack([data * data, data, np.ones((n, 1))])
    if component_major:
        lifted = lifted.T.copy()
    weights, means, variances = init.weights, init.means, init.variances
    trace = []
    prev = -np.inf
    for it in range(cfg.max_iters):
        coef = expansion_coefficients_oracle(weights, means, variances)
        if component_major:
            table = coef @ lifted
            frame_max = table.max(axis=0)
            shifted = np.exp(table - frame_max)
            frame_sum = shifted.sum(axis=0)
        else:
            table = lifted @ coef.T
            frame_max = table.max(axis=1)
            shifted = np.exp(table - frame_max[:, None])
            frame_sum = shifted.sum(axis=1)
        ll = float((frame_max + np.log(frame_sum)).sum())
        trace.append(ll)
        if it > 0 and (ll - prev) < cfg.tol * max(abs(prev), 1e-12):
            break
        if it == cfg.max_iters - 1:
            break
        prev = ll
        if component_major:
            resp = shifted * (1.0 / frame_sum)
            sums = resp @ lifted.T
            nk = sums[:, -1]
            moments = sums / np.maximum(nk, 1e-300)[:, None]
        else:
            resp = shifted / frame_sum[:, None]
            nk = resp.sum(axis=0)
            moments = (resp.T @ lifted) / np.maximum(nk, 1e-300)[:, None]
        means = moments[:, dim : 2 * dim].copy()
        variances = np.maximum(moments[:, :dim] - means * means, cfg.variance_floor)
        weights = nk / n
        for j in np.flatnonzero(nk < 1e-10 * n):
            means[j] = data[int(rng.random() * n)]
            variances[j] = cfg.variance_floor
            weights[j] = 1.0 / n
        weights = weights / weights.sum()
    return GmmModel(weights, means, variances), trace


def em_oracle(data, init, cfg, rng):
    """``gmm._em`` with allocating steps: the same (k, n) table and summation orders, bit for bit."""
    return _allocating_em(data, init, cfg, rng, component_major=True)


def em_row_major_oracle(data, init, cfg, rng):
    """EM on an (n, k) table, as ``gmm._em`` ran before: its sums run in other orders."""
    return _allocating_em(data, init, cfg, rng, component_major=False)


def fit_em_trace_oracle(data, k, cfg):
    """``fit_em_trace`` with ``kmeans_init_oracle`` and ``em_oracle``, each on ``random.Random(seed)``."""
    best = None
    for r in range(cfg.n_init_restarts):
        seed = cfg.seed + 9973 * r
        init = kmeans_init_oracle(data, k, seed, cfg.variance_floor)
        fitted = em_oracle(data, init, cfg, random.Random(seed))
        if best is None or fitted[1][-1] > best[1][-1]:
            best = fitted
    return best


def _read_lines_oracle(path):
    """The line split of the text readers before they shared one line reader."""
    raw = path.read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].decode("ascii")
        lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise DataError(f"{path}:{lineno}: non-ASCII byte") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


class _ModelReaderOracle:
    """The model file's own cursor, from before the shared line reader."""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.is_file():
            raise DataError(f"no such model file: {path}")
        self.lines = _read_lines_oracle(self.path)
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: unexpected end of file, expected {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, msg):
        raise DataError(f"{self.path}:{self.pos}: {msg}")

    def fields(self, keyword, n, usage):
        parts = self.next(usage).split()
        if len(parts) != n + 1 or parts[0] != keyword:
            self.fail(f"expected '{usage}'")
        return parts[1:]

    def count(self, text, what):
        try:
            value = int(text)
        except ValueError:
            self.fail(f"{what} must be an integer, got {text!r}")
        if value < 1:
            self.fail(f"{what} must be at least 1, got {value}")
        return value

    def reals(self, keyword, n):
        texts = self.fields(keyword, n, f"{keyword} <{n} values>")
        try:
            return [float(t) for t in texts]
        except ValueError:
            self.fail(f"non-numeric {keyword} value")


def _named(where, make):
    """``make()``, with a DataError it raises prefixed by ``where``.

    This is the rule that a parsed object failing its own checks names its
    file, and a mixture the line of its ``activity``.
    """
    try:
        return make()
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def load_model_set_oracle(path):
    """``load_model_set`` as it read through its own cursor, kept as its oracle.

    A bad mixture or model set is named by ``_named``.
    """
    r = _ModelReaderOracle(path)
    if r.next("format tag") != MODEL_FORMAT_TAG:
        r.fail(f"expected format tag {MODEL_FORMAT_TAG!r}")
    dim = r.count(r.fields("dim", 1, "dim <d>")[0], "dim")
    n_activities = r.count(r.fields("activities", 1, "activities <n>")[0], "activities")
    models = {}
    for _ in range(n_activities):
        name, keyword, k = r.fields("activity", 3, "activity <name> components <k>")
        if keyword != "components":
            r.fail("expected 'activity <name> components <k>'")
        try:
            label = ActivityLabel.from_name(name)
        except DataError as exc:
            r.fail(str(exc))
        if label in models:
            r.fail(f"activity {name} given twice")
        at = r.pos
        weights, means, variances = [], [], []
        for _ in range(r.count(k, "components")):
            weights.append(r.reals("component", 1)[0])
            means.append(r.reals("mean", dim))
            variances.append(r.reals("var", dim))
        models[label] = _named(
            f"{r.path}:{at}",
            lambda: GmmModel(np.array(weights), np.array(means), np.array(variances)),
        )
    if r.pos < len(r.lines):
        r.pos += 1
        r.fail(f"unexpected line after the {n_activities} declared activities")
    return _named(r.path, lambda: ActivityModelSet(models))


def load_transition_matrix_oracle(path):
    """``load_transition_matrix`` as it numbered its own lines, kept as its oracle.

    A bad matrix is named by ``_named``.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such transition matrix file: {path}")
    lines = [(i, ln) for i, ln in enumerate(_read_lines_oracle(path), start=1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty transition matrix file")
    (head_no, head), body = lines[0], lines[1:]
    if head.split() != [label.label_name for label in ALL_LABELS]:
        raise DataError(
            f"{path}:{head_no}: header must list the {N_ACTIVITIES} activity names in id order"
        )
    if len(body) != N_ACTIVITIES:
        raise DataError(f"{path}: expected {N_ACTIVITIES} rows after the header")
    rows = []
    for i, line in body:
        parts = line.split()
        if len(parts) != N_ACTIVITIES:
            raise DataError(f"{path}:{i}: expected {N_ACTIVITIES} values")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise DataError(f"{path}:{i}: non-numeric value") from None
    return _named(path, lambda: TransitionMatrix(np.array(rows)))


def load_spec_oracle(path):
    """``load_spec`` as it numbered its own lines, kept as its oracle.

    A key given twice is an error at its line, and a bad spec is named by ``_named``.
    """
    int_keys = {"n_subjects", "frames_per_subject", "dim", "min_segment", "seed"}
    float_keys = {"separation", "sigma"}
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such spec file: {path}")
    overrides = {}
    for lineno, line in enumerate(_read_lines_oracle(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'key value'")
        key, value = parts
        if key in overrides:
            raise DataError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            if key in int_keys:
                overrides[key] = int(value)
            elif key in float_keys:
                overrides[key] = float(value)
            else:
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value for {key!r}") from None
    return _named(path, lambda: default_spec(**overrides))


def child_env(**extra):
    """An environment for a child Python that imports these sources, with no other PYTHON* variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(rapidhare.__file__).resolve().parents[1])
    env.update(extra)
    return env


def traced_peak(run):
    """The tracemalloc peak of ``run()``, after a first call has made its one-off allocations."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_main_peak(argv):
    """``traced_peak`` of ``main(argv)``, which must exit 0; what it prints is dropped."""

    def run():
        assert main(argv) == 0

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        return traced_peak(run)


def write_predictions_oracle(first_index, scores):
    """The per-line writer ``cli._write_predictions`` replaced: every posterior through ``%.8f``."""
    line = "%d\t%s" + "\t%.8f" * len(ALL_LABELS)
    names = [label.label_name for label in ALL_LABELS]
    best = scores.argmax(axis=1).tolist()
    rows = posterior(scores).tolist()
    lines = [line % (i, names[b], *row) for i, (b, row) in enumerate(zip(best, rows), first_index)]
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def predict_file_oracle(model_set, args) -> int:
    """``predict FILE`` as it was before it read the recording in chunks: parsed whole, then scored."""
    seq = parse_recording(args.input)
    channels = next(recording_chunks(args.input))  # the header's channel specs
    frames = _feature_config(args, channels).apply(seq).frames
    try:
        if args.oracle:
            _write_predictions(0, naive_window_scores(model_set, frames, args.window))
            return 0
        session = PredictorSession(model_set, args.window)
        for lo in range(0, len(frames), BLOCK_ROWS):
            _write_predictions(lo, session.push_block(frames[lo : lo + BLOCK_ROWS]))
    except DataError as exc:
        raise DataError(f"{args.input}: {exc}") from None
    return 0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
