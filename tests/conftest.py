"""Shared builders and independent oracles used across the test suite."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from rapidhare import ALL_LABELS, ActivityModelSet, DataError, GmmModel, LabeledSequence
from rapidhare.gmm import KMEANS_MAX_ITERS, _kmeans_pp_seeds


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
    naming its line, a field holding ``_`` is non-integer (``int()`` reads
    ``1_000``; the format does not), label ids and raw ranges are checked
    on Python integers, so a value beyond int64 is an unknown label or out of
    range instead of an OverflowError, and a ``#rate`` that is not finite and
    positive is a DataError naming its line.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such recording file: {path}")
    with open(path, encoding="ascii", errors="replace") as fh:
        lines = [line.rstrip("\n") for line in fh]
    for lineno, line in enumerate(lines, start=1):
        if "\ufffd" in line:
            raise DataError(f"{path}:{lineno}: non-ASCII byte")
    subject = None
    rate = 56.35
    header_seen = False
    rows = []
    first_data_line = 0
    n_cols = len(channels) + 1
    for lineno, line in enumerate(lines, start=1):
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


def kmeans_init_oracle(data, k, seed, variance_floor=1e-6):
    """The allocating Lloyd loop that ``kmeans_init`` replaced, kept as its oracle.

    Each step builds a fresh distance matrix and takes every centroid as the
    mean of a masked copy of its rows. It reseeds an empty cluster by the
    library's rule: the point farthest from its centroid among clusters of two
    or more points.
    """
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    centers = _kmeans_pp_seeds(data, k, np.random.default_rng(seed))
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


def fit_em_trace_oracle(data, k, cfg):
    """``fit_em_trace`` with the allocating E-step it replaced and ``kmeans_init_oracle``."""
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    lifted = np.hstack([data * data, data, np.ones((n, 1))])
    best = None
    for r in range(cfg.n_init_restarts):
        seed = cfg.seed + 9973 * r
        init = kmeans_init_oracle(data, k, seed, cfg.variance_floor)
        rng = np.random.default_rng(seed)
        weights, means, variances = init.weights, init.means, init.variances
        trace = []
        prev = -np.inf
        for it in range(cfg.max_iters):
            comp = lifted @ expansion_coefficients_oracle(weights, means, variances).T
            rowmax = comp.max(axis=1)
            shifted = np.exp(comp - rowmax[:, None])
            rowsum = shifted.sum(axis=1)
            ll = float((rowmax + np.log(rowsum)).sum())
            trace.append(ll)
            if it > 0 and (ll - prev) < cfg.tol * max(abs(prev), 1e-12):
                break
            if it == cfg.max_iters - 1:
                break
            prev = ll
            resp = shifted / rowsum[:, None]
            nk = resp.sum(axis=0)
            moments = (resp.T @ lifted) / np.maximum(nk, 1e-300)[:, None]
            means = moments[:, dim : 2 * dim].copy()
            variances = np.maximum(moments[:, :dim] - means * means, cfg.variance_floor)
            weights = nk / n
            for j in np.flatnonzero(nk < 1e-10 * n):
                means[j] = data[rng.integers(n)]
                variances[j] = cfg.variance_floor
                weights[j] = 1.0 / n
            weights = weights / weights.sum()
        if best is None or trace[-1] > best[1][-1]:
            best = (GmmModel(weights, means, variances), trace)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
