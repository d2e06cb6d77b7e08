"""Diagonal-covariance Gaussian mixtures: density evaluation and EM training.

One mixture models the frame distribution of one activity. Densities are
always evaluated in the log domain through log-sum-exp, and training floors
every variance so the log-density stays finite for any finite input.

There are two density evaluators. The reference, ``log_pdf`` and
``log_pdf_batch``, sums squared standardized differences directly: it backs
HMM emissions through ``ActivityModelSet.frame_log_likelihoods`` and the
naive window oracle, and the tests hold it to extended precision. The fast
one uses that log(w N(x)) is linear in (x*x, x, 1): ``expansion_coefficients``
makes one row per component and ``expansion_lift`` lifts the input, so all
component densities are one matrix product. EM's E-step and the streaming
frame scorer use it. Its absolute error grows with sum_d (x_d^2 + mu_d^2) /
var_d, since the three terms cancel near a mean. EM reuses one (k, n) table: a
frame's sum runs over components in order, occupancies from the lift's ones row.

Training's random draws (k-means++ seeds, restarts of starved components)
come from ``random.Random(seed)``, which ``import numpy`` already loads, and
only through ``random()``, the one output CPython repeats for an int seed
across versions. A uniform row is ``int(random() * n)``. So training never
imports ``numpy.random``, whose compiled modules and OpenSSL's libcrypto
(through ``secrets``) would add about 6 MB to ``train``'s and ``evaluate``'s
peak RSS.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import ALL_LABELS, ActivityLabel, LabeledSequence, _LineReader
from .errors import DataError, NumericError

KMEANS_MAX_ITERS = 100  # Lloyd steps per kmeans_init, at most
DEFAULT_VARIANCE_FLOOR = 1e-6
_LOG_2PI = float(np.log(2.0 * np.pi))

# Per-activity component counts used by default: many components for dynamic
# activities, few for static ones.
DEFAULT_COMPONENT_COUNTS: dict[ActivityLabel, int] = {
    ActivityLabel.WALKING: 18,
    ActivityLabel.RUNNING: 18,
    ActivityLabel.GOING_UP: 16,
    ActivityLabel.GOING_DOWN: 16,
    ActivityLabel.SITTING: 2,
    ActivityLabel.SITTING_DOWN: 7,
    ActivityLabel.STANDING_UP: 5,
    ActivityLabel.STANDING: 4,
}


@dataclass(frozen=True)
class GmmModel:
    """One mixture of axis-aligned Gaussians: weights, means, diagonal variances."""

    weights: np.ndarray  # (k,), positive, sums to 1
    means: np.ndarray  # (k, dim)
    variances: np.ndarray  # (k, dim), positive

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if m.ndim != 2 or len(m) == 0 or w.shape != (len(m),) or v.shape != m.shape:
            raise DataError("inconsistent mixture parameter shapes")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(v).all()):
            raise DataError("mixture parameters must be finite")
        if (w <= 0).any() or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DataError("mixture weights must be positive and sum to 1")
        if (v <= 0).any():
            raise DataError("mixture variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _log_norm(self) -> np.ndarray:
        """log w_j - 0.5 * sum_d log(2 pi var_jd), per component."""
        return np.log(self.weights) - 0.5 * np.sum(_LOG_2PI + np.log(self.variances), axis=1)


def log_pdf(model: GmmModel, x) -> float:
    """Log mixture density at one point, via log-sum-exp over components."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise DataError(f"expected a length-{model.dim} vector, got shape {x.shape}")
    diff = x - model.means
    comp = model._log_norm - 0.5 * ((diff * diff) / model.variances).sum(axis=1)
    m = comp.max()
    return float(m + np.log(np.exp(comp - m).sum()))


def log_pdf_batch(model: GmmModel, X) -> np.ndarray:
    """Log mixture density for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DataError(f"expected an (n, {model.dim}) matrix, got shape {X.shape}")
    out = np.empty(len(X))
    chunk = 2048  # rows at a time, bounding the (rows, components, dim) temporary
    for lo in range(0, len(X), chunk):
        diff = X[lo : lo + chunk, None, :] - model.means
        comp = model._log_norm - 0.5 * ((diff * diff) / model.variances).sum(axis=2)
        m = comp.max(axis=1)
        out[lo : lo + chunk] = m + np.log(np.exp(comp - m[:, None]).sum(axis=1))
    return out


def expansion_coefficients(weights, means, variances) -> np.ndarray:
    """One row c_j per component with log(w_j N(x; mu_j, var_j)) = c_j . expansion_lift(x)."""
    dim = means.shape[1]
    inv_var = 1.0 / variances
    coeffs = np.empty((len(means), 2 * dim + 1))
    np.multiply(-0.5, inv_var, out=coeffs[:, :dim])
    np.multiply(means, inv_var, out=coeffs[:, dim:-1])
    coeffs[:, -1] = (
        np.log(weights)
        - 0.5 * np.sum(_LOG_2PI + np.log(variances), axis=1)
        - 0.5 * np.sum(means * means * inv_var, axis=1)
    )
    return coeffs


def expansion_lift(X) -> np.ndarray:
    """Each row x of a float array X as (x*x, x, 1), the input side of expansion_coefficients."""
    return np.hstack([X * X, X, np.ones((len(X), 1))])


def _kmeans_pp_seeds(data, k, rng):
    """A uniform first row, then rows drawn with weight their squared distance to the nearest seed."""
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[int(rng.random() * n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        cdf = d2.cumsum()
        if cdf[-1] > 0:
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.random() * n)  # all remaining mass at the centers already
        centers[j] = data[idx]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


@contextmanager
def _overflow_is_an_error(message):
    """A float64 overflow inside as one NumericError(message), not numpy warnings."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NumericError(message) from None


def _validate_training_data(data, k) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise DataError("training data must be a non-empty 2-D array")
    if not np.isfinite(data).all():
        raise DataError("training data contains non-finite values")
    if k < 1:
        raise DataError("component count must be positive")
    if k > len(data):
        raise DataError(f"k={k} exceeds the {len(data)} available rows")
    return data


@_overflow_is_an_error("squared distances overflow in k-means")
def kmeans_init(
    data, k: int, seed: int, variance_floor: float = DEFAULT_VARIANCE_FLOOR
) -> GmmModel:
    """k-means++ seeding plus up to KMEANS_MAX_ITERS Lloyd iterations; the result seeds EM.

    Means are the final centroids, variances the per-dimension within-cluster
    spread (floored), weights the cluster occupancies. An empty cluster takes
    the point farthest from its centroid among clusters of two or more points,
    so every component keeps positive weight. Deterministic for a fixed seed.
    Lloyd steps reuse one (k, n) distance table, a row per center, and a tie
    goes to the first nearest center, as in argmin. Centroids sum in data order,
    as a mean does for dim >= 2 (numpy sums a single column pairwise). Rows far
    enough apart to overflow a squared distance raise NumericError.
    """
    data = _validate_training_data(data, k)
    n = len(data)
    centers = _kmeans_pp_seeds(data, k, random.Random(seed))
    sq_norms = (data * data).sum(axis=1)
    columns = data.T.copy()  # contiguous weights for bincount, and the product's right operand
    dists, nearest, assign = np.empty((k, n)), np.empty(n), np.zeros(n, dtype=np.intp)
    for _ in range(KMEANS_MAX_ITERS):
        # |x - c|^2 = -2 c.x + |x|^2 + |c|^2 in place; scaling by -2 is exact.
        np.matmul(centers * -2.0, columns, out=dists)
        dists += sq_norms
        dists += (centers * centers).sum(axis=1)[:, None]
        np.minimum.reduce(dists, axis=0, out=nearest)
        for j in range(k - 1, -1, -1):  # the first nearest center wins, as in argmin
            np.copyto(assign, j, where=dists[j] == nearest)
        sizes = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            d2min = np.where(sizes[assign] >= 2, dists[assign, np.arange(n)], -np.inf)
            far = int(np.argmax(d2min))
            sizes[assign[far]] -= 1
            sizes[j] = 1
            assign[far] = j
        previous = centers
        # Always the means of the latest assignment, which the model keeps.
        centers = np.array([np.bincount(assign, c, k) for c in columns]).T / sizes[:, None]
        if np.array_equal(centers, previous):
            break

    weights = sizes / n
    variances = np.array([data[assign == j].var(axis=0) for j in range(k)])
    return GmmModel(weights / weights.sum(), centers, np.maximum(variances, variance_floor))


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule, regularization, and seeding for EM training."""

    max_iters: int = 200
    tol: float = 1e-6  # relative log-likelihood improvement
    seed: int = 1
    variance_floor: float = DEFAULT_VARIANCE_FLOOR
    n_init_restarts: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError(f"max_iters must be positive, got {self.max_iters}")
        for name in ("tol", "variance_floor"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # a NaN tol would never stop EM early
                raise DataError(f"{name} must be finite and positive, got {value!r}")
        if self.n_init_restarts < 1:
            raise DataError("n_init_restarts must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")


@_overflow_is_an_error("mixture terms overflow in EM")
def _em(data, init: GmmModel, cfg: EmConfig, rng) -> tuple[GmmModel, list[float]]:
    """EM from ``init``, reusing one (k, n) table, a row per component, and two length-n buffers."""
    n, dim = data.shape
    lifted = np.empty((2 * dim + 1, n))  # expansion_lift(data).T, built contiguous
    np.multiply(data.T, data.T, out=lifted[:dim])
    lifted[dim:-1], lifted[-1] = data.T, 1.0
    table = np.empty((init.n_components, n))
    frame_max, frame_sum = np.empty((2, n))
    weights, means, variances = init.weights, init.means, init.variances
    trace: list[float] = []
    for it in range(cfg.max_iters):
        np.matmul(expansion_coefficients(weights, means, variances), lifted, out=table)
        np.maximum.reduce(table, axis=0, out=frame_max)
        table -= frame_max
        np.exp(table, out=table)
        np.add.reduce(table, axis=0, out=frame_sum)  # >= 1: each frame's largest term is exp(0)
        ll = float((frame_max + np.log(frame_sum)).sum())
        if not np.isfinite(ll):
            raise NumericError("log-likelihood became non-finite during EM")
        trace.append(ll)
        if it > 0 and (ll - trace[-2]) < cfg.tol * max(abs(trace[-2]), 1e-12):
            break
        if it == cfg.max_iters - 1:
            break
        resp = np.multiply(table, np.reciprocal(frame_sum, out=frame_sum), out=table)
        sums = resp @ lifted.T  # the last column, against the row of ones, is the occupancy
        nk = sums[:, -1]
        moments = sums / np.maximum(nk, 1e-300)[:, None]  # E[x*x], E[x], 1
        means = moments[:, dim : 2 * dim].copy()
        variances = np.maximum(moments[:, :dim] - means * means, cfg.variance_floor)
        weights = nk / n
        # Starved components restart from a random data point.
        for j in np.flatnonzero(nk < 1e-10 * n):
            means[j] = data[int(rng.random() * n)]
            variances[j] = cfg.variance_floor
            weights[j] = 1.0 / n
        weights = weights / weights.sum()
    return GmmModel(weights, means, variances), trace


def fit_em_trace(data, k: int, cfg: EmConfig = EmConfig()) -> tuple[GmmModel, list[float]]:
    """EM from a k-means++ start, returning the per-iteration log-likelihoods.

    With several restarts, the fit with the best final log-likelihood wins.
    """
    data = _validate_training_data(data, k)
    best: tuple[GmmModel, list[float]] | None = None
    for r in range(cfg.n_init_restarts):
        seed = cfg.seed + 9973 * r
        init = kmeans_init(data, k, seed=seed, variance_floor=cfg.variance_floor)
        fitted = _em(data, init, cfg, random.Random(seed))
        if best is None or fitted[1][-1] > best[1][-1]:
            best = fitted
    return best


def fit_em(data, k: int, cfg: EmConfig = EmConfig()) -> tuple[GmmModel, float]:
    """Fit a diagonal-covariance mixture by EM; returns the model and its final log-likelihood."""
    model, trace = fit_em_trace(data, k, cfg)
    return model, trace[-1]


@dataclass(frozen=True)
class ActivityModelSet:
    """One trained mixture per activity, all sharing a feature dimensionality."""

    models: dict[ActivityLabel, GmmModel]

    def __post_init__(self):
        if set(self.models) != set(ALL_LABELS):
            raise DataError("a model set needs exactly one mixture per activity")
        dims = {m.dim for m in self.models.values()}
        if len(dims) != 1:
            raise DataError("all activity mixtures must share one dimensionality")

    @property
    def dim(self) -> int:
        return next(iter(self.models.values())).dim

    @property
    def n_total_components(self) -> int:
        return sum(m.n_components for m in self.models.values())

    def frame_log_likelihoods(self, x) -> np.ndarray:
        """Per-activity log densities of one frame, in activity id order."""
        return np.array([log_pdf(self.models[label], x) for label in ALL_LABELS])


def fit_activity_models(
    sequences: list[LabeledSequence],
    counts: dict[ActivityLabel, int] | None = None,
    cfg: EmConfig = EmConfig(),
) -> tuple[ActivityModelSet, dict[ActivityLabel, float]]:
    """Train one mixture per activity on the frames of ``sequences`` that carry its label.

    Only one activity's frames are gathered at a time. ``counts`` overrides
    DEFAULT_COMPONENT_COUNTS for the activities it names. Each activity gets a
    seed derived from the base seed so training whole sets stays deterministic.
    """
    if not sequences:
        raise DataError("no training sequences")
    counts = {**DEFAULT_COMPONENT_COUNTS, **(counts or {})}
    models = {}
    final_ll = {}
    for label in ALL_LABELS:
        k = counts[label]
        frames = np.concatenate([s.frames[s.labels == label] for s in sequences])
        if len(frames) < k:
            raise DataError(
                f"activity {label.label_name}: {len(frames)} training frames, need at least {k}"
            )
        per_label_cfg = replace(cfg, seed=cfg.seed + int(label))
        models[label], final_ll[label] = fit_em(frames, k, per_label_cfg)
        del frames  # before the next activity's are gathered
    return ActivityModelSet(models), final_ll


MODEL_FORMAT_TAG = "RAPIDHARE-MODEL v1"


def save_model_set(model_set: ActivityModelSet, path) -> None:
    """Serialize a model set; reals carry 17 significant digits for exact round-trips."""
    lines = [MODEL_FORMAT_TAG, f"dim {model_set.dim}", f"activities {len(model_set.models)}"]
    for label in ALL_LABELS:
        m = model_set.models[label]
        lines.append(f"activity {label.label_name} components {m.n_components}")
        for j in range(m.n_components):
            lines.append(f"component {m.weights[j]:.17g}")
            lines.append("mean " + " ".join(f"{v:.17g}" for v in m.means[j]))
            lines.append("var " + " ".join(f"{v:.17g}" for v in m.variances[j]))
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise DataError(f"cannot write model file {path}: {exc.strerror}") from None


def load_model_set(path) -> ActivityModelSet:
    """Parse a model file; a bad mixture names its ``activity`` line, a bad set the file."""
    r = _LineReader(path, "model")
    if r.next("format tag") != MODEL_FORMAT_TAG:
        r.fail(f"expected format tag {MODEL_FORMAT_TAG!r}")
    dim = r.count(r.fields("dim", 1, "dim <d>")[0], "dim")
    n_activities = r.count(r.fields("activities", 1, "activities <n>")[0], "activities")
    models = {}
    for _ in range(n_activities):
        name, keyword, k = r.fields("activity", 3, "activity <name> components <k>")
        if keyword != "components":
            r.fail("expected 'activity <name> components <k>'")
        at = r.lineno
        label = r.check(at, lambda: ActivityLabel.from_name(name))
        if label in models:
            r.fail(f"activity {name} given twice")
        # Collected, not preallocated: a huge declared size fails at the first missing line.
        weights, means, variances = [], [], []
        for _ in range(r.count(k, "components")):
            weights.append(r.reals("component", 1)[0])
            means.append(r.reals("mean", dim))
            variances.append(r.reals("var", dim))
        models[label] = r.check(at, lambda: GmmModel(weights, means, variances))
    if r.remaining:
        r.next("")  # fail names the line just read
        r.fail(f"unexpected line after the {n_activities} declared activities")
    return r.check(0, lambda: ActivityModelSet(models))
