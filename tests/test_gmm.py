import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidhare import (
    ActivityLabel,
    DataError,
    EmConfig,
    GmmModel,
    LabeledSequence,
    NumericError,
    fit_activity_models,
    fit_em,
    fit_em_trace,
    kmeans_init,
    load_model_set,
    log_pdf,
    log_pdf_batch,
    save_model_set,
)
from rapidhare import gmm
from rapidhare.gmm import DEFAULT_COMPONENT_COUNTS, _em, _kmeans_pp_seeds, expansion_coefficients
from conftest import (
    em_oracle,
    em_row_major_oracle,
    expansion_coefficients_oracle,
    fit_em_trace_oracle,
    kmeans_init_oracle,
    log_pdf_oracle,
    random_gmm,
    random_model_set,
    traced_peak,
)


def two_blob_data(rng, n_per=500, centers=(-5.0, 5.0), sigma=0.1):
    a = rng.normal(centers[0], sigma, size=(n_per, 1))
    b = rng.normal(centers[1], sigma, size=(n_per, 1))
    return np.vstack([a, b])


def test_log_pdf_standard_normal_at_mode():
    model = GmmModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    assert log_pdf(model, np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_log_pdf_identical_components_collapse():
    single = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    double = GmmModel(
        np.array([0.3, 0.7]), np.zeros((2, 2)), np.ones((2, 2))
    )
    x = np.array([0.4, -1.1])
    assert log_pdf(double, x) == pytest.approx(log_pdf(single, x), rel=1e-14)


def test_log_pdf_matches_extended_precision_oracle(rng):
    for _ in range(200):
        model = random_gmm(rng, dim=5, k=3)
        x = rng.uniform(-2, 2, size=5)
        got = log_pdf(model, x)
        want = log_pdf_oracle(model, x)
        assert got == pytest.approx(want, rel=1e-12)


def test_log_pdf_dimension_mismatch():
    model = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(DataError, match="length-3"):
        log_pdf(model, np.zeros(4))


def test_log_pdf_finite_at_floor_variance():
    model = GmmModel(np.array([1.0]), np.zeros((1, 4)), np.full((1, 4), 1e-6))
    value = log_pdf(model, np.full(4, 2.0))  # thousands of sigmas out
    assert np.isfinite(value)
    assert value < -1e6


def test_log_pdf_batch_matches_scalar(rng):
    model = random_gmm(rng, dim=4, k=3)
    X = rng.uniform(-2, 2, size=(50, 4))
    batch = log_pdf_batch(model, X)
    scalar = [log_pdf(model, x) for x in X]
    assert np.allclose(batch, scalar, rtol=1e-13, atol=0)


def test_kmeans_single_cluster(rng):
    data = rng.normal(size=(100, 3))
    model = kmeans_init(data, k=1, seed=7)
    assert np.allclose(model.means[0], data.mean(axis=0))
    assert model.weights[0] == 1.0
    assert np.allclose(model.variances[0], np.maximum(data.var(axis=0), 1e-6))


def test_kmeans_two_blobs(rng):
    data = two_blob_data(rng)
    model = kmeans_init(data, k=2, seed=3)
    found = np.sort(model.means[:, 0])
    assert abs(found[0] - -5.0) < 0.05
    assert abs(found[1] - 5.0) < 0.05


def test_kmeans_deterministic(rng):
    data = rng.normal(size=(200, 4))
    a = kmeans_init(data, k=5, seed=11)
    b = kmeans_init(data, k=5, seed=11)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
    assert np.array_equal(a.weights, b.weights)


def test_kmeans_rejects_k_above_rows(rng):
    with pytest.raises(DataError, match="exceeds"):
        kmeans_init(rng.normal(size=(3, 2)), k=4, seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "data, k",
    [(np.repeat(np.eye(3), 10, axis=0), 4), (np.array([[1.0], [0.0], [0.0], [0.0]]), 3)],
)
def test_kmeans_reseed_never_empties_a_cluster(data, k):
    # Duplicate rows leave clusters empty; a reseed that took the only point
    # of another cluster would average an empty slice into a NaN centroid.
    for seed in range(50):
        model = kmeans_init(data, k, seed=seed)
        assert (model.weights > 0).all()
        for values in (model.weights, model.means, model.variances):
            assert np.isfinite(values).all()


def assert_same_model(a, b):
    for name in ("weights", "means", "variances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize(
    "data, k",
    [
        (np.repeat(np.eye(3), 10, axis=0), 4),  # duplicate k-means++ centers
        (np.array([[-1.0, 0.0]] * 4 + [[1.0, 0.0]] * 4 + [[0.0, 1.0], [0.0, -1.0]]), 2),
    ],
    ids=["duplicate-centers", "equidistant-rows"],
)
def test_kmeans_ties_go_to_the_first_nearest_center(data, k):
    """Lloyd distances that tie exactly go to the lowest center index, as ``argmin`` takes them."""
    for seed in range(20):
        assert_same_model(kmeans_init(data, k, seed), kmeans_init_oracle(data, k, seed))


@settings(max_examples=150)
@given(
    n=st.integers(1, 400),
    dim=st.integers(2, 6),
    k=st.integers(1, 18),
    distinct=st.integers(1, 400),
    seed=st.integers(0, 2**16),
    floor=st.sampled_from([1e-6, 0.5]),
    restarts=st.integers(1, 2),
)
def test_training_equals_allocating_oracle_bit_for_bit(n, dim, k, distinct, seed, floor, restarts):
    # dim >= 2: with one column numpy sums each cluster's mean pairwise, while
    # kmeans_init sums in data order, so single-column centroids may differ in
    # the last bits.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(min(distinct, n), dim)) * rng.uniform(0.01, 10.0, size=dim)
    data = pool[rng.integers(len(pool), size=n)]  # duplicate rows when distinct < n
    assert_same_model(kmeans_init(data, k, seed, floor), kmeans_init_oracle(data, k, seed, floor))
    cfg = EmConfig(seed=seed, variance_floor=floor, n_init_restarts=restarts)
    model, trace = fit_em_trace(data, k, cfg)
    oracle_model, oracle_trace = fit_em_trace_oracle(data, k, cfg)
    assert trace == oracle_trace
    assert_same_model(model, oracle_model)



@pytest.mark.parametrize("max_iters", [2, 8])
@pytest.mark.parametrize("n_far", [1, 3])
@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_starved_component_restarts_equal_the_oracle(seed, n_far, max_iters):
    """Components far from every row starve and restart at rows of the seed's stream, in order."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(5, 2))
    data = pool[rng.integers(5, size=60)]  # duplicate rows
    k = 1 + n_far
    weights = np.full(k, 0.1 / n_far)
    weights[0] = 0.9
    means = np.vstack([data.mean(axis=0), 1e3 + np.arange(2.0 * n_far).reshape(n_far, 2)])
    init = GmmModel(weights, means, np.full((k, 2), 1e-3))
    cfg = EmConfig(max_iters=max_iters, variance_floor=1e-4)
    model, trace = _em(data, init, cfg, random.Random(seed))
    oracle_model, oracle_trace = em_oracle(data, init, cfg, random.Random(seed))
    assert trace == oracle_trace
    assert_same_model(model, oracle_model)
    if max_iters == 2:  # the model as the restarts left it
        assert all((data == mean).all(axis=1).any() for mean in model.means[1:])
        assert (model.variances[1:] == 1e-4).all()


@pytest.mark.parametrize(
    "k, n, seed, dim",
    [(1, 500, 0, 6), (4, 1954, 1, 6), (7, 2377, 0, 6), (16, 2761, 2, 6), (18, 3952, 3, 6),
     (18, 3000, 4, 42), (16, 2000, 5, 38), (7, 2500, 6, 42)],
)
def test_training_stays_within_1e_9_of_the_row_major_oracle(k, n, seed, dim):
    """EM on a (k, n) table sums in other orders than on an (n, k) one, and only the low bits move.

    Overlapping blobs at cv-like sizes, at 6 dimensions and at the 38 and 42 of
    perfbench's ``predict`` model, 2 to 106 iterations. Measured: at most
    1.2e-12 relative here.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3, 3, size=(k, dim)) * np.sqrt(6 / dim)  # as far apart as at 6 dimensions
    data = centers[rng.integers(k, size=n)] + rng.normal(size=(n, dim))
    cfg = EmConfig(seed=seed)
    init = kmeans_init(data, k, seed)
    model, trace = _em(data, init, cfg, random.Random(seed))
    oracle_model, oracle_trace = em_row_major_oracle(data, init, cfg, random.Random(seed))
    assert len(trace) == len(oracle_trace)
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(getattr(model, name), getattr(oracle_model, name), rtol=1e-9)


@pytest.mark.parametrize("seed, rows", [(0, [10, 4, 6, 1]), (5, [7, 10, 3, 11])])
def test_kmeans_pp_seed_rows_are_pinned(seed, rows):
    """Trained models follow these rows: a change to how training draws from its seed fails here."""
    data = np.column_stack([np.arange(12.0) ** 1.5, np.arange(12) % 3])
    centers = _kmeans_pp_seeds(data, 4, random.Random(seed))
    assert [int(np.flatnonzero((data == c).all(axis=1))[0]) for c in centers] == rows


def test_overflowing_kmeans_pp_weights_are_a_numeric_error():
    """Finite rows whose squared distances overflow stop before a draw from NaN weights."""
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="k-means"):
        fit_em(np.array([[1e200], [-1e200], [0.0], [5.0]]), 2)


@pytest.mark.parametrize(
    "rows",
    [
        [[1e200], [-1e200], [0.0], [5.0]],  # squared distances overflow in k-means++ seeding
        [[1e154], [2e154], [-1e154], [3.0]],  # only the largest squared distance overflows
        (1e160 + np.arange(8.0)[:, None] * 1e146).tolist(),  # close rows, their squares overflow
    ],
    ids=["far-apart", "one-pair", "squares"],
)
def test_rows_whose_squares_overflow_are_one_numeric_error(rows):
    """No numpy warning comes first: pyproject makes a RuntimeWarning a failure."""
    with pytest.raises(NumericError, match="^squared distances overflow in k-means$"):
        fit_em(np.array(rows), 2)


def test_em_overflow_is_one_numeric_error():
    """k-means passes, then EM's coefficients overflow; no numpy warning comes first."""
    with pytest.raises(NumericError, match="^mixture terms overflow in EM$"):
        fit_em_trace(np.array([[1e152], [0.0], [5.0], [6.0]]), 2)


def test_expansion_coefficients_equal_hstack_oracle(rng):
    for k, dim in [(1, 1), (2, 6), (18, 6), (7, 42), (86, 42)]:
        model = random_gmm(rng, dim, k, var_lo=1e-6)
        args = (model.weights, model.means, model.variances)
        assert np.array_equal(expansion_coefficients(*args), expansion_coefficients_oracle(*args))


def test_em_single_gaussian_closed_form(rng):
    data = rng.normal(0.3, 0.8, size=(400, 2))
    model, trace = fit_em_trace(data, k=1, cfg=EmConfig(seed=5))
    assert np.allclose(model.means[0], data.mean(axis=0))
    assert np.allclose(model.variances[0], np.maximum(data.var(axis=0), 1e-6))
    assert len(trace) <= 3  # already at the optimum after initialization


def test_em_two_blob_recovery(rng):
    data = two_blob_data(rng)
    model, final_ll = fit_em(data, k=2, cfg=EmConfig(seed=9))
    order = np.argsort(model.means[:, 0])
    assert abs(model.means[order[0], 0] - -5.0) < 0.1
    assert abs(model.means[order[1], 0] - 5.0) < 0.1
    assert abs(model.weights[0] - 0.5) < 0.05
    assert np.isfinite(final_ll)


def test_em_rejects_insufficient_rows(rng):
    with pytest.raises(DataError, match="exceeds"):
        fit_em(rng.normal(size=(1, 2)), k=2)


def test_em_rejects_non_finite(rng):
    data = rng.normal(size=(10, 2))
    data[3, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fit_em(data, k=2)


def test_em_monotone_log_likelihood(rng):
    for seed in range(20):
        local = np.random.default_rng(seed)
        data = local.normal(size=(150, 2)) + local.choice([-2.0, 2.0], size=(150, 1))
        _, trace = fit_em_trace(data, k=3, cfg=EmConfig(seed=seed))
        diffs = np.diff(trace)
        assert diffs.min() >= -1e-8


def test_em_deterministic(rng):
    data = rng.normal(size=(300, 3))
    cfg = EmConfig(seed=21)
    a, ll_a = fit_em(data, k=4, cfg=cfg)
    b, ll_b = fit_em(data, k=4, cfg=cfg)
    assert ll_a == ll_b
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
    assert np.array_equal(a.weights, b.weights)


def test_em_variances_respect_floor(rng):
    data = np.zeros((50, 2))  # degenerate data forces the floor
    model, _ = fit_em(data, k=1, cfg=EmConfig(seed=1, variance_floor=1e-6))
    assert (model.variances >= 1e-6).all()


def test_em_surplus_components_stay_valid(rng):
    # Two tight far-apart blobs with k=3: two components share one blob (none
    # starves here), and the fitted model must still satisfy every invariant.
    data = np.vstack([np.full((50, 1), -5.0), np.full((50, 1), 5.0)])
    data = data + 0.01 * rng.standard_normal((100, 1))
    model, ll = fit_em(data, k=3, cfg=EmConfig(seed=2))
    assert (model.weights > 0).all()
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (model.variances >= 1e-6).all()
    assert np.isfinite(ll)


def test_em_restarts_keep_best(rng):
    data = two_blob_data(rng, n_per=100)
    _, ll_one = fit_em(data, k=2, cfg=EmConfig(seed=17, n_init_restarts=1))
    _, ll_many = fit_em(data, k=2, cfg=EmConfig(seed=17, n_init_restarts=3))
    assert ll_many >= ll_one - 1e-9


def test_gmm_model_invariants():
    with pytest.raises(DataError, match="sum to 1"):
        GmmModel(np.array([0.5, 0.4]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(DataError, match="positive"):
        GmmModel(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(DataError, match="finite"):
        GmmModel(np.array([1.0]), np.full((1, 1), np.inf), np.ones((1, 1)))


def test_em_config_validation():
    with pytest.raises(DataError):
        EmConfig(max_iters=0)
    with pytest.raises(DataError):
        EmConfig(tol=0.0)
    with pytest.raises(DataError):
        EmConfig(n_init_restarts=0)


@pytest.mark.parametrize("floor", [1e-320, 5e-324, np.nextafter(np.finfo(np.float64).tiny, 0)])
def test_a_subnormal_variance_floor_is_rejected(floor):
    with pytest.raises(DataError, match=r"^variance_floor must be at least 2\.2250738585072014e-308, got "):
        EmConfig(variance_floor=floor)
    EmConfig(variance_floor=np.finfo(np.float64).tiny)  # the smallest normal float is kept


def test_model_set_round_trip(tmp_path, rng):
    model_set = random_model_set(rng, dim=5, k_lo=1, k_hi=4)
    path = tmp_path / "model.txt"
    save_model_set(model_set, path)
    loaded = load_model_set(path)
    for label, model in model_set.models.items():
        other = loaded.models[label]
        assert np.array_equal(model.weights, other.weights)
        assert np.array_equal(model.means, other.means)
        assert np.array_equal(model.variances, other.variances)
    text = path.read_text().splitlines()
    assert text[0] == "RAPIDHARE-MODEL v1"
    assert text[1] == "dim 5"
    assert text[2] == "activities 8"


def test_model_set_save_errors_name_the_file(tmp_path, rng):
    message = f"cannot write model file {tmp_path}: Is a directory"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        save_model_set(random_model_set(rng, dim=2), tmp_path)



def test_model_set_round_trip_with_lines_longer_than_64_ki_characters(tmp_path, rng):
    """Each ``mean`` and ``var`` line of a 4000-dimension model holds about 90,000 characters."""
    model_set = random_model_set(rng, dim=4000, k_lo=1, k_hi=1)
    path = tmp_path / "model.txt"
    save_model_set(model_set, path)
    assert min(len(line) for line in path.read_text().splitlines()[5:7]) > 1 << 16
    loaded = load_model_set(path)
    for label, model in model_set.models.items():
        assert_same_model(model, loaded.models[label])

def test_model_set_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOT-A-MODEL\n")
    with pytest.raises(DataError, match="format tag"):
        load_model_set(path)
    with pytest.raises(DataError, match="no such model"):
        load_model_set(tmp_path / "absent.txt")


@pytest.mark.parametrize(
    "lineno,line",
    [
        (2, "dim x"),
        (2, "dim -1"),
        (3, "activities x"),
        (4, "activity walking components x"),
        (4, "activity walking components -1"),
        (5, "component x"),
        (6, "mean x x"),
    ],
)
def test_model_set_bad_numbers_name_the_line(tmp_path, lineno, line):
    path = tmp_path / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(3), dim=2), path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"model.txt:{lineno}: "):
        load_model_set(path)


def test_model_set_rejects_an_activity_given_twice(tmp_path):
    path = tmp_path / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(3), dim=2), path)
    lines = path.read_text().splitlines()
    lines[2] = "activities 9"
    walking = lines[3 : lines.index(next(ln for ln in lines if ln.startswith("activity running")))]
    path.write_text("\n".join(lines + walking) + "\n")
    with pytest.raises(DataError) as err:
        load_model_set(path)
    assert str(err.value) == f"{path}:{len(lines) + 1}: activity walking given twice"


def test_model_set_unknown_activity_name_names_the_line(tmp_path):
    path = tmp_path / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(3), dim=2), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace("walking", "walkin")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_model_set(path)
    assert str(err.value) == f"{path}:4: unknown activity name: 'walkin'"


def test_model_set_rejects_lines_after_the_last_activity(tmp_path):
    path = tmp_path / "model.txt"
    save_model_set(random_model_set(np.random.default_rng(3), dim=2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["component 1"]) + "\n")
    with pytest.raises(DataError) as err:
        load_model_set(path)
    assert str(err.value) == (
        f"{path}:{len(lines) + 1}: unexpected line after the 8 declared activities"
    )


def _one_sequence(rng, per_label, dim):
    """One sequence of ``per_label[i]`` frames of activity i + 1, drawn in activity order."""
    labels = np.repeat(np.arange(1, 9), per_label)
    return LabeledSequence("01", rng.normal(size=(len(labels), dim)), labels)


def test_fit_activity_models_fills_missing_counts_from_the_defaults(rng):
    seq = _one_sequence(rng, 40, 2)
    model_set, _ = fit_activity_models([seq], {ActivityLabel.WALKING: 3}, EmConfig(max_iters=5))
    counts = {label: m.n_components for label, m in model_set.models.items()}
    assert counts == {**DEFAULT_COMPONENT_COUNTS, ActivityLabel.WALKING: 3}


def test_fit_activity_models_insufficient_data(rng):
    seq = _one_sequence(rng, [5] + [40] * 7, 3)
    counts = {label: 2 for label in ActivityLabel}
    counts[ActivityLabel.WALKING] = 18
    with pytest.raises(DataError, match="walking: 5 training frames"):
        fit_activity_models([seq], counts, EmConfig(seed=1))


def test_every_activity_count_is_checked_before_the_first_fit(rng, monkeypatch):
    """A lacking activity fails at once, however late in ``ALL_LABELS`` order it comes."""
    seqs = [_one_sequence(rng, [40] * 7 + [0], 2), _one_sequence(rng, [30] * 7 + [0], 2)]
    calls = []
    monkeypatch.setattr(gmm, "fit_em", lambda *args: calls.append(args))
    with pytest.raises(DataError, match=r"^activity standing: 0 training frames, need at least 4$"):
        fit_activity_models(seqs, None, EmConfig(seed=1))
    assert calls == []


def test_fit_activity_models_needs_a_sequence():
    with pytest.raises(DataError, match="no training sequences"):
        fit_activity_models([], None, EmConfig(seed=1))


def test_fit_activity_models_defaults(rng):
    seq = _one_sequence(rng, 60, 2)
    counts = {label: 2 for label in ActivityLabel}
    model_set, final_ll = fit_activity_models([seq], counts, EmConfig(seed=1))
    assert model_set.dim == 2
    assert sum(m.n_components for m in model_set.models.values()) == 16
    assert set(final_ll) == set(ActivityLabel)


def test_fit_em_holds_one_n_by_k_table():
    """At n = 20000 and k = 18 the traced peak stays below two tables of n * k values.

    Measured: 1.50 tables with EM's (k, n) table, its two length-n buffers
    and its (2 dim + 1, n) lift, as with an (n, 2 dim + 1) lift and as with
    an (n, k) table and its row maxima; 2.50 when EM kept a transposed copy
    of its table.
    """
    data = np.random.default_rng(1).normal(size=(20000, 2))
    peak = traced_peak(lambda: fit_em(data, 18, EmConfig(max_iters=5)))
    assert peak < 2 * 20000 * 18 * 8
