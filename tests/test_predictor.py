import numpy as np
import pytest

from rapidhare import (
    ALL_LABELS,
    ActivityLabel,
    ActivityModelSet,
    DataError,
    GmmModel,
    PredictorConfig,
    log_pdf,
    naive_window_scores,
    new_session,
    posterior,
    predict_sequence_naive,
)
from rapidhare.gmm import DEFAULT_COMPONENT_COUNTS
from conftest import log_pdf_oracle, random_model_set


def identical_model_set(dim=3):
    base = GmmModel(np.array([1.0]), np.zeros((1, dim)), np.ones((1, dim)))
    return ActivityModelSet({label: base for label in ALL_LABELS})


def test_new_session_starts_empty(rng):
    models = random_model_set(rng, dim=3)
    session = new_session(models, PredictorConfig(window_k=26))
    assert session.frames_seen == 0
    assert session.gmm_evaluations == 0


def test_config_validation():
    with pytest.raises(DataError):
        PredictorConfig(window_k=-1)
    with pytest.raises(DataError):
        PredictorConfig(resync_interval=0)
    with pytest.raises(DataError, match="sum to 1"):
        PredictorConfig(log_priors=tuple(np.zeros(8)))
    PredictorConfig(window_k=0)  # degenerate single-frame window is allowed
    PredictorConfig(log_priors=tuple(np.log(np.full(8, 0.125))))


def test_k0_equals_single_frame_argmax(rng):
    models = random_model_set(rng, dim=4)
    session = new_session(models, PredictorConfig(window_k=0))
    for _ in range(20):
        x = rng.uniform(-1, 1, size=4)
        pred = session.push_frame(x)
        direct = np.array([log_pdf(models.models[label], x) for label in ALL_LABELS])
        assert int(pred.label) == int(np.argmax(direct)) + 1
        assert np.allclose(pred.scores, direct, atol=1e-12)


def test_frame_scores_error_bound_at_variance_floor():
    """The (x*x, x, 1) scorer is within 8 eps S of extended precision at floor variances.

    S = max_j sum_d (x_d^2 + mu_jd^2) / (2 var_jd) over an activity's components:
    the expansion's terms have that size and cancel when x is near a mean.
    """
    eps = np.finfo(np.float64).eps
    dim = 38
    checked = 0
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        models = {}
        for label in ALL_LABELS:
            k = DEFAULT_COMPONENT_COUNTS[label]
            weights = rng.uniform(0.2, 1.0, size=k)
            means = rng.uniform(-1.0, 1.0, size=(k, dim))
            variances = 10.0 ** rng.uniform(-6.0, -4.0, size=(k, dim))
            models[label] = GmmModel(weights / weights.sum(), means, variances)
        model_set = ActivityModelSet(models)
        session = new_session(model_set, PredictorConfig(window_k=0))  # scores = one frame
        for _ in range(5):
            near = model_set.models[ALL_LABELS[rng.integers(len(ALL_LABELS))]]
            j = rng.integers(near.n_components)
            noise = np.sqrt(near.variances[j]) * rng.standard_normal(dim)
            x = np.clip(near.means[j] + noise, -1.0, 1.0)
            scores = session.push_frame(x).scores
            for a, label in enumerate(ALL_LABELS):
                m = model_set.models[label]
                with np.errstate(divide="ignore"):
                    want = log_pdf_oracle(m, x)
                if not np.isfinite(want):
                    continue
                s = float(np.max(0.5 * np.sum((x * x + m.means * m.means) / m.variances, axis=1)))
                err = abs(scores[a] - want)
                assert err <= 8.0 * eps * s, (trial, label, err, eps * s)
                checked += 1
    assert checked >= 500  # at least the activity each frame was drawn near


def test_tie_breaks_to_lowest_id(rng):
    session = new_session(identical_model_set(), PredictorConfig(window_k=5))
    for _ in range(12):
        pred = session.push_frame(rng.uniform(-1, 1, size=3))
        assert pred.label is ActivityLabel.WALKING
        assert np.ptp(pred.scores) == 0.0


def test_streaming_matches_naive_across_windows(rng):
    for k in (0, 1, 5, 26):
        models = random_model_set(rng, dim=4)
        frames = rng.uniform(-1.5, 1.5, size=(600, 4))
        cfg = PredictorConfig(window_k=k)
        naive_labels = predict_sequence_naive(models, frames, cfg)
        naive_scores = naive_window_scores(models, frames, cfg)
        session = new_session(models, cfg)
        for t, x in enumerate(frames):
            pred = session.push_frame(x)
            assert pred.label is naive_labels[t]
            assert np.abs(pred.scores - naive_scores[t]).max() < 1e-9


def test_streaming_exact_evaluation_count(rng):
    models = random_model_set(rng, dim=3)
    for k in (0, 26):
        session = new_session(models, PredictorConfig(window_k=k))
        for _ in range(50):
            session.push_frame(rng.uniform(-1, 1, size=3))
        assert session.gmm_evaluations == 50 * 8


def test_uniform_priors_match_omitted_priors(rng):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(200, 3))
    plain = new_session(models, PredictorConfig(window_k=7))
    uniform = new_session(
        models, PredictorConfig(window_k=7, log_priors=tuple(np.log(np.full(8, 0.125))))
    )
    for x in frames:
        assert plain.push_frame(x).label is uniform.push_frame(x).label


def test_streaming_is_causal(rng):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(100, 3))
    cfg = PredictorConfig(window_k=9)
    full = predict_sequence_naive(models, frames, cfg)
    for cut in (1, 17, 60, 100):
        assert predict_sequence_naive(models, frames[:cut], cfg) == full[:cut]


def test_resync_keeps_sums_exact(rng):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(3000, 3))
    eager = new_session(models, PredictorConfig(window_k=26, resync_interval=1))
    lazy = new_session(models, PredictorConfig(window_k=26, resync_interval=10**9))
    worst = 0.0
    for x in frames:
        a = eager.push_frame(x)
        b = lazy.push_frame(x)
        worst = max(worst, float(np.abs(a.scores - b.scores).max()))
        assert a.label is b.label
    assert worst < 1e-9


def test_posterior_uniform_for_equal_scores():
    p = posterior(np.zeros(8))
    assert np.allclose(p, 0.125, atol=1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_closed_form_pair():
    p = posterior(np.array([0.0, np.log(3.0)]))
    assert p == pytest.approx([0.25, 0.75], abs=1e-12)


def test_posterior_shift_invariance(rng):
    scores = rng.normal(size=8) * 50
    base = posterior(scores)
    shifted = posterior(scores + 123.456)
    assert np.abs(base - shifted).max() < 1e-12


def test_posterior_with_priors(rng):
    scores = rng.normal(size=8)
    log_priors = np.log(np.full(8, 0.125))
    assert np.allclose(posterior(scores, log_priors), posterior(scores), atol=1e-12)


def test_prediction_posterior_matches_scores(rng):
    models = random_model_set(rng, dim=3)
    session = new_session(models, PredictorConfig(window_k=4))
    pred = None
    for x in rng.uniform(-1, 1, size=(9, 3)):
        pred = session.push_frame(x)
    assert pred.posterior.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pred.posterior >= 0).all()
    assert int(np.argmax(pred.posterior)) + 1 == int(pred.label)


def test_push_frame_dimension_mismatch(rng):
    session = new_session(random_model_set(rng, dim=3))
    with pytest.raises(DataError, match="length-3"):
        session.push_frame(np.zeros(5))


def test_naive_empty_sequence(rng):
    models = random_model_set(rng, dim=3)
    assert predict_sequence_naive(models, np.empty((0, 3))) == []
    assert predict_sequence_naive(models, []) == []


def test_naive_single_frame_prefers_denser_model(rng):
    tight = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), 0.01))
    loose = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), 10.0))
    models = {label: loose for label in ALL_LABELS}
    models[ActivityLabel.RUNNING] = tight
    labels = predict_sequence_naive(ActivityModelSet(models), np.zeros((1, 2)))
    assert labels == [ActivityLabel.RUNNING]


def test_scores_are_stable_copies(rng):
    models = random_model_set(rng, dim=3)
    session = new_session(models, PredictorConfig(window_k=3))
    first = session.push_frame(rng.uniform(-1, 1, size=3))
    saved = first.scores.copy()
    session.push_frame(rng.uniform(-1, 1, size=3))
    assert np.array_equal(first.scores, saved)
