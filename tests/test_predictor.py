import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rapidhare import (
    ALL_LABELS,
    ActivityLabel,
    ActivityModelSet,
    DataError,
    GmmModel,
    PredictorSession,
    log_pdf,
    naive_window_scores,
    posterior,
    predict_sequence_naive,
)
from rapidhare.gmm import DEFAULT_COMPONENT_COUNTS
from conftest import log_pdf_oracle, random_gmm, random_model_set


def label_of(scores):
    return ALL_LABELS[int(scores.argmax())]


def identical_model_set(dim=3):
    base = GmmModel(np.array([1.0]), np.zeros((1, dim)), np.ones((1, dim)))
    return ActivityModelSet({label: base for label in ALL_LABELS})


def test_new_session_starts_empty(rng):
    models = random_model_set(rng, dim=3)
    session = PredictorSession(models, 26)
    assert session.frames_seen == 0
    assert session.gmm_evaluations == 0


def test_config_validation(rng):
    models = random_model_set(rng, dim=3)
    with pytest.raises(DataError, match="window_k"):
        PredictorSession(models, -1)
    with pytest.raises(DataError, match="window_k"):
        naive_window_scores(models, np.zeros((2, 3)), -1)
    PredictorSession(models, 0)  # degenerate single-frame window is allowed


def test_k0_equals_single_frame_argmax(rng):
    models = random_model_set(rng, dim=4)
    session = PredictorSession(models, 0)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=4)
        scores = session.push_frame(x)
        direct = np.array([log_pdf(models.models[label], x) for label in ALL_LABELS])
        assert int(label_of(scores)) == int(np.argmax(direct)) + 1
        assert np.allclose(scores, direct, atol=1e-12)


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
        session = PredictorSession(model_set, 0)  # scores = one frame
        for _ in range(5):
            near = model_set.models[ALL_LABELS[rng.integers(len(ALL_LABELS))]]
            j = rng.integers(near.n_components)
            noise = np.sqrt(near.variances[j]) * rng.standard_normal(dim)
            x = np.clip(near.means[j] + noise, -1.0, 1.0)
            scores = session.push_frame(x)
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
    session = PredictorSession(identical_model_set(), 5)
    for _ in range(12):
        scores = session.push_frame(rng.uniform(-1, 1, size=3))
        assert label_of(scores) is ActivityLabel.WALKING
        assert np.ptp(scores) == 0.0


def test_streaming_matches_naive_across_windows(rng):
    for k in (0, 1, 5, 26):
        models = random_model_set(rng, dim=4)
        frames = rng.uniform(-1.5, 1.5, size=(600, 4))
        naive_labels = predict_sequence_naive(models, frames, k)
        naive_scores = naive_window_scores(models, frames, k)
        session = PredictorSession(models, k)
        for t, x in enumerate(frames):
            scores = session.push_frame(x)
            assert label_of(scores) is naive_labels[t]
            assert np.abs(scores - naive_scores[t]).max() < 1e-9


def test_streaming_exact_evaluation_count(rng):
    models = random_model_set(rng, dim=3)
    for k in (0, 26):
        session = PredictorSession(models, k)
        for _ in range(50):
            session.push_frame(rng.uniform(-1, 1, size=3))
        assert session.gmm_evaluations == 50 * 8


def test_streaming_is_causal(rng):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(100, 3))
    full = predict_sequence_naive(models, frames, 9)
    for cut in (1, 17, 60, 100):
        assert predict_sequence_naive(models, frames[:cut], 9) == full[:cut]


def test_resync_keeps_sums_exact(rng):
    """Thousands of frames past the first window, the scores still equal the oracle's."""
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(3000, 3))
    naive_labels = predict_sequence_naive(models, frames, 26)
    naive_scores = naive_window_scores(models, frames, 26)
    session = PredictorSession(models, 26)
    worst = 0.0
    for t, x in enumerate(frames):
        scores = session.push_frame(x)
        worst = max(worst, float(np.abs(scores - naive_scores[t]).max()))
        assert label_of(scores) is naive_labels[t]
    assert worst < 1e-9


@pytest.mark.parametrize("window_k", [0, 1, 5, 26, 100, 700])
def test_push_frame_sums_each_window_exactly_oldest_first(rng, window_k):
    """Each window score is, bit for bit, its frames' rows added one by one, oldest first."""
    models = random_model_set(rng, dim=4)
    frames = rng.uniform(-1.5, 1.5, size=(2500, 4))
    single = PredictorSession(models, 0)
    rows = np.array([single.push_frame(x) for x in frames])
    now = np.arange(len(rows))
    first = np.maximum(0, now - window_k)
    want = rows[first]
    for j in range(1, window_k + 1):
        live = first + j <= now
        want[live] += rows[first[live] + j]
    session = PredictorSession(models, window_k)
    got = np.array([session.push_frame(x) for x in frames])
    assert np.array_equal(got, want)


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


def test_prediction_posterior_matches_scores(rng):
    models = random_model_set(rng, dim=3)
    session = PredictorSession(models, 4)
    scores = None
    for x in rng.uniform(-1, 1, size=(9, 3)):
        scores = session.push_frame(x)
    probs = posterior(scores)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()
    assert int(np.argmax(probs)) + 1 == int(label_of(scores))


def test_push_frame_dimension_mismatch(rng):
    session = PredictorSession(random_model_set(rng, dim=3))
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
    session = PredictorSession(models, 3)
    first = session.push_frame(rng.uniform(-1, 1, size=3))
    saved = first.copy()
    session.push_frame(rng.uniform(-1, 1, size=3))
    assert np.array_equal(first, saved)


def _state(session):
    """The look-back rows in window order (none when window_k is 0), then the counters."""
    ring, k = session._ring, session._k
    assert np.array_equal(ring[:k], ring[k:])  # every row is stored twice
    window = ring[session._pos : session._pos + k].copy()
    return window, session.frames_seen, session.gmm_evaluations


def _assert_same_state(before, after):
    window, *counters = before
    assert np.array_equal(after[0], window)
    assert list(after[1:]) == counters


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_frame_is_rejected_without_state_change(rng, bad):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(60, 3))
    naive_labels = predict_sequence_naive(models, frames, 5)
    naive_scores = naive_window_scores(models, frames, 5)
    session = PredictorSession(models, 5)
    for t, x in enumerate(frames):
        if t % 7 == 3:  # a rejected frame before the window is full and after
            before = _state(session)
            with pytest.raises(DataError, match="non-finite"):
                session.push_frame(np.array([x[0], bad, x[2]]))
            _assert_same_state(before, _state(session))
        scores = session.push_frame(x)
        assert label_of(scores) is naive_labels[t]
        assert np.abs(scores - naive_scores[t]).max() < 1e-9
    assert session.frames_seen == len(frames)
    assert session.gmm_evaluations == 8 * len(frames)



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("window_k,pushed", [(0, 3), (1, 0), (1, 4), (4, 3), (4, 7), (4, 9)])
def test_rejected_frame_leaves_ring_and_position_unchanged(rng, window_k, pushed):
    """Rejection restores the slot the new row was written to, the wrap slot p = k - 1 too."""
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(pushed + 1, 3))
    session, twin = PredictorSession(models, window_k), PredictorSession(models, window_k)
    for x in frames[:pushed]:
        session.push_frame(x)
        twin.push_frame(x)
    ring, pos = session._ring.copy(), session._pos
    assert window_k == 0 or pos == pushed % window_k
    for bad in (np.nan, 1e200):
        with pytest.raises(DataError, match="non-finite"):
            session.push_frame(np.array([bad, 0.0, 0.0]))
        assert np.array_equal(session._ring, ring) and session._pos == pos
    assert np.array_equal(session.push_frame(frames[-1]), twin.push_frame(frames[-1]))
    assert session.frames_seen == pushed + 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frame_that_would_overflow_the_window_sums_is_rejected():
    session = PredictorSession(identical_model_set(dim=1), 26)
    x = np.array([np.sqrt(4e306)])  # log-likelihood about -2e306 for every activity
    accepted = 0
    with pytest.raises(DataError, match="non-finite"):
        for _ in range(27):
            scores = session.push_frame(x)
            assert np.isfinite(scores).all()
            accepted += 1
    assert accepted == 11  # the twelfth takes the 8 window sums' total past -1.8e308
    window, *_ = _state(session)
    assert np.isfinite(window.sum())

_PROPERTY_MODELS = random_model_set(np.random.default_rng(77), dim=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(frames=st.lists(arrays(np.float64, 3, elements=st.floats()), max_size=12))
def test_push_frame_any_floats_finite_or_rejected(frames):
    """Every frame gives finite scores and a normalized posterior, or DataError and no change."""
    session = PredictorSession(_PROPERTY_MODELS, 3)
    for x in frames:
        before = _state(session)
        try:
            scores = session.push_frame(x)
        except DataError:
            _assert_same_state(before, _state(session))
            continue
        assert np.isfinite(scores).all()
        assert np.isfinite(posterior(scores)).all()
        assert posterior(scores).sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    frames=st.lists(
        arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)), min_size=1, max_size=12
    ),
    window_k=st.integers(0, 4),
)
def test_push_frame_in_feature_range_matches_oracle(frames, window_k):
    """Scaled and directional features lie in [-2, 2]; there the labels equal the oracle's."""
    session = PredictorSession(_PROPERTY_MODELS, window_k)
    labels = [label_of(session.push_frame(x)) for x in frames]
    assert labels == predict_sequence_naive(_PROPERTY_MODELS, np.array(frames), window_k)


def test_push_frame_exact_after_huge_frame_leaves_window():
    """A finite but huge row leaves no trace in the windows after it has left them."""
    rng = np.random.default_rng(3)
    models = ActivityModelSet({label: random_gmm(rng, 3, 3) for label in ALL_LABELS})
    frames = rng.uniform(-1, 1, size=(300, 3))
    frames[50] = (2e9, 0.0, 0.0)
    naive_labels = predict_sequence_naive(models, frames, 26)
    session = PredictorSession(models, 26)
    assert [label_of(session.push_frame(x)) for x in frames] == naive_labels


def _push_in_blocks(session, frames, size):
    return np.vstack(
        [session.push_block(frames[lo : lo + size]) for lo in range(0, len(frames), size)]
    )


@pytest.mark.parametrize("window_k", [0, 1, 5, 26, 700])
def test_push_block_matches_naive(rng, window_k):
    models = random_model_set(rng, dim=4)
    frames = rng.uniform(-1.5, 1.5, size=(600, 4))
    naive_ids = np.array([int(label) for label in predict_sequence_naive(models, frames, window_k)])
    naive_scores = naive_window_scores(models, frames, window_k)
    runs = {
        size: _push_in_blocks(PredictorSession(models, window_k), frames, size)
        for size in (1, 37, len(frames))
    }
    mixed = PredictorSession(models, window_k)
    head = [mixed.push_frame(x) for x in frames[:10]]
    runs["frames then block"] = np.vstack(head + [mixed.push_block(frames[10:])])
    for how, scores in runs.items():
        assert np.array_equal(scores.argmax(axis=1) + 1, naive_ids), how
        assert np.abs(scores - naive_scores).max() < 1e-9, how


@pytest.mark.parametrize("window_k", [0, 3, 26])
def test_push_block_leaves_the_state_of_one_by_one_pushes(rng, window_k):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(90, 3))
    for cut in (0, 2, 40):
        one, block = PredictorSession(models, window_k), PredictorSession(models, window_k)
        for x in frames[:cut]:
            one.push_frame(x)
            block.push_frame(x)
        for x in frames[cut:80]:
            sums_a = one.push_frame(x)
        sums_b = block.push_block(frames[cut:80])[-1]
        (ring_a, *counters_a), (ring_b, *counters_b) = _state(one), _state(block)
        assert counters_b == counters_a
        assert np.abs(ring_b - ring_a).max(initial=0.0) < 1e-12
        assert np.abs(sums_b - sums_a).max() < 1e-9
        for x in frames[80:]:
            a, b = one.push_frame(x), block.push_frame(x)
            assert label_of(b) is label_of(a)
            assert np.abs(b - a).max() < 1e-9


def test_push_block_empty_is_a_no_op(rng):
    session = PredictorSession(random_model_set(rng, dim=3), 4)
    session.push_block(rng.uniform(-1, 1, size=(6, 3)))
    before = _state(session)
    for empty in (np.empty((0, 3)), []):
        assert session.push_block(empty).shape == (0, 8)
        _assert_same_state(before, _state(session))


def test_push_block_dimension_mismatch(rng):
    session = PredictorSession(random_model_set(rng, dim=3))
    with pytest.raises(DataError, match=r"\(n, 3\)"):
        session.push_block(np.zeros((4, 5)))
    with pytest.raises(DataError, match=r"\(n, 3\)"):
        session.push_block(np.zeros(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_push_block_rejects_bad_frame_by_stream_index(rng, bad):
    models = random_model_set(rng, dim=3)
    frames = rng.uniform(-1, 1, size=(60, 3))
    naive_scores = naive_window_scores(models, frames, 5)
    session = PredictorSession(models, 5)
    session.push_block(frames[:10])
    before = _state(session)
    block = frames[10:30].copy()
    block[7, 1] = bad
    with pytest.raises(DataError, match="frame 17: non-finite"):
        session.push_block(block)
    _assert_same_state(before, _state(session))
    scores = session.push_block(frames[10:])
    assert np.abs(scores - naive_scores[10:]).max() < 1e-9
    assert session.frames_seen == len(frames)
    assert session.gmm_evaluations == 8 * len(frames)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(block=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=st.floats()))
def test_push_block_any_floats_finite_or_rejected(block):
    """Any block gives finite scores and posteriors, or DataError and no change."""
    session = PredictorSession(_PROPERTY_MODELS, 3)
    session.push_block(np.linspace(-1, 1, 15).reshape(5, 3))
    before = _state(session)
    try:
        scores = session.push_block(block)
    except DataError:
        _assert_same_state(before, _state(session))
        return
    assert scores.shape == (len(block), 8)
    assert np.isfinite(scores).all()
    assert np.isfinite(posterior(scores)).all()
    assert np.abs(posterior(scores).sum(axis=1) - 1.0).max() < 1e-12
    assert session.frames_seen == 5 + len(block)


def test_posterior_of_a_block_is_each_row_posterior(rng):
    scores = rng.normal(size=(50, 8)) * 50
    block = posterior(scores)
    assert block.shape == scores.shape
    assert np.array_equal(block, np.vstack([posterior(row) for row in scores]))
