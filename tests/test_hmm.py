import gc
import time

import numpy as np
import pytest

from rapidhare import (
    ALL_LABELS,
    ActivityLabel,
    ActivityModelSet,
    DataError,
    GmmModel,
    TransitionMatrix,
    count_transitions,
    default_transition_matrix,
    log_pdf,
    predict_stream_hmm,
    viterbi_block,
)
from rapidhare import hmm
from rapidhare.bench import _bench_frames, run_bench
from conftest import enumerate_viterbi, random_model_set

LABEL_IDX = {label: int(label) - 1 for label in ALL_LABELS}


def three_state_instance(rng):
    """A random instance whose mass lives entirely on the first three states."""
    models = random_model_set(rng, dim=2)
    probs = np.zeros((8, 8))
    for i in range(3):
        row = rng.uniform(0.1, 1.0, size=3)
        probs[i, :3] = row / row.sum()
    probs[3:, 3:] = np.eye(5)  # unreachable states idle on themselves
    prior = np.zeros(8)
    head = rng.uniform(0.1, 1.0, size=3)
    prior[:3] = head / head.sum()
    return models, TransitionMatrix(probs), prior


def test_default_matrix_values():
    tm = default_transition_matrix()
    assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-12)
    w = LABEL_IDX[ActivityLabel.WALKING]
    r = LABEL_IDX[ActivityLabel.RUNNING]
    s = LABEL_IDX[ActivityLabel.SITTING]
    assert tm.probs[w, w] == 0.99
    assert tm.probs[w, r] == 0.0025
    assert tm.probs[s, r] == 0.0
    assert tm.log_probs[s, r] == -np.inf


def test_transition_matrix_validation():
    with pytest.raises(DataError, match="sum to 1"):
        TransitionMatrix(np.eye(8) * 0.5)
    with pytest.raises(DataError, match="non-negative"):
        TransitionMatrix(np.eye(8) + np.full((8, 8), -1e-3) + np.eye(8) * 8e-3)


def test_hmm_config_validation(rng):
    models = random_model_set(rng, dim=2)
    with pytest.raises(DataError, match="window_w"):
        predict_stream_hmm(models, default_transition_matrix(), 0, rng.uniform(-1, 1, (3, 2)))


def test_bench_hmm_rejects_a_block_below_one_frame(rng):
    with pytest.raises(DataError, match="^window_w must be positive$"):
        run_bench(random_model_set(rng, dim=2), method="hmm", frames=5, repeats=1, window_w=0)


def test_single_frame_block_is_prior_weighted_argmax(rng):
    models = random_model_set(rng, dim=3)
    prior = np.full(8, 0.125)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        path = viterbi_block(models, default_transition_matrix(), prior, x[None, :])
        direct = np.log(prior) + [log_pdf(models.models[lab], x) for lab in ALL_LABELS]
        assert len(path) == 1
        assert int(path[0]) == int(np.argmax(direct)) + 1


def test_dominant_state_yields_constant_path(rng):
    tight = GmmModel(np.array([1.0]), np.full((1, 2), 0.5), np.full((1, 2), 1e-4))
    loose = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), 4.0))
    models = {label: loose for label in ALL_LABELS}
    models[ActivityLabel.SITTING] = tight
    model_set = ActivityModelSet(models)
    frames = 0.5 + 0.001 * rng.standard_normal((20, 2))
    path = predict_stream_hmm(model_set, default_transition_matrix(), 10, frames)
    assert all(label is ActivityLabel.SITTING for label in path)


def test_viterbi_matches_exhaustive_enumeration(rng):
    for trial in range(30):
        models, trans, prior = three_state_instance(rng)
        n_frames = int(rng.integers(1, 6))
        frames = rng.uniform(-1, 1, size=(n_frames, 2))
        got = viterbi_block(models, trans, prior, frames)
        emissions = [models.frame_log_likelihoods(x) for x in frames]
        with np.errstate(divide="ignore"):
            log_prior = np.log(prior)
        want_path, want_score = enumerate_viterbi(
            log_prior, trans.log_probs, emissions, states=range(3)
        )
        got_idx = [int(label) - 1 for label in got]
        got_score = log_prior[got_idx[0]] + emissions[0][got_idx[0]]
        for t in range(1, n_frames):
            got_score = got_score + trans.log_probs[got_idx[t - 1], got_idx[t]]
            got_score = got_score + emissions[t][got_idx[t]]
        assert got_score == pytest.approx(want_score, abs=1e-9)
        assert got_idx == want_path


def test_viterbi_matches_enumeration_over_all_states(rng):
    models = random_model_set(rng, dim=2)
    probs = rng.uniform(0.05, 1.0, size=(8, 8))
    probs = probs / probs.sum(axis=1, keepdims=True)
    trans = TransitionMatrix(probs)
    prior = np.full(8, 0.125)
    frames = rng.uniform(-1, 1, size=(3, 2))
    got = viterbi_block(models, trans, prior, frames)
    emissions = [models.frame_log_likelihoods(x) for x in frames]
    want_path, _ = enumerate_viterbi(np.log(prior), trans.log_probs, emissions, states=range(8))
    assert [int(label) - 1 for label in got] == want_path


def test_viterbi_rejects_empty_block(rng):
    models = random_model_set(rng, dim=2)
    with pytest.raises(DataError, match="at least one frame"):
        viterbi_block(models, default_transition_matrix(), np.full(8, 0.125), np.empty((0, 2)))


def test_viterbi_rejects_inadmissible_prior(rng):
    from rapidhare import NumericError

    models = random_model_set(rng, dim=2)
    with pytest.raises(NumericError, match="no admissible state"):
        viterbi_block(
            models, default_transition_matrix(), np.zeros(8), rng.uniform(-1, 1, (3, 2))
        )


def test_stream_blocks_partition_sequence(rng):
    models = random_model_set(rng, dim=2)
    trans = default_transition_matrix()
    frames = rng.uniform(-1, 1, size=(25, 2))
    got = predict_stream_hmm(models, trans, 10, frames)
    assert len(got) == 25

    prior = np.full(8, 0.125)
    manual = []
    for lo in (0, 10, 20):
        block = viterbi_block(models, trans, prior, frames[lo : lo + 10])
        manual.extend(block)
        prior = trans.probs[int(block[-1]) - 1]
    assert got == manual


def test_stream_single_block(rng):
    models = random_model_set(rng, dim=2)
    frames = rng.uniform(-1, 1, size=(10, 2))
    got = predict_stream_hmm(models, default_transition_matrix(), 10, frames)
    direct = viterbi_block(models, default_transition_matrix(), np.full(8, 0.125), frames)
    assert got == direct


def test_bench_hmm_pass_decodes_with_the_stream_priors(rng, monkeypatch):
    """bench's hmm method hands viterbi_block the priors that predict_stream_hmm does."""
    models = random_model_set(rng, dim=3)
    priors = []
    decode = hmm.viterbi_block

    def recording(models, trans, prior, frames):
        priors.append(np.array(prior))
        return decode(models, trans, prior, frames)

    monkeypatch.setattr(hmm, "viterbi_block", recording)
    run_bench(models, method="hmm", frames=95, repeats=1, window_w=10, seed=4)
    bench_priors = priors[:]
    priors.clear()
    predict_stream_hmm(models, default_transition_matrix(), 10, _bench_frames(3, 95, 4))
    assert len(priors) == 10
    assert len(bench_priors) == 2 * len(priors)  # the untimed warm-up pass, then one repeat
    for got, want in zip(bench_priors, priors + priors):
        assert np.array_equal(got, want)
    assert not all(np.array_equal(p, priors[0]) for p in priors)  # the prior does move


def test_decoded_stream_never_crosses_forbidden_transitions(rng):
    models = random_model_set(rng, dim=2)
    trans = default_transition_matrix()
    frames = rng.uniform(-1, 1, size=(400, 2))
    path = predict_stream_hmm(models, trans, 10, frames)
    for a, b in zip(path, path[1:]):
        assert trans.probs[int(a) - 1, int(b) - 1] > 0.0


def test_per_frame_time_grows_as_blocks_shrink(rng):
    models = random_model_set(rng, dim=6, k_lo=2, k_hi=3)
    trans = default_transition_matrix()
    frames = rng.uniform(-1, 1, size=(2500, 6))
    widths = (50, 25, 10, 5)
    # 100 frames is a whole number of blocks at every width. Each width decodes
    # every slice 16 times, as many frames as 16 passes over the stream, but in
    # short samples: their minimum is taken in the quiet moments of a shared
    # machine, where 0.2 s passes rarely see none.
    slices = [frames[lo : lo + 100] for lo in range(0, len(frames), 100)]

    def measure():
        best = {w: np.inf for w in widths}
        gc.disable()  # as timeit does, so no collection lands in one sample
        try:
            for _ in range(16):
                for block in slices:
                    for w in widths:  # interleaved so clock drift hits every width equally
                        t0 = time.perf_counter()
                        predict_stream_hmm(models, trans, w, block)
                        best[w] = min(best[w], (time.perf_counter() - t0) / len(block))
        finally:
            gc.enable()
        return [best[w] for w in widths]

    for w in widths:  # warm caches before timing anything
        predict_stream_hmm(models, trans, w, frames[:100])

    # Adjacent widths differ by well under timer noise on a shared machine,
    # so tolerate 3% pairwise and retry the whole measurement a few times.
    times = None
    for _ in range(3):
        times = measure()
        pairwise = all(b >= a * 0.97 for a, b in zip(times, times[1:]))
        if pairwise and times[-1] > times[0]:
            break
    else:
        raise AssertionError(f"per-frame time not growing as blocks shrink: {times}")


def test_count_transitions_counts_moves_within_each_array_plus_one():
    walk, run, sit = ActivityLabel.WALKING, ActivityLabel.RUNNING, ActivityLabel.SITTING
    # The junction sitting -> walking between the first two arrays is no move,
    # and the one-frame array adds none.
    arrays = [np.array([walk, walk, run, run, run, sit]), np.array([walk, run]), np.array([sit])]
    counts = np.ones((8, 8))
    counts[0, 0] += 1  # walking -> walking
    counts[0, 1] += 2  # walking -> running, once in each of the first two arrays
    counts[1, 1] += 2  # running -> running
    counts[1, 4] += 1  # running -> sitting
    expected = counts / counts.sum(axis=1, keepdims=True)
    assert np.array_equal(count_transitions(arrays).probs, expected)
    assert expected[4, 0] == 1 / 8  # sitting -> walking only at the junction: uncounted
    assert np.array_equal(count_transitions([]).probs, np.full((8, 8), 1 / 8))
