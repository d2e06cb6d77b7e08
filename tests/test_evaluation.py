from unittest import mock

import numpy as np
import pytest

from rapidhare import (
    ALL_LABELS,
    ActivityLabel,
    DataError,
    Dataset,
    EmConfig,
    LabeledSequence,
    aggregate_reports,
    apply_border_tolerance,
    channel,
    confusion,
    evaluation,
    metrics,
    run_cv,
)
from rapidhare.synth import default_spec, generate
from conftest import random_model_set, traced_peak


def test_confusion_perfect_prediction_is_diagonal():
    labels = [1, 2, 3, 4, 5, 6, 7, 8, 1]
    conf = confusion(labels, labels)
    assert conf.sum() == 9
    assert np.array_equal(conf, np.diag(np.diag(conf)))


def test_confusion_direct_counts():
    conf = confusion([1, 1, 2], [1, 2, 2])
    assert conf[0, 0] == 1
    assert conf[0, 1] == 1
    assert conf[1, 1] == 1
    assert conf.sum() == 3


def test_confusion_empty_lists():
    conf = confusion([], [])
    assert conf.shape == (8, 8)
    assert conf.sum() == 0


def test_confusion_length_mismatch():
    with pytest.raises(DataError, match="differ in length"):
        confusion([1, 2], [1])


def test_metrics_diagonal_is_all_hundred():
    conf = np.diag(np.arange(1, 9))
    report = metrics(conf)
    for m in report.per_activity.values():
        assert m.recall == 100.0
        assert m.precision == 100.0
        assert m.f1 == 100.0
        assert m.accuracy == 100.0
    assert report.macro.f1 == 100.0


def test_metrics_two_class_hand_arithmetic():
    conf = np.zeros((8, 8), dtype=int)
    conf[0, 0], conf[0, 1] = 8, 2
    conf[1, 0], conf[1, 1] = 1, 9
    m = metrics(conf).per_activity[ActivityLabel.WALKING]
    assert m.recall == pytest.approx(80.0)
    assert m.precision == pytest.approx(100.0 * 8 / 9)
    assert m.accuracy == pytest.approx(85.0)
    expected_f1 = 100.0 * 2 * (8 / 9) * 0.8 / (8 / 9 + 0.8)
    assert m.f1 == pytest.approx(expected_f1)


def test_metrics_all_zero_matrix_has_no_division_error():
    report = metrics(np.zeros((8, 8), dtype=int))
    for m in report.per_activity.values():
        assert (m.recall, m.precision, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 0.0)
    assert report.macro.recall == 0.0


def test_metrics_zero_support_class_counts_in_macro():
    conf = np.zeros((8, 8), dtype=int)
    conf[0, 0] = 10  # only walking has support
    report = metrics(conf)
    assert report.per_activity[ActivityLabel.RUNNING].recall == 0.0
    assert report.macro.recall == pytest.approx(100.0 / 8)


def test_metrics_label_permutation_symmetry(rng):
    conf = rng.integers(0, 30, size=(8, 8))
    perm = rng.permutation(8)
    permuted = conf[np.ix_(perm, perm)]
    base = metrics(conf)
    swapped = metrics(permuted)
    for new_idx, old_idx in enumerate(perm):
        a = base.per_activity[ALL_LABELS[old_idx]]
        b = swapped.per_activity[ALL_LABELS[new_idx]]
        assert (a.recall, a.precision, a.f1, a.accuracy) == pytest.approx(
            (b.recall, b.precision, b.f1, b.accuracy)
        )


def seg(label, n):
    return [int(label)] * n


def test_tolerance_zero_is_identity(rng):
    true = rng.integers(1, 9, size=50)
    pred = rng.integers(1, 9, size=50)
    assert np.array_equal(apply_border_tolerance(true, pred, 0), pred)


def test_tolerance_forgives_early_switch():
    true = seg(1, 10) + seg(2, 10)
    pred = seg(1, 8) + seg(2, 12)  # switched two frames early, then correct
    adjusted = apply_border_tolerance(true, pred, 3)
    assert np.array_equal(adjusted, true)


def test_tolerance_ignores_unrelated_label():
    true = seg(1, 10) + seg(2, 10)
    pred = seg(1, 8) + seg(3, 12)  # a third activity is never forgiven here
    adjusted = apply_border_tolerance(true, pred, 3)
    assert np.array_equal(adjusted, pred)


def test_tolerance_forgives_late_switch():
    true = seg(1, 10) + seg(2, 10)
    pred = seg(1, 12) + seg(2, 8)  # stuck on the old activity for two frames
    adjusted = apply_border_tolerance(true, pred, 3)
    assert np.array_equal(adjusted, true)


def test_tolerance_requires_recognition_past_the_zone():
    true = seg(1, 10) + seg(2, 10)
    pred = seg(1, 8) + seg(2, 2) + seg(1, 10)  # never recognizes B afterwards
    adjusted = apply_border_tolerance(true, pred, 3)
    assert np.array_equal(adjusted, pred)


def test_tolerance_short_segment_counts_any_recognition():
    true = seg(1, 10) + seg(2, 2) + seg(3, 10)
    pred = seg(1, 9) + seg(2, 3) + seg(3, 10)
    adjusted = apply_border_tolerance(true, pred, 3)
    assert np.array_equal(adjusted, true)


def random_label_pairs(rng, n_cases=200, tol=4):
    for _ in range(n_cases):
        n_segments = int(rng.integers(1, 6))
        true, pred = [], []
        for _ in range(n_segments):
            label = int(rng.integers(1, 9))
            length = int(rng.integers(1, 25))
            true.extend([label] * length)
        n = len(true)
        pred = list(rng.integers(1, 9, size=n))
        # bias some stretches toward the truth so the gate sometimes fires
        for lo in range(0, n, 7):
            if rng.random() < 0.6:
                pred[lo : lo + 5] = true[lo : lo + 5]
        yield np.array(true), np.array(pred), tol


def test_tolerance_never_reduces_accuracy(rng):
    for true, pred, tol in random_label_pairs(rng):
        adjusted = apply_border_tolerance(true, pred, tol)
        assert (adjusted == true).sum() >= (pred == true).sum()


def test_tolerance_touches_only_border_zones(rng):
    for true, pred, tol in random_label_pairs(rng):
        adjusted = apply_border_tolerance(true, pred, tol)
        boundaries = np.flatnonzero(np.diff(true)) + 1
        changed = np.flatnonzero(adjusted != pred)
        for idx in changed:
            assert any(b - tol <= idx < b + tol for b in boundaries)


def test_tolerance_is_idempotent(rng):
    for true, pred, tol in random_label_pairs(rng):
        once = apply_border_tolerance(true, pred, tol)
        twice = apply_border_tolerance(true, once, tol)
        assert np.array_equal(once, twice)


def test_tolerance_chained_boundaries_stay_idempotent():
    # Forgiveness at the second boundary reveals recognition for the first.
    true = seg(1, 6) + seg(2, 8) + seg(3, 6)
    pred = seg(1, 6) + seg(1, 2) + seg(3, 6) + seg(3, 6)
    once = apply_border_tolerance(true, pred, 3)
    twice = apply_border_tolerance(true, once, 3)
    assert np.array_equal(once, twice)


def test_tolerance_wider_than_segments_is_safe():
    true = seg(1, 3) + seg(2, 3) + seg(3, 3)
    pred = seg(2, 3) + seg(3, 3) + seg(1, 3)
    once = apply_border_tolerance(true, pred, 25)
    assert (once == np.asarray(true)).sum() >= (np.asarray(pred) == np.asarray(true)).sum()
    assert np.array_equal(once, apply_border_tolerance(true, once, 25))


def test_aggregate_reports_averages_metrics():
    a = metrics(np.diag([10] * 8))
    conf = np.zeros((8, 8), dtype=int)
    conf[0, 1] = 10  # walking always mispredicted as running
    for i in range(1, 8):
        conf[i, i] = 10
    b = metrics(conf)
    agg = aggregate_reports([a, b])
    assert agg.confusion.sum() == a.confusion.sum() + b.confusion.sum()
    assert agg.per_activity[ActivityLabel.WALKING].recall == pytest.approx(50.0)
    assert agg.macro.recall == pytest.approx((a.macro.recall + b.macro.recall) / 2)


def small_synth_dataset():
    # Enough segments per subject that every activity shows up in training.
    spec = default_spec(
        n_subjects=3, frames_per_subject=2400, dim=4, min_segment=40, seed=99
    )
    return generate(spec)


def test_run_cv_rapidhare_small():
    ds = small_synth_dataset()
    counts = {label: 2 for label in ALL_LABELS}
    raw, tol = run_cv(
        ds,
        counts=counts,
        em_cfg=EmConfig(seed=3, max_iters=30),
        window_k=8,
        tolerance=10,
    )
    assert tol.macro.accuracy >= raw.macro.accuracy
    assert raw.confusion.sum() == 3 * 2400
    assert raw.macro.f1 > 50.0  # separable data must be mostly right


def test_run_cv_hmm_small():
    ds = small_synth_dataset()
    counts = {label: 2 for label in ALL_LABELS}
    raw, tol = run_cv(
        ds,
        counts=counts,
        em_cfg=EmConfig(seed=3, max_iters=30),
        tolerance=10,
        method="hmm",
    )
    assert tol.macro.accuracy >= raw.macro.accuracy
    assert raw.macro.f1 > 50.0


def test_run_cv_needs_three_subjects():
    rng = np.random.default_rng(0)
    chans = [channel("acc_rt_x", "accel")]
    seqs = [
        LabeledSequence("01", rng.uniform(-1, 1, (30, 1)), np.ones(30, dtype=int)),
    ]
    with pytest.raises(DataError, match="at least 3"):
        run_cv(Dataset(seqs, chans))


def test_run_cv_unknown_method():
    with pytest.raises(DataError, match="unknown method"):
        run_cv(small_synth_dataset(), method="rnn")


def test_run_cv_scores_each_test_recording_one_block_at_a_time():
    """Four times the frames add less than one (n, 8) float table per added test frame to the peak.

    Training is replaced by a fixed model set, so only the scoring pass
    grows. The bound is set from measurements with one channel: 16 bytes per
    added test frame when each 1024-row block's scores are dropped once their
    labels are taken, 153 bytes when the whole recording was scored at once.
    """
    rng = np.random.default_rng(0)
    model_set = random_model_set(rng, 1)
    peaks = []
    for n in (2000, 8000):
        labels = np.repeat(np.arange(n // 100) % 8 + 1, 100)
        seqs = [LabeledSequence(f"0{i}", rng.uniform(-1, 1, (n, 1)), labels) for i in range(3)]
        dataset = Dataset(seqs, [channel("acc_rt_x", "accel")])
        with mock.patch.object(evaluation, "fit_activity_models", lambda *args: (model_set, {})):
            peaks.append(traced_peak(lambda: run_cv(dataset)))
    assert peaks[1] - peaks[0] < 8 * 8 * 6000
