"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they happen. The final, dataset-dependent check is skipped unless
``RAPIDHARE_DATASET_DIR`` points at a directory of recording files.
"""

import os
import time

import numpy as np
import pytest

from rapidhare import (
    ALL_LABELS,
    ActivityModelSet,
    DirectionalConfig,
    EmConfig,
    FeatureConfig,
    PredictorSession,
    TransitionMatrix,
    apply_border_tolerance,
    directional_sources_by_name,
    fit_activity_models,
    fit_em,
    fit_em_trace,
    load_dataset,
    log_pdf,
    metrics,
    naive_window_scores,
    predict_sequence_naive,
    run_bench,
    run_cv,
    split_loso,
    viterbi_block,
)
from rapidhare.gmm import DEFAULT_COMPONENT_COUNTS
from rapidhare.synth import generate
from conftest import enumerate_viterbi, log_pdf_oracle, random_gmm, random_model_set


def _report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS [{name}]: {detail}")


def test_criterion_1_streaming_equals_naive():
    """push_frame must replay predict_sequence_naive exactly on long streams."""
    t_start = time.perf_counter()
    windows = (0, 5, 26)
    n_frames = 10_000
    worst_gap = 0.0
    for instance in range(100):
        rng = np.random.default_rng(1000 + instance)
        k = windows[instance % len(windows)]
        models = random_model_set(rng, dim=5, k_lo=1, k_hi=3)
        frames = rng.uniform(-1.5, 1.5, size=(n_frames, 5))

        naive_labels = predict_sequence_naive(models, frames, k)
        naive_scores = naive_window_scores(models, frames, k)
        session = PredictorSession(models, k)
        for t, x in enumerate(frames):
            scores = session.push_frame(x)
            assert ALL_LABELS[int(scores.argmax())] is naive_labels[t], (instance, k, t)
            gap = float(np.abs(scores - naive_scores[t]).max())
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-9, (instance, k, t, gap)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    _report(
        "criterion 1",
        f"100 instances x {n_frames} frames, K in {windows}: labels exact, "
        f"worst score gap {worst_gap:.2e} (< 1e-9), {elapsed:.1f}s",
    )


def test_criterion_2_log_density_oracle():
    """log_pdf against direct extended-precision mixture summation."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        model = random_gmm(rng, dim=dim, k=k)
        x = rng.uniform(-2, 2, size=dim)
        got = log_pdf(model, x)
        want = log_pdf_oracle(model, x)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-12, (got, want)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    _report(
        "criterion 2",
        f"1000 random pairs: worst relative error {worst:.2e} (<= 1e-12), {elapsed:.1f}s",
    )


def test_criterion_3_em_monotone_and_recovers():
    """EM log-likelihood never dips; the two-blob truth is recovered."""
    t_start = time.perf_counter()
    worst_dip = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        centers = rng.choice([-2.0, 0.0, 2.0], size=(200, 1))
        data = np.hstack([centers, np.zeros((200, 1))]) + rng.normal(size=(200, 2))
        _, trace = fit_em_trace(data, k=3, cfg=EmConfig(seed=seed))
        dips = np.diff(trace)
        worst_dip = min(worst_dip, float(dips.min()))
        assert dips.min() >= -1e-8, seed

    rng = np.random.default_rng(2024)
    blob_a = rng.normal(-5.0, 0.1, size=(500, 1))
    blob_b = rng.normal(5.0, 0.1, size=(500, 1))
    data = np.vstack([blob_a, blob_b])
    model, _ = fit_em(data, k=2, cfg=EmConfig(seed=4))
    order = np.argsort(model.means[:, 0])
    assert abs(model.means[order[0], 0] - -5.0) < 0.1
    assert abs(model.means[order[1], 0] - 5.0) < 0.1
    assert abs(model.weights[0] - 0.5) < 0.05
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    _report(
        "criterion 3",
        f"100 seeds monotone (worst step {worst_dip:.2e} >= -1e-8), "
        f"two-blob means within 0.1 and weights within 0.05, {elapsed:.1f}s",
    )


def test_criterion_4_viterbi_equals_enumeration():
    """Blockwise Viterbi against exhaustive path enumeration."""
    t_start = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        models = random_model_set(rng, dim=2)
        probs = np.zeros((8, 8))
        for i in range(3):
            row = rng.uniform(0.05, 1.0, size=3)
            if trial % 4 == 0 and i == 0:
                row[2] = 0.0  # exercise forbidden transitions
            probs[i, :3] = row / row.sum()
        probs[3:, 3:] = np.eye(5)
        trans = TransitionMatrix(probs)
        prior = np.zeros(8)
        head = rng.uniform(0.05, 1.0, size=3)
        prior[:3] = head / head.sum()
        n_frames = int(rng.integers(1, 6))
        frames = rng.uniform(-1, 1, size=(n_frames, 2))

        got = [int(label) - 1 for label in viterbi_block(models, trans, prior, frames)]
        emissions = [models.frame_log_likelihoods(x) for x in frames]
        with np.errstate(divide="ignore"):
            log_prior = np.log(prior)
        want, _ = enumerate_viterbi(log_prior, trans.log_probs, emissions, states=range(3))
        assert got == want, trial
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    _report("criterion 4", f"100 instances, N=3, T<=5: paths identical, {elapsed:.1f}s")


def _random_tolerance_case(rng):
    true = []
    for _ in range(int(rng.integers(1, 7))):
        true.extend([int(rng.integers(1, 9))] * int(rng.integers(1, 30)))
    n = len(true)
    pred = list(rng.integers(1, 9, size=n))
    for lo in range(0, n, 6):
        if rng.random() < 0.65:
            pred[lo : lo + 4] = true[lo : lo + 4]
    return np.array(true), np.array(pred), int(rng.integers(0, 7))


def test_criterion_5_border_tolerance_properties():
    """Tolerance can only fix frames, stays local, and is idempotent."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(31)
    for _ in range(1000):
        true, pred, tol = _random_tolerance_case(rng)
        adjusted = apply_border_tolerance(true, pred, tol)
        assert (adjusted == true).sum() >= (pred == true).sum()
        again = apply_border_tolerance(true, adjusted, tol)
        assert np.array_equal(adjusted, again)
        boundaries = np.flatnonzero(np.diff(true)) + 1
        for idx in np.flatnonzero(adjusted != pred):
            assert any(b - tol <= idx < b + tol for b in boundaries)

    true = [1] * 10 + [2] * 10
    early = [1] * 8 + [2] * 12
    assert np.array_equal(apply_border_tolerance(true, early, 3), true)
    unrelated = [1] * 8 + [3] * 12
    assert np.array_equal(apply_border_tolerance(true, unrelated, 3), unrelated)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    _report(
        "criterion 5",
        f"1000 random pairs: accuracy monotone, local, idempotent; hand cases exact, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_synthetic_cv_end_to_end():
    """Full pipeline on the default synthetic spec must be near-perfect per fold."""
    t_start = time.perf_counter()
    dataset = generate(seed=20260101)
    fold_stats = []
    for i, subject in enumerate(dataset.subjects()):
        train, _validation, test = split_loso(dataset, subject)
        model_set, _ = fit_activity_models(
            train.sequences,
            DEFAULT_COMPONENT_COUNTS,
            EmConfig(seed=11 + i),
        )
        for seq in test.sequences:
            session = PredictorSession(model_set, 26)
            pred = np.fromiter(
                (int(ALL_LABELS[int(session.push_frame(x).argmax())]) for x in seq.frames),
                dtype=np.int64,
                count=seq.n_frames,
            )
            adjusted = apply_border_tolerance(seq.labels, pred, 25)
            accuracy = float((adjusted == seq.labels).mean())
            from rapidhare import confusion

            f1 = metrics(confusion(seq.labels, adjusted)).macro.f1
            fold_stats.append((subject, accuracy, f1))
            assert accuracy >= 0.99, (subject, accuracy)
            assert f1 >= 97.0, (subject, f1)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 180.0
    detail = ", ".join(f"fold {s}: acc {a:.4f} f1 {f:.2f}" for s, a, f in fold_stats)
    _report("criterion 6", f"{detail}; {elapsed:.1f}s")


def _bench_model_set():
    rng = np.random.default_rng(8)
    models = {
        label: random_gmm(rng, dim=38, k=DEFAULT_COMPONENT_COUNTS[label])
        for label in ALL_LABELS
    }
    return ActivityModelSet(models)


def test_criterion_7_latency_ratio():
    """Streaming per-frame time at most a quarter of blockwise Viterbi's."""
    models = _bench_model_set()
    assert sum(m.n_components for m in models.models.values()) == 86
    fast = run_bench(
        models, method="rapidhare", frames=1500, repeats=3,
        window_k=26, seed=3,
    )
    slow = run_bench(models, method="hmm", frames=1500, repeats=3, seed=3)
    ratio = slow.mean_us / fast.mean_us
    assert fast.mean_us <= slow.mean_us / 4.0, (fast.mean_us, slow.mean_us)
    _report(
        "criterion 7",
        f"rapidhare {fast.mean_us:.1f}us vs hmm {slow.mean_us:.1f}us per frame "
        f"({ratio:.1f}x, needs >= 4x)",
    )


def test_criterion_8_evaluations_per_frame():
    """Exactly 8 mixture evaluations per pushed frame, whatever the window."""
    rng = np.random.default_rng(13)
    models = random_model_set(rng, dim=4)
    for k in (0, 5, 26, 100):
        session = PredictorSession(models, k)
        for _ in range(137):
            session.push_frame(rng.uniform(-1, 1, size=4))
        assert session.gmm_evaluations == 137 * 8, k
    _report("criterion 8", "8 evaluations per frame at K in {0, 5, 26, 100}")


def test_criterion_9_optional_recorded_dataset():
    """Dataset-dependent check; needs RAPIDHARE_DATASET_DIR with real recordings.

    Scaling and segmentation choices can move these scores by a few points
    relative to results published for comparable sensor sets.
    """
    data_dir = os.environ.get("RAPIDHARE_DATASET_DIR")
    if not data_dir:
        pytest.skip("RAPIDHARE_DATASET_DIR not set; skipping the recorded-data check")
    dataset = load_dataset(data_dir)
    feat = FeatureConfig(
        directional=DirectionalConfig(15, directional_sources_by_name(dataset.channels))
    )
    _raw, tol = run_cv(
        dataset,
        feat_cfg=feat,
        window_k=26,
        tolerance=25,
    )
    assert tol.macro.f1 >= 90.0
    assert tol.macro.accuracy >= 98.0
    _report(
        "criterion 9",
        f"recorded dataset: macro F1 {tol.macro.f1:.2f} (>= 90), "
        f"accuracy {tol.macro.accuracy:.2f} (>= 98)",
    )
