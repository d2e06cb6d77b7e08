import numpy as np
import pytest

from rapidhare import ActivityLabel, DataError, TransitionMatrix, load_dataset
from rapidhare.data import write_dataset
from rapidhare.synth import (
    MAX_DIM,
    MAX_DRAW_VALUES,
    SynthSpec,
    default_generators,
    default_spec,
    generate,
    uniform_activity_chain,
)


def small_spec(**overrides):
    overrides.setdefault("n_subjects", 2)
    overrides.setdefault("frames_per_subject", 3000)
    overrides.setdefault("min_segment", 100)
    overrides.setdefault("seed", 7)
    return default_spec(**overrides)


def test_generation_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.subject_id == sb.subject_id
        assert np.array_equal(sa.frames, sb.frames)
        assert np.array_equal(sa.labels, sb.labels)


def test_different_seeds_differ():
    a = generate(small_spec(seed=1))
    b = generate(small_spec(seed=2))
    assert not np.array_equal(a.sequences[0].frames, b.sequences[0].frames)


def test_degenerate_chain_fixes_one_activity():
    chain = TransitionMatrix(np.eye(8))
    spec = small_spec(activity_chain=chain)
    ds = generate(spec)
    for seq in ds.sequences:
        assert len(np.unique(seq.labels)) == 1


def test_segments_respect_min_length():
    ds = generate(small_spec())
    for seq in ds.sequences:
        edges = np.flatnonzero(np.diff(seq.labels)) + 1
        bounds = np.concatenate([[0], edges, [len(seq.labels)]])
        lengths = np.diff(bounds)
        assert lengths.min() >= 100


def test_sample_means_converge_to_generator_means():
    spec = small_spec(n_subjects=1, frames_per_subject=20000, min_segment=100)
    ds = generate(spec)
    seq = ds.sequences[0]
    for label_id in np.unique(seq.labels):
        gen = spec.generators[ActivityLabel(int(label_id))]
        mask = seq.labels == label_id
        n = int(mask.sum())
        sample_mean = seq.frames[mask].mean(axis=0)
        sigma = np.sqrt(gen.variances[0])
        assert (np.abs(sample_mean - gen.means[0]) <= 3 * sigma / np.sqrt(n) + 1e-12).all()


def test_generated_values_fit_recording_range():
    ds = generate(small_spec())
    for seq in ds.sequences:
        assert np.abs(seq.frames).max() <= 1.0


def test_file_round_trip(tmp_path):
    ds = generate(small_spec(frames_per_subject=500))
    write_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.subjects() == ds.subjects()
    for orig, back in zip(ds.sequences, loaded.sequences):
        assert np.array_equal(orig.labels, back.labels)
        # int16 quantization bounds the reconstruction error
        assert np.abs(orig.frames - back.frames).max() < 2.0 / 65535


def test_default_generators_are_distinct_and_tight():
    gens = default_generators(dim=6, separation=0.6, sigma=0.02)
    means = np.vstack([gens[label].means[0] for label in ActivityLabel])
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.linalg.norm(means[i] - means[j]) > 30 * 0.02


def test_spec_validation():
    gens = default_generators(dim=4)
    chain = uniform_activity_chain()
    with pytest.raises(DataError, match="positive"):
        SynthSpec(gens, chain, n_subjects=0)
    with pytest.raises(DataError, match="seed must be non-negative"):
        SynthSpec(gens, chain, seed=-1)
    with pytest.raises(DataError, match="min_segment"):
        SynthSpec(gens, chain, frames_per_subject=10, min_segment=100)
    missing = dict(gens)
    missing.pop(ActivityLabel.WALKING)
    with pytest.raises(DataError, match="per activity"):
        SynthSpec(missing, chain)


def test_default_spec_caps_the_draw_at_its_documented_size():
    """The cap is inclusive, and the dimension has its own cap for the generators."""
    frames = MAX_DRAW_VALUES // 4
    assert default_spec(n_subjects=1, frames_per_subject=frames, dim=4).frames_per_subject == frames
    with pytest.raises(DataError, match="exceeds the cap"):
        default_spec(n_subjects=1, frames_per_subject=frames + 1, dim=4)
    assert default_generators(dim=MAX_DIM)[ActivityLabel.WALKING].dim == MAX_DIM
    with pytest.raises(DataError, match=f"at most {MAX_DIM} dimensions"):
        default_spec(n_subjects=1, frames_per_subject=200, dim=MAX_DIM + 1)


def test_a_spec_built_directly_is_capped_too():
    """The draw cap is the spec's own check, not only default_spec's."""
    with pytest.raises(DataError) as err:
        SynthSpec(default_generators(4), uniform_activity_chain(), n_subjects=10**12,
                  frames_per_subject=300, min_segment=50)
    assert str(err.value) == (
        f"a draw of {10**12 * 300 * 4} frame values (n_subjects * frames_per_subject * dim) "
        f"exceeds the cap of {MAX_DRAW_VALUES}"
    )
