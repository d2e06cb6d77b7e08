import hashlib
from unittest import mock

import numpy as np
import pytest

from rapidhare import ActivityLabel, DataError, load_dataset, synth
from rapidhare.cli import main
from rapidhare.data import write_dataset
from rapidhare.synth import MAX_DIM, MAX_DRAW_VALUES, default_generators, generate


def small_spec(**overrides):
    overrides.setdefault("n_subjects", 2)
    overrides.setdefault("frames_per_subject", 3000)
    overrides.setdefault("min_segment", 100)
    overrides.setdefault("seed", 7)
    return overrides


def test_generation_is_deterministic():
    a = generate(**small_spec())
    b = generate(**small_spec())
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.subject_id == sb.subject_id
        assert np.array_equal(sa.frames, sb.frames)
        assert np.array_equal(sa.labels, sb.labels)


def test_different_seeds_differ():
    a = generate(**small_spec(seed=1))
    b = generate(**small_spec(seed=2))
    assert not np.array_equal(a.sequences[0].frames, b.sequences[0].frames)


def test_segments_respect_min_length():
    ds = generate(**small_spec())
    for seq in ds.sequences:
        edges = np.flatnonzero(np.diff(seq.labels)) + 1
        bounds = np.concatenate([[0], edges, [len(seq.labels)]])
        lengths = np.diff(bounds)
        assert lengths.min() >= 100


def test_sample_means_converge_to_generator_means():
    ds = generate(**small_spec(n_subjects=1, frames_per_subject=20000, min_segment=100))
    generators = default_generators(dim=6, separation=0.6, sigma=0.02)
    seq = ds.sequences[0]
    for label_id in np.unique(seq.labels):
        gen = generators[ActivityLabel(int(label_id))]
        mask = seq.labels == label_id
        n = int(mask.sum())
        sample_mean = seq.frames[mask].mean(axis=0)
        sigma = np.sqrt(gen.variances[0])
        assert (np.abs(sample_mean - gen.means[0]) <= 3 * sigma / np.sqrt(n) + 1e-12).all()


def test_generated_values_fit_recording_range():
    ds = generate(**small_spec())
    for seq in ds.sequences:
        assert np.abs(seq.frames).max() <= 1.0


def test_file_round_trip(tmp_path):
    ds = generate(**small_spec(frames_per_subject=500))
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
    with pytest.raises(DataError, match="positive"):
        generate(dim=4, n_subjects=0)
    with pytest.raises(DataError, match="seed must be non-negative"):
        generate(dim=4, seed=-1)
    with pytest.raises(DataError, match="min_segment"):
        generate(dim=4, frames_per_subject=10, min_segment=100)


def test_default_spec_caps_the_draw_at_its_documented_size():
    """The cap is inclusive, and the dimension has its own cap for the generators."""
    frames = MAX_DRAW_VALUES // 4
    with mock.patch.object(synth, "_label_stream", side_effect=AssertionError("drew")):
        with pytest.raises(AssertionError, match="drew"):
            generate(n_subjects=1, frames_per_subject=frames, dim=4)
    with pytest.raises(DataError, match="exceeds the cap"):
        generate(n_subjects=1, frames_per_subject=frames + 1, dim=4)
    assert default_generators(dim=MAX_DIM)[ActivityLabel.WALKING].dim == MAX_DIM
    with pytest.raises(DataError, match=f"at most {MAX_DIM} dimensions"):
        generate(n_subjects=1, frames_per_subject=200, dim=MAX_DIM + 1)


def test_a_spec_built_directly_is_capped_too():
    """The draw cap is generate's own check, made before anything else."""
    with pytest.raises(DataError) as err:
        generate(n_subjects=10**12, frames_per_subject=300, dim=4, min_segment=50)
    assert str(err.value) == (
        f"a draw of {10**12 * 300 * 4} frame values (n_subjects * frames_per_subject * dim) "
        f"exceeds the cap of {MAX_DRAW_VALUES}"
    )


@pytest.mark.parametrize(
    "flags, digests",
    [
        (
            ["--frames", "2400", "--min-segment", "40"],
            {
                "subject_01.tsv": "38766e69047f3f8b02356a657c57ecf697695047f23714db550015edfa565f5e",
                "subject_02.tsv": "544ee33dd4a9bb3d5ed29ee07efa616543fb5058726ff9458aa2b524db408a46",
                "subject_03.tsv": "08949377fbbd488ebb44e736dc66b5d49b1d47d5978728592f0e71e206eaf162",
            },
        ),
        (
            ["--dim", "3", "--separation", "0.2", "--sigma", "0.15", "--seed", "7", "--frames", "2400"],
            {
                "subject_01.tsv": "933a7d521d70ea0d005f50c30b1965f2841718bc1901b271c54912c1be91110d",
                "subject_02.tsv": "3483a312451c2df60118c83ff5aaf97b695ccaa795afcdf43d12f6390aab186d",
                "subject_03.tsv": "71ea4b26729b0f7a1d4f16e5bcb35097c4bd6152db2190db58ec56080a8f791a",
            },
        ),
    ],
    ids=["defaults", "ambiguous"],
)
def test_synth_writes_the_pinned_bytes(flags, digests, tmp_path, capsys):
    """The SHA-256 of every file ``synth`` writes, computed at commit 5bcb820, before ``SynthSpec`` went.

    ``evaluate``'s cross-validation figures and the quality records are read
    off these draws, so a change to the draw must show here first. numpy's
    ``Generator`` streams may change across numpy versions (NEP 19), so a new
    numpy can break this test without a change to the code; these digests
    were taken with numpy 2.4.
    """
    assert main(["synth", "--out", str(tmp_path), *flags]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
