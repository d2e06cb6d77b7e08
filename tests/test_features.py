import numpy as np
import pytest

from rapidhare import (
    DataError,
    DirectionalConfig,
    FeatureConfig,
    LabeledSequence,
    StreamingDirectional,
    augment_directional,
    directional_sources_by_name,
    full_sensor_channels,
    select_channels,
)


def seq_of(frames, rate=56.35):
    frames = np.asarray(frames, dtype=float)
    return LabeledSequence("01", frames, np.ones(len(frames), dtype=int), rate)


def test_select_all_is_identity(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(10, 38)))
    out = select_channels(seq, list(range(38)))
    assert np.array_equal(out.frames, seq.frames)
    assert np.array_equal(out.labels, seq.labels)


# Triaxial thigh and shin accelerometers on both legs, then the thigh ones alone.
THIGH_SHIN_ACCEL = [6, 7, 8, 12, 13, 14, 24, 25, 26, 30, 31, 32]
THIGH_ACCEL = [12, 13, 14, 30, 31, 32]


def test_select_reduced_configurations(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(10, 38)))
    assert select_channels(seq, THIGH_SHIN_ACCEL).dim == 12
    assert select_channels(seq, THIGH_ACCEL).dim == 6


def test_select_preserves_order(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(5, 6)))
    out = select_channels(seq, [4, 1])
    assert np.array_equal(out.frames[:, 0], seq.frames[:, 4])
    assert np.array_equal(out.frames[:, 1], seq.frames[:, 1])


def test_select_rejects_bad_indices(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(5, 6)))
    with pytest.raises(DataError, match="empty"):
        select_channels(seq, [])
    with pytest.raises(DataError, match="out of range"):
        select_channels(seq, [0, 6])
    with pytest.raises(DataError, match="duplicate"):
        select_channels(seq, [0, 0])


def test_directional_constant_signal_is_zero():
    seq = seq_of(np.full((40, 3), 0.25))
    out = augment_directional(seq, DirectionalConfig(lag=15, source_channels=(0, 2)))
    assert out.dim == 5
    assert np.array_equal(out.frames[:, 3:], np.zeros((40, 2)))


def test_directional_ramp():
    h = 0.01
    t = np.arange(40, dtype=float)
    seq = seq_of(np.column_stack([t * h, np.zeros(40)]))
    out = augment_directional(seq, DirectionalConfig(lag=15, source_channels=(0,)))
    d = out.frames[:, 2]
    assert np.allclose(d[:15], 0.0)
    assert np.allclose(d[15:], 15 * h)


def test_directional_full_layout_yields_42_channels(rng):
    channels = full_sensor_channels()
    sources = directional_sources_by_name(channels)
    assert sources == (12, 14, 30, 32)
    assert [channels[i].name for i in sources] == [
        "acc_rt_x",
        "acc_rt_z",
        "acc_lt_x",
        "acc_lt_z",
    ]
    seq = seq_of(rng.uniform(-1, 1, size=(30, 38)))
    out = augment_directional(seq, DirectionalConfig(15, sources))
    assert out.dim == 42
    assert np.array_equal(out.frames[:, :38], seq.frames)


def test_directional_is_causal(rng):
    frames = rng.uniform(-1, 1, size=(60, 4))
    cfg = DirectionalConfig(lag=7, source_channels=(1, 3))
    full = augment_directional(seq_of(frames), cfg)
    prefix = augment_directional(seq_of(frames[:25]), cfg)
    assert np.array_equal(full.frames[:25], prefix.frames)


def test_directional_bounded_by_two(rng):
    frames = rng.uniform(-1, 1, size=(500, 3))
    out = augment_directional(seq_of(frames), DirectionalConfig(3, (0, 1, 2)))
    assert np.abs(out.frames[:, 3:]).max() <= 2.0


def test_directional_config_validation():
    with pytest.raises(DataError, match="lag"):
        DirectionalConfig(lag=0, source_channels=(0,))
    with pytest.raises(DataError, match="empty"):
        DirectionalConfig(lag=5, source_channels=())
    with pytest.raises(DataError, match="duplicates"):
        DirectionalConfig(lag=5, source_channels=(1, 1))


def test_directional_short_sequence_is_all_zero():
    seq = seq_of(np.ones((5, 2)))
    out = augment_directional(seq, DirectionalConfig(lag=15, source_channels=(0,)))
    assert np.array_equal(out.frames[:, 2], np.zeros(5))


def test_feature_config_applies_selection_then_directional(rng):
    frames = rng.uniform(-1, 1, size=(50, 8))
    cfg = FeatureConfig(keep_channels=(2, 5, 7), directional=DirectionalConfig(4, (5, 7)))
    out = cfg.apply(seq_of(frames))
    assert out.dim == 5
    expected = frames[4:, 5] - frames[:-4, 5]
    assert np.allclose(out.frames[4:, 3], expected)


def test_feature_config_requires_sources_kept():
    with pytest.raises(DataError, match="not kept"):
        FeatureConfig(keep_channels=(0, 1), directional=DirectionalConfig(4, (2,)))


def test_directional_sources_respect_selection():
    channels = full_sensor_channels()
    sources = directional_sources_by_name(channels, THIGH_ACCEL)
    assert sources == (12, 14, 30, 32)
    with pytest.raises(DataError, match="no thigh"):
        directional_sources_by_name(channels, keep=[0, 1, 2])


def test_streaming_matches_batch(rng):
    frames = rng.uniform(-1, 1, size=(80, 5))
    cfg = DirectionalConfig(lag=9, source_channels=(0, 3))
    batch = augment_directional(seq_of(frames), cfg)
    streamer = StreamingDirectional(cfg, dim=5)
    streamed = np.vstack([streamer.push(x) for x in frames])
    assert np.array_equal(streamed, batch.frames)

    # The FeatureConfig forms agree too when a permuted selection renumbers the sources.
    for feat in (FeatureConfig((4, 0, 3), cfg), FeatureConfig((2, 0)), FeatureConfig()):
        streamer = feat.streamer(5)
        streamed = np.vstack([streamer.push(x) for x in frames])
        assert np.array_equal(streamed, feat.apply(seq_of(frames)).frames)
