import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rapidhare import (
    DataError,
    DirectionalConfig,
    FeatureConfig,
    LabeledSequence,
    directional_sources_by_name,
    full_sensor_channels,
)
from rapidhare.features import FeatureStreamer


def seq_of(frames, rate=56.35):
    frames = np.asarray(frames, dtype=float)
    return LabeledSequence("01", frames, np.ones(len(frames), dtype=int), rate)


def test_select_all_is_identity(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(10, 38)))
    out = FeatureConfig(tuple(range(38))).apply(seq)
    assert np.array_equal(out.frames, seq.frames)
    assert np.array_equal(out.labels, seq.labels)


# Triaxial thigh and shin accelerometers on both legs, then the thigh ones alone.
THIGH_SHIN_ACCEL = [6, 7, 8, 12, 13, 14, 24, 25, 26, 30, 31, 32]
THIGH_ACCEL = [12, 13, 14, 30, 31, 32]


def test_select_reduced_configurations(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(10, 38)))
    assert FeatureConfig(THIGH_SHIN_ACCEL).apply(seq).dim == 12
    assert FeatureConfig(THIGH_ACCEL).apply(seq).dim == 6


def test_select_preserves_order(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(5, 6)))
    out = FeatureConfig((4, 1)).apply(seq)
    assert np.array_equal(out.frames[:, 0], seq.frames[:, 4])
    assert np.array_equal(out.frames[:, 1], seq.frames[:, 1])


def test_select_rejects_bad_indices(rng):
    seq = seq_of(rng.uniform(-1, 1, size=(5, 6)))
    with pytest.raises(DataError, match="empty"):
        FeatureConfig(()).apply(seq)
    with pytest.raises(DataError, match="out of range"):
        FeatureConfig((0, 6)).apply(seq)
    with pytest.raises(DataError, match="duplicate"):
        FeatureConfig((0, 0)).apply(seq)


def test_directional_constant_signal_is_zero():
    seq = seq_of(np.full((40, 3), 0.25))
    out = FeatureConfig(directional=DirectionalConfig(lag=15, source_channels=(0, 2))).apply(seq)
    assert out.dim == 5
    assert np.array_equal(out.frames[:, 3:], np.zeros((40, 2)))


def test_directional_ramp():
    h = 0.01
    t = np.arange(40, dtype=float)
    seq = seq_of(np.column_stack([t * h, np.zeros(40)]))
    out = FeatureConfig(directional=DirectionalConfig(lag=15, source_channels=(0,))).apply(seq)
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
    out = FeatureConfig(directional=DirectionalConfig(15, sources)).apply(seq)
    assert out.dim == 42
    assert np.array_equal(out.frames[:, :38], seq.frames)


def test_directional_is_causal(rng):
    frames = rng.uniform(-1, 1, size=(60, 4))
    cfg = FeatureConfig(directional=DirectionalConfig(lag=7, source_channels=(1, 3)))
    full = cfg.apply(seq_of(frames))
    prefix = cfg.apply(seq_of(frames[:25]))
    assert np.array_equal(full.frames[:25], prefix.frames)


def test_directional_bounded_by_two(rng):
    frames = rng.uniform(-1, 1, size=(500, 3))
    out = FeatureConfig(directional=DirectionalConfig(3, (0, 1, 2))).apply(seq_of(frames))
    assert np.abs(out.frames[:, 3:]).max() <= 2.0


def test_directional_config_validation():
    """The lag is checked by the record; its sources when a streamer is built."""
    with pytest.raises(DataError, match="lag"):
        DirectionalConfig(lag=0, source_channels=(0,))
    seq = seq_of(np.zeros((5, 3)))
    with pytest.raises(DataError, match="empty"):
        FeatureConfig(directional=DirectionalConfig(lag=5, source_channels=())).apply(seq)
    with pytest.raises(DataError, match="duplicate"):
        FeatureConfig(directional=DirectionalConfig(lag=5, source_channels=(1, 1))).apply(seq)


def test_directional_short_sequence_is_all_zero():
    seq = seq_of(np.ones((5, 2)))
    out = FeatureConfig(directional=DirectionalConfig(lag=15, source_channels=(0,))).apply(seq)
    assert np.array_equal(out.frames[:, 2], np.zeros(5))


def test_feature_config_applies_selection_then_directional(rng):
    frames = rng.uniform(-1, 1, size=(50, 8))
    cfg = FeatureConfig(keep_channels=(2, 5, 7), directional=DirectionalConfig(4, (5, 7)))
    out = cfg.apply(seq_of(frames))
    assert out.dim == 5
    expected = frames[4:, 5] - frames[:-4, 5]
    assert np.allclose(out.frames[4:, 3], expected)


def test_feature_config_requires_sources_kept():
    cfg = FeatureConfig(keep_channels=(0, 1), directional=DirectionalConfig(4, (2,)))
    with pytest.raises(DataError, match="not kept"):
        cfg.apply(seq_of(np.zeros((5, 3))))


@pytest.mark.parametrize(
    "keep, sources, message",
    [
        ((), None, "channel selection must not be empty"),
        ((0, 0), None, "channel selection contains duplicate indices"),
        ((0, 6), None, "channel selection: channel index 6 out of range for 6 channels"),
        ((-1,), None, "channel selection: channel index -1 out of range for 6 channels"),
        (None, (), "directional source_channels must not be empty"),
        (None, (1, 1), "directional source_channels contains duplicate indices"),
        (None, (-1,), "directional source_channels: channel index -1 out of range for 6 channels"),
        (None, (2, 6), "directional source_channels: channel index 6 out of range for 6 channels"),
        ((0, 1, 3), (1, 2, 4), "directional source channels [2, 4] are not kept"),
    ],
    ids=[
        "keep-empty", "keep-duplicate", "keep-too-large", "keep-negative", "sources-empty",
        "sources-duplicate", "sources-negative", "sources-too-large", "source-not-kept",
    ],
)
def test_every_feature_index_error_is_raised_by_the_streamer(keep, sources, message):
    """The records take any indices; building the streamer checks them against the width."""
    directional = None if sources is None else DirectionalConfig(3, sources)
    cfg = FeatureConfig(keep, directional)
    with pytest.raises(DataError) as err:
        cfg.apply(seq_of(np.zeros((5, 6))))
    assert str(err.value) == message


def test_directional_sources_respect_selection():
    channels = full_sensor_channels()
    sources = directional_sources_by_name(channels, THIGH_ACCEL)
    assert sources == (12, 14, 30, 32)
    with pytest.raises(DataError, match="no thigh"):
        directional_sources_by_name(channels, keep=[0, 1, 2])


def test_streaming_matches_batch(rng):
    frames = rng.uniform(-1, 1, size=(80, 5))
    cfg = DirectionalConfig(lag=9, source_channels=(0, 3))
    batch = FeatureConfig(directional=cfg).apply(seq_of(frames))
    streamer = FeatureStreamer(FeatureConfig(directional=cfg), 5)
    streamed = np.vstack([streamer.push(x[np.newaxis]) for x in frames])
    assert np.array_equal(streamed, batch.frames)

    # The FeatureConfig forms agree too when a permuted selection renumbers the sources.
    for feat in (FeatureConfig((4, 0, 3), cfg), FeatureConfig((2, 0)), FeatureConfig()):
        streamer = FeatureStreamer(feat, 5)
        streamed = np.vstack([streamer.push(x[np.newaxis]) for x in frames])
        assert np.array_equal(streamed, feat.apply(seq_of(frames)).frames)


def test_a_block_of_the_wrong_width_is_a_data_error():
    """Every config checks the width of what it is given, not only a directional one."""
    configs = (FeatureConfig((2, 0)), FeatureConfig(directional=DirectionalConfig(4, (1,))), FeatureConfig())
    for cfg in configs:
        streamer = FeatureStreamer(cfg, 3)
        for block in (np.zeros((1, 2)), np.zeros((5, 4))):
            with pytest.raises(DataError, match="expected blocks of 3 channels"):
                streamer.push(block)


@pytest.mark.parametrize("directional", [DirectionalConfig(3, (1, 5, 1999)), None], ids=["df", "no-df"])
def test_a_one_row_push_with_a_selection_writes_into_out_and_allocates_no_row(directional):
    """``predict -`` hands each push the row the last one returned; a selection copies into it.

    A new array of the kept channels would be 8000 bytes; what the pushes
    after the first allocate stays far below that.
    """
    rows = np.random.default_rng(0).uniform(-1, 1, (40, 1, 2000))
    cfg = FeatureConfig(tuple(range(1999, -1, -2)), directional)
    streamer, expected = FeatureStreamer(cfg, 2000), cfg.apply(seq_of(rows[:, 0])).frames
    out = streamer.push(rows[0])
    for i, row in enumerate(rows[1:20], 1):
        assert streamer.push(row, out) is out
        assert np.array_equal(out[0], expected[i])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for row in rows[20:]:
            streamer.push(row, out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2000
    assert np.array_equal(out[0], expected[-1])


@st.composite
def _split_streams(draw):
    """Frames, a valid FeatureConfig over them, and cut points splitting the frames into blocks."""
    n_frames, n_channels = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    frames = draw(arrays(np.float64, (n_frames, n_channels), elements=st.floats(-1e300, 1e300)))
    keep = draw(st.none() | st.permutations(range(n_channels)).flatmap(
        lambda order: st.integers(1, n_channels).map(lambda k: tuple(order[:k]))
    ))
    pool = list(range(n_channels)) if keep is None else list(keep)
    directional = draw(st.none() | st.builds(
        DirectionalConfig,
        st.integers(1, 20),
        st.lists(st.sampled_from(pool), min_size=1, unique=True).map(tuple),
    ))
    cuts = sorted(draw(st.lists(st.integers(0, n_frames), max_size=8)))
    bounds = [0, *cuts, len(frames)]
    # Some blocks go in as runs of one-row pushes, the shape `predict -` uses.
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        if draw(st.booleans()):
            pieces.extend((i, i + 1) for i in range(lo, hi))
        else:
            pieces.append((lo, hi))
    return frames, FeatureConfig(keep, directional), pieces, draw(st.booleans())


@settings(max_examples=300)
@given(case=_split_streams())
def test_block_pushes_concatenate_to_apply(case):
    """Any split into blocks, empty and one-row ones included, gives apply's frames.

    With directional features, pushes write into a given ``out`` buffer or
    allocate. Also checked against the lagged difference written out over the
    whole recording.
    """
    frames, cfg, pieces, use_out = case
    out = cfg.apply(seq_of(frames)).frames
    streamer = FeatureStreamer(cfg, frames.shape[1])
    pushed = []
    for lo, hi in pieces:
        buf = np.full((hi - lo, out.shape[1]), np.nan) if use_out else None
        pushed.append(streamer.push(frames[lo:hi], buf))
        assert buf is None or cfg.directional is None or pushed[-1] is buf
    assert [len(p) for p in pushed] == [hi - lo for lo, hi in pieces]
    assert np.array_equal(np.concatenate(pushed), out)

    expected = frames if cfg.keep_channels is None else frames[:, list(cfg.keep_channels)]
    if cfg.directional is not None:
        src = frames[:, list(cfg.directional.source_channels)]
        lag = cfg.directional.lag
        diffs = np.zeros_like(src)
        diffs[lag:] = src[lag:] - src[:-lag]
        expected = np.hstack([expected, diffs])
    assert np.array_equal(out, expected)
