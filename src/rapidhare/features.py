"""Model input space: channel selection and lagged directional augmentation.

Directional features are causal lagged differences d[t] = s[t] - s[t - lag]
appended to the frame; they encode which way a signal is moving and are left
unclamped (magnitude at most 2 for inputs in [-1, 1]). Both are computed in
one class, ``FeatureStreamer``, which checks each block's width, selects the
kept channels and appends the differences: ``FeatureConfig.apply`` pushes a
whole recording through it as one block, ``predict FILE`` pushes each chunk
of the recording, and ``predict -`` pushes each frame into one reused output
row. The streamer keeps the last ``lag`` source rows twice over in one ring,
so a one-row push is one subtraction against the oldest row and two row
writes, with no concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ChannelSpec, LabeledSequence
from .errors import DataError

DEFAULT_DIRECTIONAL_LAG = 15
MAX_DIRECTIONAL_LAG = 100_000  # the streamer's ring holds 2 * lag source rows

# x- and z-axis accelerometers on both thighs, the default directional sources.
THIGH_XZ_ACCEL_NAMES = ("acc_rt_x", "acc_rt_z", "acc_lt_x", "acc_lt_z")


def _check_indices(indices, dim, what):
    if len(indices) == 0:
        raise DataError(f"{what} must not be empty")
    if len(set(indices)) != len(indices):
        raise DataError(f"{what} contains duplicate indices")
    for i in indices:
        if not 0 <= int(i) < dim:
            raise DataError(f"{what}: channel index {i} out of range for {dim} channels")


@dataclass(frozen=True)
class DirectionalConfig:
    """Lag length and source channel indices for directional augmentation."""

    lag: int = DEFAULT_DIRECTIONAL_LAG
    source_channels: tuple[int, ...] = ()

    def __post_init__(self):
        if not 1 <= self.lag <= MAX_DIRECTIONAL_LAG:
            raise DataError(f"directional lag must be in 1..{MAX_DIRECTIONAL_LAG}, got {self.lag}")
        object.__setattr__(self, "source_channels", tuple(int(i) for i in self.source_channels))
        if not self.source_channels:
            raise DataError("directional source_channels must not be empty")
        if len(set(self.source_channels)) != len(self.source_channels):
            raise DataError("directional source_channels contains duplicates")
        if any(i < 0 for i in self.source_channels):
            raise DataError("directional source_channels must be non-negative")


@dataclass(frozen=True)
class FeatureConfig:
    """Channel selection followed by optional directional augmentation.

    Kept channels come out in the order listed, then one directional column
    per source. ``keep_channels`` and ``directional.source_channels`` are both
    expressed in the original channel index space; sources are remapped after
    selection.
    """

    keep_channels: tuple[int, ...] | None = None  # None keeps every channel
    directional: DirectionalConfig | None = None

    def __post_init__(self):
        if self.keep_channels is not None:
            object.__setattr__(self, "keep_channels", tuple(int(i) for i in self.keep_channels))
            if self.directional is not None:
                missing = set(self.directional.source_channels) - set(self.keep_channels)
                if missing:
                    raise DataError(f"directional source channels {sorted(missing)} are not kept")

    def apply(self, seq: LabeledSequence) -> LabeledSequence:
        """The whole recording pushed through ``streamer`` as one block; labels are untouched."""
        return LabeledSequence(
            seq.subject_id, self.streamer(seq.dim).push(seq.frames), seq.labels.copy(),
            seq.sample_rate_hz,
        )

    def streamer(self, n_channels: int) -> FeatureStreamer:
        """The streaming form of ``apply`` for frames of ``n_channels`` values."""
        return FeatureStreamer(self, n_channels)


def directional_sources_by_name(channels: list[ChannelSpec], keep=None) -> tuple[int, ...]:
    """Default directional sources: thigh accelerometer x/z channels, found by name.

    When a selection is in force only the kept thigh channels qualify.
    """
    kept = set(range(len(channels))) if keep is None else {int(i) for i in keep}
    sources = tuple(
        i
        for i, c in enumerate(channels)
        if c.name in THIGH_XZ_ACCEL_NAMES and i in kept
    )
    if not sources:
        raise DataError("no thigh accelerometer x/z channels available for directional features")
    return sources


class FeatureStreamer:
    """FeatureConfig's transform of (n, ``n_channels``) blocks, in stream order, to (n, ``dim``).

    A block's kept channels come first, then one lagged difference per
    directional source. The last ``lag`` source rows are kept twice over in
    one ring, zeros before the stream starts, so they are always one
    contiguous slice, oldest first. A one-row push subtracts the oldest row
    from the new one and writes the new row over both copies of the oldest; a
    longer block is one subtraction over the kept rows and the block. Rows
    whose stream index is below ``lag`` get zeros instead. The output does not
    depend on how the stream is split into blocks.
    """

    def __init__(self, cfg: FeatureConfig, n_channels: int):
        keep, directional = cfg.keep_channels, cfg.directional
        if keep is not None:
            _check_indices(keep, n_channels, "channel selection")
        self._n_channels = n_channels
        self._keep = None if keep is None else list(keep)
        self._width = self.dim = n_channels if keep is None else len(keep)
        self._sources = None
        if directional is not None:
            sources = directional.source_channels
            _check_indices(sources, n_channels, "directional source_channels")
            if keep is not None:  # renumbered into the kept channels, which hold every source
                sources = [keep.index(c) for c in sources]
            self._sources = np.array(sources)
            self._lag = directional.lag
            # Each source row is written at _pos and _pos + lag, so
            # _ring[_pos : _pos + lag] holds the last lag rows, oldest first.
            self._ring = np.zeros((2 * directional.lag, len(sources)))
            self._pos = self._rows = 0
            self.dim += len(sources)

    def push(self, block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The features of ``block``; the directional features are written into ``out``.

        ``out`` is ignored without directional features: the result is then
        ``block`` or its kept channels.
        """
        if block.shape[1] != self._n_channels:
            raise DataError(f"expected blocks of {self._n_channels} channels, got shape {block.shape}")
        if self._keep is not None:
            block = block[:, self._keep]
        if self._sources is None:
            return block
        n, dim, lag, ring, q = len(block), self._width, self._lag, self._ring, self._pos
        # Source columns are taken with mode="clip", which skips the buffered
        # copy of mode="raise"; __init__ checked the indices against n_channels.
        if n != 1:
            src = np.empty((lag + n, len(self._sources)))
            src[:lag] = ring[q : q + lag]
            block.take(self._sources, axis=1, out=src[lag:], mode="clip")
            d = src[lag:] - src[:n]
            if self._rows < lag:
                d[: lag - self._rows] = 0.0
            ring[:lag] = ring[lag:] = src[n:]
            self._pos, self._rows = 0, self._rows + n
            return np.concatenate((block, d), axis=1, out=out)
        if out is None:
            out = np.empty((1, self.dim))
        out[:, :dim] = block
        new = ring[q + lag]  # the oldest row's second copy, free once it is subtracted
        block[0].take(self._sources, out=new, mode="clip")
        np.subtract(new, ring[q], out=out[0, dim:])
        if self._rows < lag:
            out[0, dim:] = 0.0
        ring[q] = new
        self._pos, self._rows = (q + 1 if q + 1 < lag else 0), self._rows + 1
        return out


# The old name, kept while perfbench/tracer.py hooks features.stream_push on it.
StreamingDirectional = FeatureStreamer
