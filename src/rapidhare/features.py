"""Model input space: channel selection and lagged directional augmentation.

Directional features are causal lagged differences d[t] = s[t] - s[t - lag]
appended to the frame; they encode which way a signal is moving and are left
unclamped (magnitude at most 2 for inputs in [-1, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ChannelSpec, LabeledSequence
from .errors import DataError

DEFAULT_DIRECTIONAL_LAG = 15

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
        if self.lag < 1:
            raise DataError("directional lag must be at least 1")
        object.__setattr__(self, "source_channels", tuple(int(i) for i in self.source_channels))
        if not self.source_channels:
            raise DataError("directional source_channels must not be empty")
        if len(set(self.source_channels)) != len(self.source_channels):
            raise DataError("directional source_channels contains duplicates")
        if any(i < 0 for i in self.source_channels):
            raise DataError("directional source_channels must be non-negative")


def select_channels(seq: LabeledSequence, keep) -> LabeledSequence:
    """Keep exactly the given channels, in the given order; labels are untouched."""
    keep = [int(i) for i in keep]
    _check_indices(keep, seq.dim, "channel selection")
    return LabeledSequence(
        seq.subject_id, seq.frames[:, keep], seq.labels.copy(), seq.sample_rate_hz
    )


def augment_directional(seq: LabeledSequence, cfg: DirectionalConfig) -> LabeledSequence:
    """Append one lagged-difference column per source channel.

    d[t] = s[t] - s[t - lag] for t >= lag and 0 during the warm-up, so the
    output is causal and a constant signal yields identically zero features.
    """
    _check_indices(cfg.source_channels, seq.dim, "directional source_channels")
    src = seq.frames[:, list(cfg.source_channels)]
    diffs = np.zeros_like(src)
    if seq.n_frames > cfg.lag:
        diffs[cfg.lag:] = src[cfg.lag:] - src[:-cfg.lag]
    frames = np.hstack([seq.frames, diffs])
    return LabeledSequence(seq.subject_id, frames, seq.labels.copy(), seq.sample_rate_hz)


@dataclass(frozen=True)
class FeatureConfig:
    """Channel selection followed by optional directional augmentation.

    ``keep_channels`` and ``directional.source_channels`` are both expressed
    in the original channel index space; sources are remapped after selection.
    """

    keep_channels: tuple[int, ...] | None = None  # None keeps every channel
    directional: DirectionalConfig | None = None

    def __post_init__(self):
        if self.keep_channels is not None:
            object.__setattr__(self, "keep_channels", tuple(int(i) for i in self.keep_channels))
            if self.directional is not None:
                missing = set(self.directional.source_channels) - set(self.keep_channels)
                if missing:
                    raise DataError(
                        f"directional source channels {sorted(missing)} are not kept"
                    )

    def _selected_directional(self) -> DirectionalConfig | None:
        """The directional config with its sources renumbered into the kept channels."""
        directional = self.directional
        if directional is None or self.keep_channels is None:
            return directional
        pos = {orig: i for i, orig in enumerate(self.keep_channels)}
        return DirectionalConfig(directional.lag, tuple(pos[c] for c in directional.source_channels))

    def apply(self, seq: LabeledSequence) -> LabeledSequence:
        if self.keep_channels is not None:
            seq = select_channels(seq, self.keep_channels)
        directional = self._selected_directional()
        if directional is not None:
            seq = augment_directional(seq, directional)
        return seq

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


class StreamingDirectional:
    """Causal streaming form of augment_directional, one frame at a time."""

    def __init__(self, cfg: DirectionalConfig, dim: int):
        _check_indices(cfg.source_channels, dim, "directional source_channels")
        self._sources = list(cfg.source_channels)
        self._lag = cfg.lag
        self._hist = np.zeros((cfg.lag, len(self._sources)))
        self._pos = 0
        self._seen = 0

    def push(self, x: np.ndarray) -> np.ndarray:
        src = x[self._sources]
        if self._seen >= self._lag:
            d = src - self._hist[self._pos]
        else:
            d = np.zeros_like(src)
        self._hist[self._pos] = src
        self._pos = (self._pos + 1) % self._lag
        self._seen += 1
        return np.concatenate([x, d])


class FeatureStreamer:
    """Streaming form of FeatureConfig.apply, for frames of ``n_channels`` values each."""

    def __init__(self, cfg: FeatureConfig, n_channels: int):
        self.n_channels = n_channels
        self._keep = None if cfg.keep_channels is None else list(cfg.keep_channels)
        if self._keep is not None:
            _check_indices(self._keep, n_channels, "channel selection")
        directional = cfg._selected_directional()
        self._directional = None if directional is None else StreamingDirectional(
            directional, n_channels if self._keep is None else len(self._keep)
        )

    def push(self, x: np.ndarray) -> np.ndarray:
        if self._keep is not None:
            x = x[self._keep]
        if self._directional is not None:
            x = self._directional.push(x)
        return x
