"""Sensor recordings on disk, their in-memory form, and subject-level splits.

Recording file format (text, one file per continuous recording):

* lines starting with ``#`` are metadata: ``#subject <id>`` (required) and
  ``#rate <hz>`` (optional, finite and positive, default 56.35); unknown
  metadata keys are ignored
* the first non-metadata line is a tab-separated header of column names whose
  last column is literally ``act``
* every following line is one frame: tab-separated raw integers, one per
  channel, then the activity id (1..8)

Files are ASCII; lines end at ``\n``, ``\r\n`` or ``\r``. A field is an
optionally signed run of ASCII digits, optionally padded with spaces, vertical
tabs or form feeds (``_FIELD``). Every parse error names ``file:line``.

A recording is read one way: its header's channel specs, then chunks of
``CHUNK_LINES`` data lines (``recording_chunks``), which ``parse_recording``
joins, so every command reports a recording's errors in one order.

A column's header name is all a recording says about it: its prefix (``acc``,
``gyro`` or ``emg``, ``RAW_RANGES``) decides the raw integer range, and any
other prefix is a header error. Raw integers are scaled to [-1, 1] at parse
time with the affine map of that range, so everything downstream sees scaled
reals.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

NOMINAL_SAMPLE_RATE_HZ = 56.35
N_ACTIVITIES = 8


class ActivityLabel(enum.IntEnum):
    """The eight recognized activities; ids are fixed and 1-based."""

    WALKING = 1
    RUNNING = 2
    GOING_UP = 3
    GOING_DOWN = 4
    SITTING = 5
    SITTING_DOWN = 6
    STANDING_UP = 7
    STANDING = 8

    @property
    def label_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "ActivityLabel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise DataError(f"unknown activity name: {name!r}") from None


ALL_LABELS: tuple[ActivityLabel, ...] = tuple(ActivityLabel)

# Raw integer encodings per channel-name prefix.
RAW_RANGES: dict[str, tuple[int, int]] = {
    "acc": (-32768, 32767),
    "gyro": (-32768, 32767),
    "emg": (0, 255),
}


@dataclass(frozen=True)
class ChannelSpec:
    """One sensor channel: its header name and the raw integer range its name's prefix implies."""

    name: str
    raw_min: int = field(init=False)
    raw_max: int = field(init=False)

    def __post_init__(self):
        for prefix, (lo, hi) in RAW_RANGES.items():
            if self.name.startswith(prefix):
                object.__setattr__(self, "raw_min", lo)
                object.__setattr__(self, "raw_max", hi)
                return
        raise DataError(f"cannot infer sensor kind from column name {self.name!r}")


SENSOR_LOCATIONS = ("rf", "rs", "rt", "lf", "ls", "lt")  # right/left foot, shin, thigh


def full_sensor_channels() -> list[ChannelSpec]:
    """The full 38-channel layout: accel and gyro triples on six leg sites plus two EMG channels."""
    names = [f"{kind}_{loc}_{axis}" for loc in SENSOR_LOCATIONS for kind in ("acc", "gyro")
             for axis in "xyz"]
    return [ChannelSpec(name) for name in names + ["emg_r", "emg_l"]]


@dataclass
class LabeledSequence:
    """A contiguous recording: scaled frames, per-frame activity labels, one subject."""

    subject_id: str
    frames: np.ndarray  # (n_frames, n_channels) float64
    labels: np.ndarray  # (n_frames,) int64 with values 1..8
    sample_rate_hz: float = NOMINAL_SAMPLE_RATE_HZ

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if frames.ndim != 2 or len(frames) == 0:
            raise DataError("frames must be a non-empty 2-D array")
        if labels.shape != (len(frames),):
            raise DataError("labels must align one-to-one with frames")
        if not np.isfinite(frames).all():
            raise DataError("frames contain non-finite values")
        if labels.min() < 1 or labels.max() > N_ACTIVITIES:
            raise DataError("labels must be activity ids in 1..8")
        if not 0 < self.sample_rate_hz < np.inf:
            raise DataError(f"sample rate must be finite and positive, got {self.sample_rate_hz!r}")
        self.sample_rate_hz = float(self.sample_rate_hz)  # a Python float, whose repr "#rate" reads
        self.frames = frames
        self.labels = labels

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class Dataset:
    """A collection of labeled sequences sharing one channel layout."""

    sequences: list[LabeledSequence]
    channels: list[ChannelSpec]

    def __post_init__(self):
        if not self.sequences:
            raise DataError("a dataset needs at least one sequence")
        n = len(self.channels)
        for seq in self.sequences:
            if seq.dim != n:
                raise DataError(
                    f"sequence for subject {seq.subject_id} has {seq.dim} channels, expected {n}"
                )

    def subjects(self) -> list[str]:
        return sorted({seq.subject_id for seq in self.sequences})


# Data lines per chunk of a recording: a multiple of predictor.BLOCK_ROWS, so
# that push_block sees the 256-row blocks it would see with the whole
# recording in memory.
CHUNK_LINES = 1024


def _open(path: Path, kind: str):
    """``path`` opened as ASCII text that reads a non-ASCII byte as a lone surrogate.

    Iterating it yields lines that text mode ends at "\n", "\r\n" and "\r",
    each given as one trailing "\n" (the last line may have none).
    """
    if not path.is_file():
        raise DataError(f"no such {kind} file: {path}")
    return open(path, encoding="ascii", errors="surrogateescape")


class _LineReader:
    """A cursor over an ASCII ``kind`` file's lines, past the lines ``skip`` matches.

    The first non-ASCII byte is reported before anything else. Every line
    keeps its number in the file, and ``fail`` writes every error.
    """

    def __init__(self, path, kind: str, skip=None):
        self.path = Path(path)
        self._lines = []
        with _open(self.path, kind) as fh:
            for i, line in enumerate(fh, start=1):
                line = line.removesuffix("\n")
                if not line.isascii():
                    self.fail("non-ASCII byte", i)
                if not (skip and skip(line)):
                    self._lines.append((i, line))
        self._pos = 0
        self.lineno = 0  # of the line last read

    @property
    def remaining(self) -> int:
        return len(self._lines) - self._pos

    def next(self, what: str) -> str:
        if not self.remaining:
            self.fail(f"unexpected end of file, expected {what}", 0)
        self.lineno, line = self._lines[self._pos]
        self._pos += 1
        return line

    def fail(self, msg: str, lineno: int | None = None):
        """Raise DataError at ``lineno``, by default the line last read; 0 names only the file."""
        lineno = self.lineno if lineno is None else lineno
        raise DataError(f"{self.path}:{lineno}: {msg}" if lineno else f"{self.path}: {msg}")

    def check(self, lineno: int, make):
        """``make()``, with a DataError it raises passed to ``fail`` at ``lineno``."""
        try:
            return make()
        except DataError as exc:
            self.fail(str(exc), lineno)

    def fields(self, keyword: str, n: int, usage: str) -> list[str]:
        """The n fields after ``keyword`` on the next line."""
        parts = self.next(usage).split()
        if len(parts) != n + 1 or parts[0] != keyword:
            self.fail(f"expected '{usage}'")
        return parts[1:]

    def count(self, text: str, what: str) -> int:
        try:
            value = int(text)
        except ValueError:
            shown = repr(text) if len(text) <= 40 else f"a {len(text)}-character value"
            self.fail(f"{what} must be an integer, got {shown}")
        if value < 1:
            self.fail(f"{what} must be at least 1, got {value}")
        return value

    def reals(self, keyword: str, n: int) -> list[float]:
        """The n reals after ``keyword`` on the next line."""
        texts = self.fields(keyword, n, f"{keyword} <{n} values>")
        try:
            return [float(t) for t in texts]
        except ValueError:
            self.fail(f"non-numeric {keyword} value")


def _parse_header(path: Path, lines) -> tuple[str | None, float, list[str], int]:
    """Read the metadata lines and the header at the start of ``lines``.

    Returns the ``#subject`` (None if there is none before the header), the
    sample rate, the header's channel names without ``act`` and the number of
    lines read; lines that end first raise. Stops at the header, so ``lines``
    may be a lazy iterator.
    """
    subject, rate = None, NOMINAL_SAMPLE_RATE_HZ
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\n")
        if not line.isascii():
            raise DataError(f"{path}:{lineno}: non-ASCII byte")
        if not line:
            raise DataError(f"{path}:{lineno}: blank line")
        if not line.startswith("#"):
            names = line.split("\t")
            if len(names) < 2 or names[-1] != "act":
                raise DataError(f"{path}:{lineno}: header must end with an 'act' column")
            return subject, rate, names[:-1], lineno
        parts = line[1:].split()
        if len(parts) == 2 and parts[0] == "subject":
            subject = parts[1]
        elif len(parts) == 2 and parts[0] == "rate":
            try:
                rate = float(parts[1])
            except ValueError:
                rate = np.nan
            if not 0 < rate < np.inf:
                raise DataError(f"{path}:{lineno}: bad sample rate {parts[1]!r}")
    missing = "header line" if subject else "'#subject' metadata line"
    raise DataError(f"{path}: missing {missing}")


def _scale_columns(raw: np.ndarray, mins: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """``-1.0 + 2.0 * (raw - mins) / spans``, in one array: the same operations, the same bits."""
    scaled = raw - mins
    scaled *= 2.0
    scaled /= spans
    scaled += -1.0
    return scaled


# One data field: an optionally signed run of ASCII digits, optionally padded.
# Python's int() also reads "1_000", and np.loadtxt also pads with \x1c-\x1f;
# neither belongs to the format.
_FIELD = re.compile(r"[ \v\f]*[+-]?[0-9]+[ \v\f]*")
_FIELD_BYTES = b"0123456789+- \v\f\t\n"


def _parse_rows(path: Path, rows: list[str], first_line: int, n_cols: int) -> np.ndarray:
    """The data lines as an (n, n_cols) integer table, parsed by one np.loadtxt call.

    The lines keep their "\n", which np.loadtxt drops. np.loadtxt decides only
    data made of the field characters alone; any other character (a non-ASCII
    byte encodes back to itself), a raised ValueError (including an int64
    overflow) or a table of the wrong shape (it skips blank lines) sends the
    lines to _scan_rows, which names the first bad one. So do lines that are
    all blank, on which np.loadtxt would first print a warning.
    """
    text = "".join(rows).encode("ascii", "surrogateescape")
    if text.lstrip(b"\n") and not text.translate(None, _FIELD_BYTES):
        try:
            raw = np.loadtxt(rows, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if raw.shape == (len(rows), n_cols):
                return raw
    return _scan_rows(path, rows, first_line, n_cols)


def _scan_rows(path: Path, rows: list[str], first_line: int, n_cols: int) -> np.ndarray:
    """Read data lines one by one, raising DataError at the first malformed one.

    Rows that are well formed come back as a table of Python integers (dtype
    object), so that a value beyond int64 still meets the label and range checks.
    """
    table = []
    for lineno, line in enumerate(rows, start=first_line):
        line = line.removesuffix("\n")
        if not line.isascii():
            raise DataError(f"{path}:{lineno}: non-ASCII byte")
        if not line:
            raise DataError(f"{path}:{lineno}: blank line")
        if line.startswith("#"):
            raise DataError(f"{path}:{lineno}: metadata line after the header")
        parts = line.split("\t")
        if len(parts) != n_cols:
            raise DataError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        if not all(_FIELD.fullmatch(p) for p in parts):
            raise DataError(f"{path}:{lineno}: non-integer field")
        try:
            table.append([int(p) for p in parts])
        except ValueError:  # more digits than int() converts
            raise DataError(f"{path}:{lineno}: integer field too long") from None
    return np.array(table, dtype=object)


def recording_chunks(path, channels: list[ChannelSpec] | None = None):
    """Yield a recording's channel specs, then its frames in chunks of ``CHUNK_LINES``.

    The specs are inferred from the header, or are ``channels`` once the
    header names them; no data line is checked before they are yielded. Each
    chunk, a scaled, labeled sequence (the last one shorter), is checked before
    it is yielded: its lines in line order, then a missing ``#subject``, then
    its label ids, then its raw values. Each chunk's lines are taken from the
    text stream as they come, so memory does not grow with the recording. A
    missing ``#subject`` or data rows is raised at the end.
    """
    path = Path(path)
    with _open(path, "recording") as fh:
        subject, rate, names, n_head = _parse_header(path, fh)
        if channels is None:
            try:
                channels = [ChannelSpec(name) for name in names]
            except DataError as exc:
                raise DataError(f"{path}:{n_head}: {exc}") from None
        elif names != [c.name for c in channels]:
            raise DataError(f"{path}:{n_head}: header columns do not match the channel spec")
        yield channels
        mins = np.array([c.raw_min for c in channels])
        maxs = np.array([c.raw_max for c in channels])
        offsets, spans = mins.astype(np.float64), (maxs - mins).astype(np.float64)
        first_line = n_head + 1
        for rows in iter(lambda: list(itertools.islice(fh, CHUNK_LINES)), []):
            raw = _parse_rows(path, rows, first_line, len(channels) + 1)
            del rows  # the table replaces the text lines
            if subject is None:
                raise DataError(f"{path}: missing '#subject' metadata line")
            acts = raw[:, -1].copy()  # a view would keep the whole table alive with the labels
            bad = (acts < 1) | (acts > N_ACTIVITIES)
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(f"{path}:{first_line + i}: unknown label id {acts[i]}")
            values = raw[:, :-1]
            out_of_range = (values < mins) | (values > maxs)
            if out_of_range.any():
                r, c = map(int, np.argwhere(out_of_range)[0])
                raise DataError(
                    f"{path}:{first_line + r}: value {values[r, c]} outside the raw range of "
                    f"channel {channels[c].name!r}"
                )
            first_line += len(acts)
            chunk = [LabeledSequence(subject, _scale_columns(values, offsets, spans), acts, rate)]
            del raw, values, acts, bad, out_of_range
            yield chunk.pop()  # so that only the consumer holds the chunk
    if subject is None:
        raise DataError(f"{path}: missing '#subject' metadata line")
    if first_line == n_head + 1:
        raise DataError(f"{path}: no data rows")


def parse_recording(path, channels: list[ChannelSpec] | None = None) -> LabeledSequence:
    """Parse one recording file into a scaled, labeled sequence: ``recording_chunks`` joined.

    Raises DataError with the offending line number for non-ASCII bytes,
    blank lines, malformed headers, wrong row widths, non-integer fields,
    unknown label ids, and raw values outside a channel's declared range, in
    ``recording_chunks``' order.
    """
    chunks = list(itertools.islice(recording_chunks(path, channels), 1, None))
    frames = np.concatenate([c.frames for c in chunks])
    labels = np.concatenate([c.labels for c in chunks])
    return LabeledSequence(chunks[0].subject_id, frames, labels, chunks[0].sample_rate_hz)


def write_recording(seq: LabeledSequence, channels: list[ChannelSpec], path) -> None:
    """Write a sequence back to the recording format, inverting the raw scaling."""
    if not (seq.subject_id.isascii() and seq.subject_id.split() == [seq.subject_id]):
        raise DataError(f"{path}: subject id {seq.subject_id!r} is not one ASCII word")
    if seq.dim != len(channels):
        raise DataError(f"sequence has {seq.dim} channels, spec has {len(channels)}")
    mins = np.array([c.raw_min for c in channels], dtype=np.float64)
    spans = np.array([c.raw_max - c.raw_min for c in channels], dtype=np.float64)
    raw = np.rint((seq.frames + 1.0) * (spans / 2.0) + mins)
    outside = ((raw < mins) | (raw > mins + spans)).any(axis=0)
    if outside.any():
        name = channels[int(outside.argmax())].name
        raise DataError(
            f"{path}: subject {seq.subject_id}, channel {name!r}: "
            "scaled values fall outside the representable raw range"
        )
    raw = raw.astype(np.int64)
    lines = [f"#subject {seq.subject_id}", f"#rate {seq.sample_rate_hz!r}"]
    lines.append("\t".join([c.name for c in channels] + ["act"]))
    template = "\t".join(["%d"] * (len(channels) + 1))
    lines.extend(template % tuple(row) for row in np.column_stack([raw, seq.labels]).tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_dataset(data_dir, on_header=None) -> Dataset:
    """Load every recording file in a directory; channels inferred from the first header.

    ``on_header(channels)``, when given, runs on those channels before any data line is read.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"no such data directory: {data_dir}")
    files = sorted(p for p in data_dir.iterdir() if p.is_file())
    if not files:
        raise DataError(f"no recording files in {data_dir}")
    chunks = recording_chunks(files[0])
    channels = next(chunks)
    chunks.close()
    if on_header is not None:
        on_header(channels)
    sequences = [parse_recording(p, channels) for p in files]
    return Dataset(sequences, channels)


def write_dataset(dataset: Dataset, out_dir) -> list[Path]:
    """Write one recording file per sequence into a directory."""
    out_dir = Path(out_dir)
    paths = []
    counts: dict[str, int] = {}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for seq in dataset.sequences:
            n = counts.get(seq.subject_id, 0)
            counts[seq.subject_id] = n + 1
            suffix = f"_{n}" if n else ""
            p = out_dir / f"subject_{seq.subject_id}{suffix}.tsv"
            write_recording(seq, dataset.channels, p)
            paths.append(p)
    except OSError as exc:
        raise DataError(f"cannot write recordings to {out_dir}: {exc.strerror}") from None
    return paths


def split_loso(dataset: Dataset, test_subject: str) -> tuple[Dataset, Dataset, Dataset]:
    """Leave-one-subject-out split: (train, validation, test).

    The validation subject is the cyclic successor of the test subject in
    sorted subject-id order, which makes cross-validation folds reproducible.
    """
    subjects = dataset.subjects()
    if len(subjects) < 3:
        raise DataError("leave-one-subject-out needs at least 3 subjects")
    if test_subject not in subjects:
        raise DataError(f"unknown subject: {test_subject!r}")
    val_subject = subjects[(subjects.index(test_subject) + 1) % len(subjects)]

    def pick(pred):
        return Dataset([s for s in dataset.sequences if pred(s.subject_id)], dataset.channels)

    train = pick(lambda s: s != test_subject and s != val_subject)
    validation = pick(lambda s: s == val_subject)
    test = pick(lambda s: s == test_subject)
    return train, validation, test

