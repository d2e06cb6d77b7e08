import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidhare import (
    ActivityLabel,
    ChannelSpec,
    DataError,
    Dataset,
    EmConfig,
    LabeledSequence,
    channel,
    fit_activity_models,
    fit_em,
    full_sensor_channels,
    load_dataset,
    parse_recording,
    split_loso,
    write_recording,
)
from rapidhare import data
from rapidhare.data import channels_from_names

from conftest import parse_recording_oracle

TWO_CHANNELS = [channel("acc_rt_x", "accel"), channel("emg_r", "emg")]


def header_channels(path):
    """The first item of ``recording_chunks``: the channel specs its header names."""
    return next(data.recording_chunks(path))


def make_recording(path, rows, subject="01", channels=TWO_CHANNELS, rate=None, header=None):
    lines = [f"#subject {subject}"]
    if rate is not None:
        lines.append(f"#rate {rate}")
    if header is None:
        header = "\t".join([c.name for c in channels] + ["act"])
    lines.append(header)
    lines.extend("\t".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def test_parse_maps_labels(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[0, 10, 1], [5, 10, 1], [9, 10, 8]])
    seq = parse_recording(p, TWO_CHANNELS)
    assert seq.n_frames == 3
    assert [ActivityLabel(v) for v in seq.labels] == [
        ActivityLabel.WALKING,
        ActivityLabel.WALKING,
        ActivityLabel.STANDING,
    ]
    assert seq.subject_id == "01"


def test_accel_scaling_endpoints(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[32767, 0, 1], [-32768, 0, 1]])
    seq = parse_recording(p, TWO_CHANNELS)
    assert seq.frames[0, 0] == 1.0
    assert seq.frames[1, 0] == -1.0


def test_emg_scaling_endpoints_and_midpoint(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[0, 0, 1], [0, 255, 1], [0, 128, 1]])
    seq = parse_recording(p, TWO_CHANNELS)
    assert seq.frames[0, 1] == -1.0
    assert seq.frames[1, 1] == 1.0
    assert seq.frames[2, 1] == pytest.approx(2 * 128 / 255 - 1)


def test_parse_rate_metadata(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[0, 0, 1]], rate=60.0)
    assert parse_recording(p, TWO_CHANNELS).sample_rate_hz == 60.0
    p2 = make_recording(tmp_path / "r2.tsv", [[0, 0, 1]])
    assert parse_recording(p2, TWO_CHANNELS).sample_rate_hz == 56.35


@pytest.mark.parametrize("rate", ["nan", "inf", "-5", "0"])
def test_parse_rejects_a_rate_that_is_not_finite_and_positive(tmp_path, rate):
    p = make_recording(tmp_path / "r.tsv", [[0, 0, 1]], rate=rate)
    with pytest.raises(DataError) as err:
        parse_recording(p, TWO_CHANNELS)
    assert str(err.value) == f"{p}:2: bad sample rate '{rate}'"


@pytest.mark.parametrize(
    "rows,header,message",
    [
        ([[0, 0, 1]], "acc_rt_x\temg_r\tnotact", "act"),
        ([[0, 0, 1]], "wrong\temg_r\tact", "header columns"),
        ([[0, 0]], None, ":3: expected 3 columns"),
        ([[0, 0, 9]], None, ":3: unknown label id 9"),
        ([[0, 999, 1]], None, ":3: value 999 outside"),
        ([[0, "x", 1]], None, ":3: non-integer"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, rows, header, message):
    p = make_recording(tmp_path / "bad.tsv", rows, header=header)
    with pytest.raises(DataError, match=message):
        parse_recording(p, TWO_CHANNELS)


def test_parse_error_line_number_past_first_row(tmp_path):
    rows = [[0, 0, 1], [0, 0, 1], [0, 0, 7], [-40000, 0, 1]]
    p = make_recording(tmp_path / "bad.tsv", rows)
    with pytest.raises(DataError, match=":6: value -40000"):
        parse_recording(p, TWO_CHANNELS)


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 0, 1], [0, 0, 99999999999999999999]], ":4: unknown label id 99999999999999999999"),
        ([[0, 0, -99999999999999999999]], ":3: unknown label id -99999999999999999999"),
        (
            [[0, 0, 1], [99999999999999999999, 0, 1]],
            ":4: value 99999999999999999999 outside the raw range of channel 'acc_rt_x'",
        ),
        (
            [[0, -(2**63) - 1, 1]],
            ":3: value -9223372036854775809 outside the raw range of channel 'emg_r'",
        ),
    ],
)
def test_parse_values_beyond_int64_name_the_line(tmp_path, rows, message):
    p = make_recording(tmp_path / "big.tsv", rows)
    with pytest.raises(DataError, match=message):
        parse_recording(p, TWO_CHANNELS)


@pytest.mark.parametrize(
    "text,line",
    [
        (b"#subject 01\nacc_rt_x\temg_r\tact\n0\t0\t1\n0\t0\xe9\t1\n", 4),
        (b"#subject 01\r\nacc_rt_x\temg_r\tact\r\n0\t0\t1\r\n\xff\n", 4),
        (b"#subject 01\racc_rt_x\temg_r\tact\r0\t0\t1\r\x80", 4),
        (b"#subject 0\xc3\xa91\nacc_rt_x\temg_r\tact\n0\t0\t1\n", 1),
        (b"#subject 01\nacc_rt_x\temg_r\t\xe4ct\n0\t0\t1\n", 2),
    ],
)
def test_non_ascii_byte_names_the_line(tmp_path, text, line):
    p = tmp_path / "r.tsv"
    p.write_bytes(text)
    with pytest.raises(DataError, match=f"r.tsv:{line}: non-ASCII byte$"):
        parse_recording(p, TWO_CHANNELS)
    if line <= 2:  # within the lines read before the header's channels are yielded
        with pytest.raises(DataError, match=f"r.tsv:{line}: non-ASCII byte$"):
            header_channels(p)


def test_header_channels_follow_the_rules_of_the_lines_before_them(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("#subject 01\n\nacc_rt_x\temg_r\tact\n0\t0\t1\n")
    with pytest.raises(DataError, match="r.tsv:2: blank line"):
        header_channels(p)
    p.write_text("#subject 01\r\n#rate fast\r\nacc_rt_x\temg_r\tact\r\n0\t0\t1\r\n")
    with pytest.raises(DataError, match="r.tsv:2: bad sample rate 'fast'"):
        header_channels(p)
    p.write_text("#subject 01\racc_rt_x\temg_r\tact\r0\t0\t1\r")
    assert header_channels(p) == TWO_CHANNELS


def test_well_formed_recording_is_parsed_without_the_line_scan(tmp_path, monkeypatch):
    """Padded and signed fields are well formed: the bulk parse takes them, the scan never runs."""

    def no_scan(*args):
        raise AssertionError("the line scan ran on a well-formed recording")

    monkeypatch.setattr(data, "_scan_rows", no_scan)
    rows = [["+5", " 7 ", "1"], ["\x0b-3\x0c", "0007", "+8"]]
    seq = parse_recording(make_recording(tmp_path / "r.tsv", rows), TWO_CHANNELS)
    assert seq.labels.tolist() == [1, 8]
    expected = parse_recording_oracle(tmp_path / "r.tsv", TWO_CHANNELS)
    assert np.array_equal(seq.frames, expected.frames)


# One corruption at most per generated recording; "field" replaces one field
# with any short string over an alphabet that holds every rule of the grammar.
_CORRUPTIONS = (
    None, "crlf", "cr", "blank", "comment", "wide", "narrow", "field", "plus", "pad",
    "underscore", "huge", "non_ascii", "range", "label",
)
_FIELD_ALPHABET = " \t\v\f\x1c\x1f+-_.e0579#"


@st.composite
def _recordings(draw):
    """A recording as bytes with its channel spec, valid before its corruption."""
    kinds = draw(st.lists(st.sampled_from(["acc", "gyro", "emg"]), min_size=1, max_size=3))
    channels = channels_from_names([f"{kind}_{i}" for i, kind in enumerate(kinds)])
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(c.raw_min, c.raw_max) for c in channels], st.integers(1, 8)),
            min_size=1,
            max_size=6,
        )
    )
    fields = [[str(v) for v in row] for row in rows]
    rate = draw(st.sampled_from([None, "60.5", "nan", "inf", "0", "-5", "1e400"]))
    head = ["#subject 01"] + ([] if rate is None else [f"#rate {rate}"])
    head.append("\t".join([c.name for c in channels] + ["act"]))
    r = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, len(channels)))
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    if corruption == "field":
        fields[r][col] = draw(st.text(_FIELD_ALPHABET, max_size=4))
    elif corruption == "plus":
        fields[r][col] = "+" + fields[r][col]
    elif corruption == "pad":  # int() reads only the first three; np.loadtxt all seven
        pad = draw(st.sampled_from(" \v\f\x1c\x1d\x1e\x1f"))
        fields[r][col] = pad + fields[r][col] + draw(st.sampled_from(["", pad]))
    elif corruption == "underscore":
        fields[r][col] = fields[r][col] + "_0"
    elif corruption == "huge":
        fields[r][col] = draw(st.sampled_from(["", "-", "+"])) + "9" * draw(st.integers(19, 25))
    elif corruption == "range":
        c = channels[col % len(channels)]
        fields[r][col % len(channels)] = str(draw(st.sampled_from([c.raw_min - 1, c.raw_max + 1])))
    elif corruption == "label":
        fields[r][-1] = draw(st.sampled_from(["0", "9", "-1"]))
    elif corruption == "wide":
        fields[r].append("0")
    elif corruption == "narrow":
        fields[r].pop()
    lines = head + ["\t".join(row) for row in fields]
    at = draw(st.integers(1, len(lines)))
    if corruption == "blank":
        lines.insert(at, "")
    elif corruption == "comment":
        lines.insert(max(at, len(head)), "#note after the header")
    elif corruption == "cr":  # a lone carriage return ends a line
        j = draw(st.integers(0, len(lines[at - 1])))
        lines[at - 1] = lines[at - 1][:j] + "\r" + lines[at - 1][j:]
    text = ("\r\n" if corruption == "crlf" else "\n").join(lines) + "\n"
    raw = text.encode("ascii")
    if corruption == "non_ascii":
        i = draw(st.integers(0, len(raw)))
        raw = raw[:i] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[i:]
    return channels, raw


@settings(max_examples=300)
@given(recording=_recordings())
def test_parse_matches_line_by_line_oracle(tmp_path_factory, recording):
    """Bit-identical sequences from both parsers, or DataError with the same message from both."""
    channels, raw = recording
    p = tmp_path_factory.getbasetemp() / "property.tsv"
    p.write_bytes(raw)
    try:
        expected = parse_recording_oracle(p, channels)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            parse_recording(p, channels)
        assert str(err.value) == str(exc)
        return
    seq = parse_recording(p, channels)
    assert (seq.subject_id, seq.sample_rate_hz) == (expected.subject_id, expected.sample_rate_hz)
    assert seq.frames.dtype == expected.frames.dtype and seq.labels.dtype == expected.labels.dtype
    assert np.array_equal(seq.frames.view(np.int64), expected.frames.view(np.int64))
    assert np.array_equal(seq.labels, expected.labels)


def test_parse_keeps_only_the_frames_and_labels_and_peaks_near_two_tables(tmp_path, rng):
    """The labels own their memory, and the parse's traced peak stays below 2.75 frame tables.

    The bound is set from a measurement: 2.46 frame tables for these 2000
    frames of 38 channels, where parsing with a view of the label column, the
    line list kept to the end and one encoded copy of all data lines peaked
    at 4.24.
    """
    channels = full_sensor_channels()
    seq = LabeledSequence("01", rng.uniform(-1, 1, (2000, len(channels))), rng.integers(1, 9, 2000))
    path = tmp_path / "r.tsv"
    write_recording(seq, channels, path)
    parse_recording(path, channels)  # the first call's one-off allocations are not the parse's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_recording(path, channels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert parsed.labels.base is None
    assert peak <= 2.75 * parsed.frames.nbytes


def test_parse_requires_subject(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("acc_rt_x\temg_r\tact\n0\t0\t1\n", encoding="ascii")
    with pytest.raises(DataError, match="subject"):
        parse_recording(p, TWO_CHANNELS)


def test_parse_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such recording"):
        parse_recording(tmp_path / "absent.tsv", TWO_CHANNELS)


def test_recording_chunks_yields_the_header_channels_first(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[0, 10, 1]])
    assert header_channels(p) == TWO_CHANNELS
    specs, chunk = data.recording_chunks(p, TWO_CHANNELS)  # given specs come back first
    assert specs is TWO_CHANNELS and chunk.labels.tolist() == [1]
    p.write_text("#subject 01\nacc_rt_x\temg_r\n")
    with pytest.raises(DataError, match="r.tsv:2: header must end with an 'act' column"):
        header_channels(p)
    p.write_text("#subject 01\n")
    with pytest.raises(DataError, match="missing header line"):
        header_channels(p)
    with pytest.raises(DataError, match="no such recording file"):
        header_channels(tmp_path / "absent.tsv")


def test_header_channels_are_yielded_before_any_data_line_is_checked(tmp_path):
    """A non-ASCII byte after the header is the chunks' error, not the header's."""
    p = tmp_path / "r.tsv"
    p.write_bytes(b"#subject 01\nacc_rt_x\temg_r\tact\n0\t0\t1\n0\t0\xe9\t1\n")
    assert header_channels(p) == TWO_CHANNELS
    with pytest.raises(DataError, match="r.tsv:4: non-ASCII byte$"):
        parse_recording(p, TWO_CHANNELS)


def test_round_trip_is_bit_exact(tmp_path, rng):
    channels = full_sensor_channels()
    raw = np.column_stack(
        [rng.integers(c.raw_min, c.raw_max + 1, size=50) for c in channels]
        + [rng.integers(1, 9, size=50)]
    )
    src = make_recording(tmp_path / "orig.tsv", raw.tolist(), channels=channels)
    seq = parse_recording(src, channels)
    assert np.abs(seq.frames).max() <= 1.0
    out = tmp_path / "copy.tsv"
    write_recording(seq, channels, out)

    def data_rows(path):
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        return lines[1:]  # drop the header

    assert data_rows(src) == data_rows(out)


def test_write_recording_text_is_the_tab_joined_integers(tmp_path, rng):
    channels = full_sensor_channels()
    raw = np.column_stack([rng.integers(c.raw_min, c.raw_max + 1, size=40) for c in channels])
    labels = rng.integers(1, 9, size=40)
    mins = np.array([c.raw_min for c in channels], dtype=np.float64)
    spans = np.array([c.raw_max - c.raw_min for c in channels], dtype=np.float64)
    seq = LabeledSequence("07", -1.0 + 2.0 * (raw - mins) / spans, labels, 50.0)
    out = tmp_path / "w.tsv"
    write_recording(seq, channels, out)
    lines = ["#subject 07", "#rate 50.0", "\t".join([c.name for c in channels] + ["act"])]
    lines.extend("\t".join(map(str, row)) for row in np.column_stack([raw, labels]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_write_rejects_out_of_range_values(tmp_path):
    seq = LabeledSequence("01", np.array([[3.0, 0.0]]), np.array([1]))
    with pytest.raises(DataError, match="representable"):
        write_recording(seq, TWO_CHANNELS, tmp_path / "bad.tsv")


def test_write_out_of_range_error_names_file_subject_and_channel(tmp_path):
    seq = LabeledSequence("01", np.array([[0.0, 0.5], [0.0, -3.0]]), np.array([1, 1]))
    with pytest.raises(DataError) as err:
        write_recording(seq, TWO_CHANNELS, tmp_path / "bad.tsv")
    assert str(err.value) == (
        f"{tmp_path / 'bad.tsv'}: subject 01, channel 'emg_r': "
        "scaled values fall outside the representable raw range"
    )
    assert not (tmp_path / "bad.tsv").exists()


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -5.0])
def test_sequence_rejects_a_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(DataError, match="sample rate must be finite and positive"):
        LabeledSequence("01", np.zeros((1, 2)), np.array([1]), rate)


def _dataset(subjects, n=4):
    rng = np.random.default_rng(0)
    seqs = [
        LabeledSequence(s, rng.uniform(-1, 1, size=(n, 2)), np.ones(n, dtype=int))
        for s in subjects
    ]
    return Dataset(seqs, TWO_CHANNELS)


def test_split_loso_cyclic_successor():
    ds = _dataset(["01", "02", "03"])
    train, val, test = split_loso(ds, "01")
    assert test.subjects() == ["01"]
    assert val.subjects() == ["02"]
    assert train.subjects() == ["03"]


def test_split_loso_wraps_around():
    ds = _dataset(["01", "02", "03"])
    train, val, test = split_loso(ds, "03")
    assert val.subjects() == ["01"]
    assert train.subjects() == ["02"]


def test_split_loso_eighteen_subjects():
    subjects = [f"{i:02d}" for i in range(1, 19)]
    train, val, test = split_loso(_dataset(subjects), "07")
    assert test.subjects() == ["07"]
    assert val.subjects() == ["08"]
    assert len(train.subjects()) == 16


def test_split_loso_partitions_dataset():
    ds = _dataset(["01", "02", "03", "04"])
    train, val, test = split_loso(ds, "02")
    parts = train.subjects() + val.subjects() + test.subjects()
    assert sorted(parts) == ds.subjects()
    assert len(set(parts)) == len(parts)


def test_split_loso_errors():
    with pytest.raises(DataError, match="unknown subject"):
        split_loso(_dataset(["01", "02", "03"]), "99")
    with pytest.raises(DataError, match="at least 3"):
        split_loso(_dataset(["01", "02"]), "01")


def test_dataset_rejects_channel_mismatch():
    seq = LabeledSequence("01", np.zeros((2, 3)), np.ones(2, dtype=int))
    with pytest.raises(DataError, match="channels"):
        Dataset([seq], TWO_CHANNELS)


def test_sequence_validation():
    with pytest.raises(DataError):
        LabeledSequence("01", np.zeros((0, 2)), np.array([], dtype=int))
    with pytest.raises(DataError):
        LabeledSequence("01", np.zeros((2, 2)), np.array([1]))
    with pytest.raises(DataError):
        LabeledSequence("01", np.array([[np.nan, 0.0]]), np.array([1]))
    with pytest.raises(DataError):
        LabeledSequence("01", np.zeros((1, 2)), np.array([9]))


def test_channels_from_names():
    chans = channels_from_names(["acc_rt_x", "gyro_lf_y", "emg_r"])
    assert [c.kind for c in chans] == ["accel", "gyro", "emg"]
    with pytest.raises(DataError, match="infer"):
        channels_from_names(["mystery"])


def test_load_dataset_round_trip(tmp_path, rng):
    for subject in ("01", "02"):
        rows = np.column_stack(
            [
                rng.integers(-100, 100, size=5),
                rng.integers(0, 255, size=5),
                rng.integers(1, 9, size=5),
            ]
        )
        make_recording(tmp_path / f"s{subject}.tsv", rows.tolist(), subject=subject)
    ds = load_dataset(tmp_path)
    assert ds.subjects() == ["01", "02"]
    assert [c.name for c in ds.channels] == ["acc_rt_x", "emg_r"]


def test_fit_activity_models_concatenates_each_activity_across_sequences():
    """Each mixture is fit_em on its activity's frames of every sequence, in sequence order, bit for bit."""
    rng = np.random.default_rng(4)
    labels = rng.permutation(np.arange(48) % 8 + 1)
    seq = LabeledSequence("01", rng.normal(size=(48, 2)), labels)
    cfg = EmConfig(seed=3, max_iters=20)
    model_set, final_ll = fit_activity_models([seq, seq], {label: 2 for label in ActivityLabel}, cfg)
    for label in ActivityLabel:
        frames = seq.frames[seq.labels == label]
        want, want_ll = fit_em(np.concatenate([frames, frames]), 2, replace(cfg, seed=3 + int(label)))
        got = model_set.models[label]
        for field in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert final_ll[label] == want_ll


def test_channel_spec_validation():
    with pytest.raises(DataError, match="kind"):
        ChannelSpec("x", "sonar", 0, 1)
    with pytest.raises(DataError, match="degenerate"):
        ChannelSpec("x", "emg", 5, 5)
