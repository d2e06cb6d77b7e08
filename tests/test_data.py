import numpy as np
import pytest

from rapidhare import (
    ActivityLabel,
    ChannelSpec,
    DataError,
    Dataset,
    LabeledSequence,
    channel,
    full_sensor_channels,
    load_dataset,
    parse_recording,
    read_header,
    split_loso,
    write_recording,
)
from rapidhare.data import channels_from_names, frames_by_label

TWO_CHANNELS = [channel("acc_rt_x", "accel"), channel("emg_r", "emg")]


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


def test_parse_requires_subject(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("acc_rt_x\temg_r\tact\n0\t0\t1\n", encoding="ascii")
    with pytest.raises(DataError, match="subject"):
        parse_recording(p, TWO_CHANNELS)


def test_parse_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such recording"):
        parse_recording(tmp_path / "absent.tsv", TWO_CHANNELS)


def test_read_header(tmp_path):
    p = make_recording(tmp_path / "r.tsv", [[0, 10, 1]])
    assert read_header(p) == TWO_CHANNELS
    p.write_text("#subject 01\nacc_rt_x\temg_r\n")
    with pytest.raises(DataError, match="r.tsv:2: header must end with an 'act' column"):
        read_header(p)
    p.write_text("#subject 01\n")
    with pytest.raises(DataError, match="missing header line"):
        read_header(p)
    with pytest.raises(DataError, match="no such recording file"):
        read_header(tmp_path / "absent.tsv")


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


def test_write_rejects_out_of_range_values(tmp_path):
    seq = LabeledSequence("01", np.array([[3.0, 0.0]]), np.array([1]))
    with pytest.raises(DataError, match="representable"):
        write_recording(seq, TWO_CHANNELS, tmp_path / "bad.tsv")


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


def test_frames_by_label_concatenates():
    frames = np.arange(12, dtype=float).reshape(6, 2)
    labels = np.array([1, 2, 1, 2, 1, 8])
    seq = LabeledSequence("01", frames, labels)
    grouped = frames_by_label([seq, seq])
    assert grouped[ActivityLabel.WALKING].shape == (6, 2)
    assert grouped[ActivityLabel.STANDING].shape == (2, 2)
    assert ActivityLabel.SITTING not in grouped


def test_channel_spec_validation():
    with pytest.raises(DataError, match="kind"):
        ChannelSpec("x", "sonar", 0, 1)
    with pytest.raises(DataError, match="degenerate"):
        ChannelSpec("x", "emg", 5, 5)
