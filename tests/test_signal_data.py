import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washseg.signal_data import (
    CSV_HEADER,
    SampleSeries,
    SeriesFormatError,
    extract_windows,
    load_csv,
    parse_corpus_filename,
    window_starts,
    write_csv,
)
from conftest import make_series


def write_rows(path, rows, header=CSV_HEADER):
    with open(path, "w") as f:
        f.write(header + "\n")
        for r in rows:
            f.write(",".join(str(v) for v in r) + "\n")


def valid_rows(n, start=0.0):
    return [
        [start + 0.02 * i, 0.1 * i, -0.2, 9.8, 0.01, 0.02, 0.03, i % 10]
        for i in range(n)
    ]


class TestLoadCsv:
    def test_minimal_valid_file(self, tmp_path):
        p = tmp_path / "loc0_p00_1.csv"
        write_rows(p, valid_rows(64))
        s = load_csv(p)
        assert len(s) == 64
        assert s.label[13] == 3

    def test_label_out_of_range_names_line(self, tmp_path):
        rows = valid_rows(10)
        rows[5][7] = 10  # line 7 = header + row index 5 + 1
        p = tmp_path / "bad.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 7"):
            load_csv(p)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = valid_rows(10)
        rows[4][0] = rows[3][0]
        p = tmp_path / "dup.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="increasing"):
            load_csv(p)

    def test_decreasing_timestamp_names_line(self, tmp_path):
        rows = valid_rows(10)
        rows[7][0] = rows[2][0]  # line 9
        p = tmp_path / "back.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 9: timestamp .* not strictly increasing"):
            load_csv(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        rows = valid_rows(5)
        rows[2] = rows[2][:6]
        p = tmp_path / "cols.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 4"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_rows(p, [])
        with pytest.raises(SeriesFormatError, match="empty"):
            load_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        write_rows(p, valid_rows(3), header="time,ax,ay,az,gx,gy,gz,label")
        with pytest.raises(SeriesFormatError, match="header"):
            load_csv(p)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("col", [0, 2, 6])
    def test_non_finite_field_names_file_and_line(self, tmp_path, field, col):
        rows = valid_rows(130)
        rows[100][col] = field  # line 102
        p = tmp_path / "nonfinite.csv"
        write_rows(p, rows)
        name = CSV_HEADER.split(",")[col]
        with pytest.raises(SeriesFormatError, match=rf"nonfinite\.csv: line 102: non-finite {name}"):
            load_csv(p)

    def test_round_trip_9_significant_digits(self, tmp_path, rng):
        s = make_series(rng.integers(0, 10, size=200), seed=3)
        p = tmp_path / "rt.csv"
        write_csv(s, p)
        s2 = load_csv(p)
        np.testing.assert_allclose(s2.accel, s.accel, rtol=1e-8)
        np.testing.assert_allclose(s2.gyro, s.gyro, rtol=1e-8)
        np.testing.assert_array_equal(s2.label, s.label)


def rounded(values):
    """What ``write_csv`` keeps of each value: 9 significant digits."""
    return np.vectorize(lambda v: float(f"{v:.9g}"), otypes=[float])(values)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written_series(draw):
    # timestamps distinct after rounding, so the reloaded file stays strictly increasing
    t = np.unique(rounded(draw(st.lists(finite, min_size=1, max_size=20))))
    n = t.size
    sensors = np.array(draw(st.lists(finite, min_size=6 * n, max_size=6 * n))).reshape(6, n)
    labels = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    return SampleSeries("p00", "loc0", 1, t, sensors[:3], sensors[3:], labels)


@given(written_series())
def test_write_csv_reloads_to_9_significant_digits(series):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.csv"
        write_csv(series, path)
        back = load_csv(path)
    np.testing.assert_array_equal(back.t, series.t)
    np.testing.assert_array_equal(back.accel, rounded(series.accel))
    np.testing.assert_array_equal(back.gyro, rounded(series.gyro))
    np.testing.assert_array_equal(back.label, series.label)


class TestExtractWindows:
    def test_stride1_count(self):
        s = make_series(np.zeros(128, dtype=int))
        assert len(extract_windows(s, 64, 1)) == 128 - 64 + 1

    def test_exact_fit_single_window(self):
        s = make_series(np.zeros(64, dtype=int))
        ws = extract_windows(s, 64, 64)
        assert [w.start_index for w in ws] == [0]

    def test_tail_window_appended(self):
        s = make_series(np.zeros(100, dtype=int))
        ws = extract_windows(s, 64, 64)
        assert [w.start_index for w in ws] == [0, 36]

    def test_too_long_window_rejected(self):
        s = make_series(np.zeros(32, dtype=int))
        with pytest.raises(ValueError):
            extract_windows(s, 64, 1)

    def test_every_sample_covered_when_stride_le_length(self, rng):
        # strides 1, 7 and 64 at lengths that end on a stride-aligned window
        # (64, 71, 128) and that need an end-aligned tail (100, 130), then random
        cases = [(n, stride) for stride in (1, 7, 64) for n in (64, 71, 100, 128, 130)]
        cases += [(int(rng.integers(64, 400)), int(rng.integers(1, 65))) for _ in range(20)]
        for n, stride in cases:
            s = make_series(np.zeros(n, dtype=int))
            starts = window_starts(n, 64, stride)
            assert starts.dtype.kind == "i"
            assert [w.start_index for w in extract_windows(s, 64, stride)] == starts.tolist()
            assert (np.diff(starts) > 0).all() and starts[-1] == n - 64, (n, stride)
            covered = np.zeros(n, dtype=bool)
            for start in starts:
                covered[start : start + 64] = True
            assert covered.all(), (n, stride)

    def test_augmentation_relation_for_64k_series(self):
        # stride-1 windows ~= 63x the disjoint-window count, up to boundary
        k = 5
        s = make_series(np.zeros(64 * k, dtype=int))
        n_stride1 = len(extract_windows(s, 64, 1))
        assert n_stride1 == 64 * k - 63

    def test_window_slices_match_source(self):
        s = make_series(np.arange(100) % 10)
        w = extract_windows(s, 64, 64)[1]
        np.testing.assert_array_equal(w.label_slice, s.label[36:100])
        np.testing.assert_array_equal(w.accel_slice, s.accel[:, 36:100])


def test_parse_corpus_filename():
    assert parse_corpus_filename("loc0_p07_3.csv") == ("loc0", "p07", 3)
    with pytest.raises(ValueError):
        parse_corpus_filename("nounderscores.csv")
