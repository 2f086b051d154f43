import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from washseg import synth
from washseg.model import windows_to_arrays
from washseg.signal_data import (
    COLUMNS,
    CSV_HEADER,
    RATE_HZ,
    SampleSeries,
    SeriesFormatError,
    WindowSet,
    corpus_filename,
    extract_windows,
    load_corpus,
    load_csv,
    parse_corpus_filename,
    window_starts,
    write_csv,
)
from conftest import make_series
from oracle import load_csv_loops


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

    def test_every_series_is_at_the_one_rate(self, tmp_path):
        p = tmp_path / "loc0_p00_1.csv"
        write_rows(p, valid_rows(64))
        series = load_csv(p)
        assert series.rate_hz == RATE_HZ == 50.0
        assert synth.generate_procedure(synth.GenSpec(), 0, 0, 1).rate_hz == RATE_HZ
        with pytest.raises(TypeError, match="rate_hz"):
            load_csv(p, rate_hz=100.0)
        with pytest.raises(TypeError, match="rate_hz"):
            SampleSeries("p00", "loc0", 1, t=series.t, accel=series.accel, gyro=series.gyro,
                         label=series.label, rate_hz=100.0)

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

    @pytest.mark.parametrize("col", range(1, 7))
    def test_sensor_value_beyond_float32_names_line_and_column(self, tmp_path, col):
        f32_max = float(np.finfo(np.float32).max)
        rows = valid_rows(12)
        rows[3][col] = f32_max  # the largest value float32 holds loads as it is
        rows[4][col] = -f32_max
        p = tmp_path / "edge.csv"
        write_rows(p, rows)
        loaded = load_csv(p)
        assert np.vstack([loaded.accel, loaded.gyro])[col - 1, 3:5].tolist() == [f32_max, -f32_max]
        rows[9][col] = "-3.5e38"  # line 11; float32 would hold it as -inf
        rows[10][col] = "1e300"
        write_rows(p, rows)
        name = CSV_HEADER.split(",")[col]
        message = rf"edge\.csv: line 11: {name} value -3\.5e\+38 beyond float32's finite range"
        with pytest.raises(SeriesFormatError, match=message):
            load_csv(p)

    def test_round_trip_9_significant_digits(self, tmp_path, rng):
        s = make_series(rng.integers(0, 10, size=200), seed=3)
        p = tmp_path / "rt.csv"
        write_csv(s, p)
        s2 = load_csv(p)
        np.testing.assert_allclose(s2.accel, s.accel, rtol=1e-8)
        np.testing.assert_allclose(s2.gyro, s.gyro, rtol=1e-8)
        np.testing.assert_array_equal(s2.label, s.label)

    @pytest.mark.parametrize("col", range(8))
    def test_non_numeric_field_names_column_and_value(self, tmp_path, col):
        rows = valid_rows(10)
        rows[5][col] = "x"  # line 7
        p = tmp_path / "bad.csv"
        write_rows(p, rows)
        kind = "non-integer" if col == 7 else "non-numeric"
        message = rf"bad\.csv: line 7: {kind} {COLUMNS[col]} value 'x'$"
        with pytest.raises(SeriesFormatError, match=message):
            load_csv(p)

    def test_first_bad_field_of_the_line_is_named(self, tmp_path):
        rows = valid_rows(10)
        rows[5][2], rows[5][6] = "x", "y"
        p = tmp_path / "two.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 7: non-numeric ay value 'x'$"):
            load_csv(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, newline):
        lines = [CSV_HEADER] + [",".join(map(str, r)) for r in valid_rows(10)]
        lines[7] = lines[7].replace("-0.2", "-0.\xff", 1)  # the ay field of line 8
        header = CSV_HEADER.replace("ay", "a\xff")
        for name, text, lineno in (("row.csv", lines, 8), ("head.csv", [header, *lines[1:]], 1)):
            p = tmp_path / name
            p.write_bytes(newline.join(text).encode("latin-1"))
            with pytest.raises(SeriesFormatError,
                               match=rf"{re.escape(name)}: line {lineno}: not UTF-8: byte 0xff$"):
                load_csv(p)

    def test_first_of_many_bad_lines_is_named(self, tmp_path):
        rows = valid_rows(3000)
        rows[2990][7], rows[1700][3], rows[1234][7] = "x", "y", 12
        p = tmp_path / "many.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match=r"many\.csv: line 1236: label 12 outside"):
            load_csv(p)
        rows[1234][7] = 1
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 1702: non-numeric az value 'y'$"):
            load_csv(p)

    def test_sensor_rows_are_c_contiguous(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_rows(p, valid_rows(50))
        s = load_csv(p)
        for name in ("t", "accel", "gyro", "label"):
            assert getattr(s, name).flags.c_contiguous, name
        np.testing.assert_array_equal(s.accel[0], 0.1 * np.arange(50))


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as f:  # line ends as given
        f.write(text)


def csv_text(rows, newline="\n"):
    return newline.join([CSV_HEADER] + [",".join(str(v) for v in r) for r in rows]) + newline


def assert_same_series(got, want):
    for name in ("t", "accel", "gyro", "label"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestCsvContract:
    """What the vectorized parse accepts, pinned against the per-field loop
    (``oracle.load_csv_loops``) wherever the two differ on purpose."""

    @pytest.mark.parametrize("col, value, loop_read", [(2, "1_0", 10.0), (5, "\u0661", 1.0),
                                                        (7, "\u0663", 3)])
    def test_digit_separators_and_non_ascii_digits_rejected(self, tmp_path, col, value, loop_read):
        rows = valid_rows(10)
        rows[5][col] = value  # line 7
        p = tmp_path / "narrow.csv"
        write_rows(p, rows)
        loop = load_csv_loops(p)  # float() and int() read both as numbers
        assert np.vstack([loop.t, loop.accel, loop.gyro, loop.label])[col, 5] == loop_read
        kind = "non-integer" if col == 7 else "non-numeric"
        message = f"line 7: {kind} {COLUMNS[col]} value '{value}'"
        with pytest.raises(SeriesFormatError, match=message):
            load_csv(p)

    def test_whitespace_only_line_rejected_naming_it(self, tmp_path):
        rows = [",".join(map(str, r)) for r in valid_rows(6)]
        p = tmp_path / "ws.csv"
        write_text(p, "\n".join([CSV_HEADER, *rows[:3], " \t", *rows[3:]]) + "\n")
        assert len(load_csv_loops(p)) == 6  # the loop skipped it
        with pytest.raises(SeriesFormatError, match=r"ws\.csv: line 5: whitespace-only line"):
            load_csv(p)

    def test_empty_line_counts_in_the_bad_line_number(self, tmp_path):
        # line 5 is empty and skipped; the row after it, line 6, fails to parse
        rows = valid_rows(6)
        rows[3][2] = "x"
        rows = [",".join(map(str, r)) for r in rows]
        p = tmp_path / "gap.csv"
        write_text(p, "\n".join([CSV_HEADER, *rows[:3], "", *rows[3:]]) + "\n")
        with pytest.raises(SeriesFormatError, match=r"gap\.csv: line 6: non-numeric ay value 'x'$"):
            load_csv(p)

    def test_fractional_label_rejected_as_before(self, tmp_path):
        rows = valid_rows(10)
        rows[5][7] = "3.0"
        p = tmp_path / "frac.csv"
        write_rows(p, rows)
        with pytest.raises(SeriesFormatError, match="line 7: non-numeric field"):
            load_csv_loops(p)
        with pytest.raises(SeriesFormatError, match="line 7: non-integer label value '3.0'"):
            load_csv(p)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path, newline):
        rows = valid_rows(20)
        write_text(tmp_path / "lf.csv", csv_text(rows))
        write_text(tmp_path / "other.csv", csv_text(rows, newline))
        assert_same_series(load_csv(tmp_path / "other.csv"), load_csv(tmp_path / "lf.csv"))
        assert_same_series(load_csv(tmp_path / "other.csv"), load_csv_loops(tmp_path / "other.csv"))

    def test_whitespace_around_fields_ignored(self, tmp_path):
        rows = [[f" {v}\t" for v in r] for r in valid_rows(12)]
        p = tmp_path / "pad.csv"
        write_text(p, csv_text(rows))
        write_text(tmp_path / "plain.csv", csv_text(valid_rows(12)))
        assert_same_series(load_csv(p), load_csv(tmp_path / "plain.csv"))

    @pytest.mark.parametrize("row, col, value, reason", [
        (4, 3, "inf", "non-finite az value inf"),
        (5, 0, "0.0", "timestamp 0.0 not strictly increasing"),
        (6, 7, 12, "label 12 outside 0..9"),
    ])
    def test_blank_lines_skipped_but_counted(self, tmp_path, row, col, value, reason):
        rows = valid_rows(10)
        rows[row][col] = value
        lines = [",".join(map(str, r)) for r in rows]
        p = tmp_path / "gaps.csv"
        write_text(p, "\n".join([CSV_HEADER, "", *lines[:2], "", "", *lines[2:]]) + "\n")
        lineno = row + 2 + 3  # the header, and three blank lines before the row
        for load in (load_csv, load_csv_loops):
            with pytest.raises(SeriesFormatError, match=rf"gaps\.csv: line {lineno}: {reason}"):
                load(p)

    def test_only_blank_lines_is_empty(self, tmp_path):
        p = tmp_path / "blank.csv"
        write_text(p, CSV_HEADER + "\n\n\r\n\n")
        with pytest.raises(SeriesFormatError, match=r"blank\.csv: empty file"):
            load_csv(p)

    def test_timestamps_far_apart_load_without_overflow(self, tmp_path):
        # RuntimeWarnings fail the tests: t[1] - t[0] overflows float64
        p = tmp_path / "far.csv"
        write_rows(p, [[-1.7e308, 0, 0, 0, 0, 0, 0, 1], [1.7e308, 0, 0, 0, 0, 0, 0, 2]])
        np.testing.assert_array_equal(load_csv(p).t, [-1.7e308, 1.7e308])

    def test_bit_identical_to_loop_on_corpus_and_requests(self, tmp_path):
        synth.write_corpus(synth.generate(synth.GenSpec(seed=42)), tmp_path)
        # the benchmark's scoring requests: procedure 6 + seed at fixed durations
        spec = synth.GenSpec(seed=42, duration_jitter=0.0, gesture_drop_prob=0.0,
                             background_range_s=(3.5, 3.5))
        synth.write_corpus([synth.generate_procedure(spec, part % spec.locations, part, 6 + seed)
                            for part in range(spec.participants) for seed in (1, 2)], tmp_path)
        paths = sorted(tmp_path.glob("*.csv"))
        assert len(paths) == 70
        for p in paths:
            assert_same_series(load_csv(p), load_csv_loops(p))


def rounded(values):
    """What ``write_csv`` keeps of each value: 9 significant digits."""
    return np.vectorize(lambda v: float(f"{v:.9g}"), otypes=[float])(values)


finite = st.floats(allow_nan=False, allow_infinity=False)
# sensor values load only within float32's finite range; 9 significant digits of
# a value in it stay in it
F32_MAX = float(np.finfo(np.float32).max)
sensor_values = st.floats(min_value=-F32_MAX, max_value=F32_MAX)


@st.composite
def written_series(draw):
    # timestamps distinct after rounding, so the reloaded file stays strictly increasing
    t = np.unique(rounded(draw(st.lists(finite, min_size=1, max_size=20))))
    n = t.size
    sensors = np.array(draw(st.lists(sensor_values, min_size=6 * n, max_size=6 * n))).reshape(6, n)
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


# field values both parsers treat alike, accepted or rejected
SHARED_VALUES = ["x", "", "1.2.3", "--1", "0x10", "1e", "nan", "inf", "-inf", "3.0", "10", "-1",
                 " 0.5 ", "+7", "1e400"]
# values float() and int() read as numbers that the contract rejects
NARROWED_VALUES = ["1_0", "\u0661", "\u0663.5"]
EDITS = ["field", "narrowed", "blank", "whitespace", "short", "long", "repeat", "decrease", "huge"]


def apply_edit(lines, kind, at, col, value, narrowed):
    """Apply one edit to data line ``at`` of one copy of a file. ``narrowed``
    is True for the copy ``load_csv`` reads; the loop's copy gets a field both
    reject in place of each narrowed input, so both copies fail on one line."""
    if kind == "blank":
        lines.insert(at % (len(lines) + 1), "")
        return
    if kind == "whitespace":
        lines.insert(at % (len(lines) + 1), " \t" if narrowed else "x")
        return
    i = at % len(lines)
    fields = lines[i].split(",")
    if kind in ("field", "narrowed"):
        fields[col % len(fields)] = value if kind == "field" or narrowed else "x"
    elif kind == "short":
        fields.pop()
    elif kind == "long":
        fields.append("0")
    elif kind == "repeat" and i > 0:
        fields[0] = lines[i - 1].split(",")[0]
    elif kind == "decrease":
        fields[0] = "-1e300"
    elif kind == "huge":  # a sensor value beyond float32's finite range
        fields[min(1 + col % 6, len(fields) - 1)] = "3.5e38" if at % 2 else "-1e39"
    lines[i] = ",".join(fields)


def outcome(load, path):
    """The loaded series, or what the error names: a line number or an empty file."""
    try:
        return load(path)
    except SeriesFormatError as e:
        named = re.match(rf"{re.escape(str(path))}: (line \d+|empty file)", str(e))
        assert named, str(e)
        return named.group(1)


edits = st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6), st.integers(0, 7),
                           st.sampled_from(SHARED_VALUES), st.sampled_from(NARROWED_VALUES)),
                 max_size=4)


TWO_ROWS = SampleSeries("p00", "loc0", 1, np.array([0.0, 0.02]), np.zeros((3, 2)),
                        np.zeros((3, 2)), np.array([0, 1]))


@given(written_series(), edits, st.sampled_from(["\n", "\r\n", "\r"]))
@example(TWO_ROWS, [("field", 1, 1, "3.4e38", "1_0")], "\n")  # within float32: loads
@example(TWO_ROWS, [("huge", 1, 5, "3.0", "1_0")], "\n")  # gz 3.5e38 on line 3
def test_edited_files_load_as_the_loop_reads_them(series, edits, newline):
    with tempfile.TemporaryDirectory() as d:
        written = Path(d) / "written.csv"
        write_csv(series, written)
        rows = written.read_text(encoding="utf-8").split("\n")[1:-1]
        copies = {}
        for narrowed in (True, False):
            lines = list(rows)
            for kind, at, col, value, narrow_value in edits:
                apply_edit(lines, kind, at, col, narrow_value if kind == "narrowed" else value,
                           narrowed)
            copies[narrowed] = Path(d) / f"{narrowed}.csv"
            write_text(copies[narrowed], newline.join([CSV_HEADER, *lines]) + newline)
        got, want = outcome(load_csv, copies[True]), outcome(load_csv_loops, copies[False])
    if isinstance(want, SampleSeries):
        assert isinstance(got, SampleSeries), got
        assert_same_series(got, want)
    else:
        assert got == want


tokens = st.sampled_from(["0", "1.5", "-2e-3", "7", "3", "x", "", " ", "nan", "1_0", "\u0661",
                          "3.0", "+4", "\t9 ", "\x00", "\x0c"])


@given(st.lists(st.lists(tokens, min_size=7, max_size=9).map(",".join), max_size=6),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_any_body_loads_as_the_loop_reads_it_or_names_a_line(lines, newline):
    """load_csv never accepts what the loop rejects, reads what it accepts bit
    for bit, and rejects everything else with a SeriesFormatError."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "any.csv"
        write_text(p, newline.join([CSV_HEADER, *lines]) + newline)
        got = outcome(load_csv, p)
        if isinstance(got, SampleSeries):
            assert_same_series(got, load_csv_loops(p))


class TestExtractWindows:
    def test_stride1_count(self):
        s = make_series(np.zeros(128, dtype=int))
        assert len(extract_windows(s, 64, 1)) == 128 - 64 + 1

    def test_exact_fit_single_window(self):
        s = make_series(np.zeros(64, dtype=int))
        ws = extract_windows(s, 64, 64)
        assert (ws.series, ws.series_id.tolist(), ws.start.tolist()) == ((s,), [0], [0])

    def test_tail_window_appended(self):
        s = make_series(np.zeros(100, dtype=int))
        ws = extract_windows(s, 64, 64)
        assert ws.start.tolist() == [0, 36] and ws.series_id.tolist() == [0, 0]

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
            assert extract_windows(s, 64, stride).start.tolist() == starts.tolist()
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
        accel, gyro, labels = windows_to_arrays(extract_windows(s, 64, 64))
        second = np.array([1])
        np.testing.assert_array_equal(labels[1], s.label[36:100])
        np.testing.assert_array_equal(accel[second][0], s.accel[:, 36:100].astype(np.float32))
        np.testing.assert_array_equal(gyro[second][0], s.gyro[:, 36:100].astype(np.float32))

    def test_window_set_iterates_and_rejects_bad_windows(self):
        # iteration yields each window's series and start, in order
        s, t = make_series(np.zeros(100, dtype=int)), make_series(np.zeros(70, dtype=int))
        ws = WindowSet((s, t), np.array([0, 0, 1]), np.array([0, 36, 6]), 64)
        assert len(ws) == 3
        assert [(w.source, w.start_index) for w in ws] == [(s, 0), (s, 36), (t, 6)]
        with pytest.raises(ValueError, match="^window does not fit inside its series$"):
            WindowSet((s, t), np.array([0, 1]), np.array([0, 7]), 64)
        with pytest.raises(ValueError, match="^series ids must be non-decreasing"):
            WindowSet((s, t), np.array([1, 0]), np.array([0, 0]), 64)
        with pytest.raises(ValueError, match="^series ids must be non-decreasing"):
            WindowSet((s,), np.array([0, 1]), np.array([0, 0]), 64)


def test_parse_corpus_filename():
    assert parse_corpus_filename("loc0_p07_3.csv") == ("loc0", "p07", 3)
    series = make_series([0, 1], participant="p07", location="loc0", procedure=3)
    assert corpus_filename(series) == "loc0_p07_3.csv"
    with pytest.raises(ValueError):
        parse_corpus_filename("nounderscores.csv")
    with pytest.raises(ValueError, match=re.escape(
            "corpus filename 'loc0_p07_x.csv': procedure id 'x' is not an integer")):
        parse_corpus_filename("loc0_p07_x.csv")


def test_load_corpus_names_a_directory_without_csv(tmp_path):
    (tmp_path / "notes.txt").write_text("not a recording\n")
    with pytest.raises(FileNotFoundError, match=re.escape(f"no corpus CSV files found in {tmp_path}")):
        load_corpus(tmp_path)


def _series_arrays(n=4):
    return dict(t=np.arange(n) / RATE_HZ, accel=np.zeros((3, n)), gyro=np.zeros((3, n)),
                label=np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("edit,message", [
    (dict(t=np.zeros(0), accel=np.zeros((3, 0)), gyro=np.zeros((3, 0)),
          label=np.zeros(0, dtype=np.int64)), "series must contain at least one sample"),
    (dict(accel=np.zeros((4, 4))), r"accel/gyro must be shaped \(3, N\) matching t"),
    (dict(gyro=np.zeros((3, 5))), r"accel/gyro must be shaped \(3, N\) matching t"),
    (dict(label=np.zeros(3, dtype=np.int64)), "label length must match t"),
    (dict(label=np.array([0, 1, 10, 0])), "labels must lie in 0..9"),
    (dict(label=np.array([0, -1, 0, 0])), "labels must lie in 0..9"),
    (dict(t=np.array([0.0, 0.02, 0.02, 0.06])), "timestamps must be strictly increasing"),
], ids=["empty", "accel", "gyro", "label-length", "label-high", "label-low", "timestamps"])
def test_sample_series_rejects_bad_arrays(edit, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SampleSeries("p00", "loc0", 1, **{**_series_arrays(), **edit})
