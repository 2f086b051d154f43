"""Labeled 6-axis IMU recordings: CSV ingestion and sliding windows.

CSV contract: UTF-8 without a byte-order mark (the first byte that is not
UTF-8 is an error naming its line), header exactly ``t,ax,ay,az,gx,gy,gz,label``,
one row per nominal 20 ms tick at 50 Hz. Fields are ASCII decimal numbers (no
``1_0``, no non-ASCII digits), whitespace around them is ignored, and they must
be finite; timestamps are seconds and strictly increasing; labels are integers
0..9 without a fraction (0 = background, 1..9 = the nine guideline gestures).
LF, CRLF and CR line ends are accepted. Empty lines are skipped but counted in
the line numbers errors name; a whitespace-only line is an error. Corpus files
are named ``<location>_<participant>_<procedure>.csv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

CSV_HEADER = "t,ax,ay,az,gx,gy,gz,label"
COLUMNS = CSV_HEADER.split(",")
_ROW = np.dtype([(name, np.float64) for name in COLUMNS[:7]] + [("label", np.int64)])
# lines to one structured row per non-empty line; ValueError when any line fails
_parse = partial(np.loadtxt, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
NUM_CLASSES = 10
DEFAULT_RATE_HZ = 50.0
DEFAULT_WINDOW = 64


class SeriesFormatError(ValueError):
    """Raised on a malformed recording file; message names the line."""


@dataclass(frozen=True)
class SampleSeries:
    """One labeled recording. Immutable after construction."""

    participant_id: str
    location_id: str
    procedure_id: int
    t: np.ndarray  # seconds, strictly increasing
    accel: np.ndarray  # (3, N)
    gyro: np.ndarray  # (3, N)
    label: np.ndarray  # (N,) ints in 0..9
    rate_hz: float = DEFAULT_RATE_HZ

    def __post_init__(self):
        n = self.t.shape[0]
        if n < 1:
            raise ValueError("series must contain at least one sample")
        if self.accel.shape != (3, n) or self.gyro.shape != (3, n):
            raise ValueError("accel/gyro must be shaped (3, N) matching t")
        if self.label.shape != (n,):
            raise ValueError("label length must match t")
        if self.label.min() < 0 or self.label.max() >= NUM_CLASSES:
            raise ValueError("labels must lie in 0..9")
        if not np.all(self.t[1:] > self.t[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        for arr in (self.t, self.accel, self.gyro, self.label):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class Window:
    """A fixed-length slice of a series; views into the parent arrays."""

    source: SampleSeries
    start_index: int
    length: int

    def __post_init__(self):
        if self.start_index < 0 or self.start_index + self.length > len(self.source):
            raise ValueError("window does not fit inside its series")

    @property
    def accel_slice(self) -> np.ndarray:
        return self.source.accel[:, self.start_index : self.start_index + self.length]

    @property
    def gyro_slice(self) -> np.ndarray:
        return self.source.gyro[:, self.start_index : self.start_index + self.length]

    @property
    def label_slice(self) -> np.ndarray:
        return self.source.label[self.start_index : self.start_index + self.length]


def load_csv(path, participant_id="", location_id="", procedure_id=0,
             rate_hz=DEFAULT_RATE_HZ) -> SampleSeries:
    """Parse one recording file in one vectorized pass and validate it; a line
    scan runs only to name the first bad line. Identity fields default to
    empty and can be filled by the caller (e.g. from the corpus filename)."""
    def error(lineno, message):
        return SeriesFormatError(f"{path}: line {lineno}: {message}")

    with open(path, "rb") as f:
        raw = f.read()
    if b"\r" in raw:  # every line end as LF; no UTF-8 sequence holds a CR or LF byte
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise error(line, f"not UTF-8: byte {raw[e.start]:#04x}") from None
    del raw  # not held through the parse
    header = lines.pop(0).strip()
    if header != CSV_HEADER:
        raise error(1, f"header must be exactly '{CSV_HEADER}', got '{header}'")
    if not any(lines):
        raise SeriesFormatError(f"{path}: empty file (no data rows)")
    try:
        rows = _parse(lines)
    except ValueError:
        raise error(*_first_bad_line(lines)) from None
    label = rows["label"].copy()
    data = np.column_stack([rows[name] for name in COLUMNS[:7]])
    t = data[:, 0]
    outside = np.flatnonzero((label < 0) | (label >= NUM_CLASSES))
    bad = np.argwhere(~np.isfinite(data))
    later = np.flatnonzero(t[1:] <= t[:-1]) + 1  # compared, not subtracted: no overflow
    if outside.size or bad.size or later.size:
        row_line = [n for n, line in enumerate(lines, start=2) if line]  # empty lines hold no row
        if outside.size:
            row = outside[0]
            raise error(row_line[row], f"label {label[row]} outside 0..9")
        if bad.size:
            row, col = bad[0]
            raise error(row_line[row], f"non-finite {COLUMNS[col]} value {data[row, col]}")
        raise error(row_line[later[0]], f"timestamp {t[later[0]]} not strictly increasing")
    return SampleSeries(participant_id, location_id, procedure_id, t=t, accel=data[:, 1:4].T,
                        gyro=data[:, 4:7].T, label=label, rate_hz=rate_hz)


def _first_bad_line(lines):
    """(line number, reason) of the first line that fails to parse on its own
    or holds a label outside 0..9."""
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        if line.isspace():
            return lineno, "whitespace-only line"
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            return lineno, f"expected {len(COLUMNS)} columns, got {len(fields)}"
        try:
            label = _parse([line])["label"][0]
        except ValueError:  # name the first field that fails alone in a row of zeros
            for col, value in enumerate(fields):
                try:
                    _parse([",".join(["0"] * col + [value] + ["0"] * (len(fields) - col - 1))])
                except ValueError:
                    kind = "non-integer" if COLUMNS[col] == "label" else "non-numeric"
                    return lineno, f"{kind} {COLUMNS[col]} value {value!r}"
        if not 0 <= label < NUM_CLASSES:
            return lineno, f"label {label} outside 0..9"


def write_csv(series: SampleSeries, path):
    """Write a series back out; numeric content survives to 9 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
        for i in range(len(series)):
            nums = [series.t[i], *series.accel[:, i], *series.gyro[:, i]]
            f.write(",".join(f"{v:.9g}" for v in nums))
            f.write(f",{series.label[i]}\n")


def window_starts(n, length, stride) -> np.ndarray:
    """Start indices of the windows over an ``n``-sample series: 0, stride,
    2*stride, ... while they fit, plus one end-aligned start when the last of
    them stops short of the end."""
    if length > n:
        raise ValueError(f"window length {length} exceeds series length {n}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = np.arange(0, n - length + 1, stride)
    if starts[-1] + length < n:
        starts = np.append(starts, n - length)
    return starts


def extract_windows(series: SampleSeries, length=DEFAULT_WINDOW, stride=1):
    """One ``Window`` per start of ``window_starts``."""
    return [Window(series, start, length)
            for start in window_starts(len(series), length, stride).tolist()]


def corpus_filename(series: SampleSeries) -> str:
    """The ``<location>_<participant>_<procedure>.csv`` name of a recording."""
    return f"{series.location_id}_{series.participant_id}_{series.procedure_id}.csv"


def parse_corpus_filename(name: str):
    """Split ``<location>_<participant>_<procedure>.csv`` into its parts."""
    stem = name[:-4] if name.endswith(".csv") else name
    parts = stem.rsplit("_", 2)
    if len(parts) != 3:
        raise ValueError(f"corpus filename '{name}' is not <location>_<participant>_<procedure>.csv")
    try:
        proc = int(parts[2])
    except ValueError:
        raise ValueError(f"corpus filename '{name}': procedure id '{parts[2]}' is not an integer") from None
    return parts[0], parts[1], proc


def load_corpus(directory):
    """Load every corpus CSV in a directory, sorted by filename."""
    names = sorted(name for name in os.listdir(directory) if name.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"no corpus CSV files found in {directory}")
    parts = [parse_corpus_filename(name) for name in names]  # every name checked before a read
    return [load_csv(os.path.join(directory, name), participant_id=part, location_id=loc,
                     procedure_id=proc) for name, (loc, part, proc) in zip(names, parts)]
