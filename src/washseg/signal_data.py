"""Labeled 6-axis IMU recordings: CSV ingestion and sliding windows.

CSV contract: UTF-8, header exactly ``t,ax,ay,az,gx,gy,gz,label``, one row
per nominal 20 ms tick at 50 Hz. Numeric fields must be finite; timestamps
are decimal seconds and must be strictly increasing; labels are integers
0..9 (0 = background, 1..9 = the nine guideline gestures). Corpus files are
named ``<location>_<participant>_<procedure>.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CSV_HEADER = "t,ax,ay,az,gx,gy,gz,label"
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
        if n > 1 and not np.all(np.diff(self.t) > 0):
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
    """Parse one recording file, validating every row.

    Identity fields default to empty and can be filled by the caller
    (e.g. from the ``<location>_<participant>_<procedure>.csv`` filename).
    """
    def error(lineno, message):
        return SeriesFormatError(f"{path}: line {lineno}: {message}")

    rows, labels, linenos = [], [], []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise error(1, f"header must be exactly '{CSV_HEADER}', got '{header}'")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 8:
                raise error(lineno, f"expected 8 columns, got {len(fields)}")
            try:
                vals = [float(v) for v in fields[:7]]
                lab = int(fields[7])
            except ValueError:
                raise error(lineno, "non-numeric field") from None
            if not 0 <= lab < NUM_CLASSES:
                raise error(lineno, f"label {lab} outside 0..9")
            rows.append(vals)
            labels.append(lab)
            linenos.append(lineno)
    if not rows:
        raise SeriesFormatError(f"{path}: empty file (no data rows)")
    data = np.array(rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        name = CSV_HEADER.split(",")[col]
        raise error(linenos[row], f"non-finite {name} value {data[row, col]}")
    later = np.flatnonzero(np.diff(data[:, 0]) <= 0)
    if later.size:
        row = later[0] + 1
        raise error(linenos[row], f"timestamp {data[row, 0]} not strictly increasing")
    return SampleSeries(
        participant_id=participant_id,
        location_id=location_id,
        procedure_id=procedure_id,
        t=data[:, 0],
        accel=data[:, 1:4].T,
        gyro=data[:, 4:7].T,
        label=np.array(labels, dtype=np.int64),
        rate_hz=rate_hz,
    )


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
    import os

    series = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".csv"):
            continue
        loc, part, proc = parse_corpus_filename(name)
        series.append(
            load_csv(
                os.path.join(directory, name),
                participant_id=part,
                location_id=loc,
                procedure_id=proc,
            )
        )
    if not series:
        raise FileNotFoundError(f"no corpus CSV files found in {directory}")
    return series
