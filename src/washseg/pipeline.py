"""From model outputs to smoothed label tracks, onsets, and durations.

A LabelTrack carries one predicted label per sample of a series, plus the
per-sample vote counts of every window that covered it. Smoothing:
multiple-test voting (per-sample mode over all covering windows) and a
centered running mode filter. Ties always break toward the smallest label
so every stage is deterministic. The batch, mode-filter window and merge
gap are module constants, not options; ``perfbench/check.py`` restates the
window and the gap on purpose, independently of this module.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal_data import NUM_CLASSES, SampleSeries, window_starts
# not called here: the benchmark's traced run hooks both names on this module
from .signal_data import extract_windows  # noqa: F401
from .model import windows_to_arrays  # noqa: F401

INFER_BATCH = 128  # windows per eval forward, so a batch's activations stay in cache
MODE_WINDOW = 128  # samples in the centred mode filter
GAP_MERGE = 64  # background samples that split a procedure span


@dataclass
class LabelTrack:
    labels: np.ndarray  # (N,) ints 0..9, the input-length tiling segmentation
    votes: np.ndarray | None = None  # (N, 10) counts over the windows inferred

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES):
            raise ValueError("labels must lie in 0..9")
        if self.votes is not None:
            self.votes = np.asarray(self.votes, dtype=np.int64)
            if self.votes.shape != (self.labels.size, NUM_CLASSES):
                raise ValueError("votes must be (N, 10)")

    def __len__(self):
        return self.labels.size


def infer_track(model, series: SampleSeries, stride: int) -> LabelTrack:
    """Run sliding-window inference over a whole series.

    Windows start every ``stride`` samples, plus one end-aligned window when
    the last of them stops short of the end. ``votes`` counts, per sample,
    the argmax of every window covering it (multiple-test voting wants
    stride 1). ``labels`` is the same at every stride: the segmentation of
    the windows tiling the series at 0, L, 2L, ... (L = the model input),
    with the end-aligned window filling only the samples they leave. The
    stride must divide L so that every tile is one of the windows inferred.
    """
    n = len(series)
    length = model.config.input_length
    if n < length:
        raise ValueError(f"series length {n} is shorter than the model input {length}")
    if stride < 1 or length % stride:
        raise ValueError(f"stride {stride} does not divide the model input_length {length}")
    starts = window_starts(n, length, stride)
    # the windows tiling the series; the last, end-aligned, fills only the
    # samples the others leave
    tile_starts = np.minimum(np.arange(0, n, length), n - length)
    tile_rows = np.searchsorted(starts, tile_starts)
    tiles = np.empty((tile_starts.size, length), np.int64)
    votes = np.zeros(n * NUM_CLASSES, np.int64)
    lo = 0
    for preds in _predict_windows(model, series, starts, length):
        # fold this batch in now, so only the batches in flight are held
        hi = lo + preds.shape[0]
        first, end = starts[lo], starts[hi - 1] + length
        sample = (starts[lo:hi, None] - first) + np.arange(length)
        votes[first * NUM_CLASSES : end * NUM_CLASSES] += np.bincount(
            (sample * NUM_CLASSES + preds).ravel(), minlength=(end - first) * NUM_CLASSES)
        t_lo, t_hi = np.searchsorted(tile_rows, (lo, hi))
        tiles[t_lo:t_hi] = preds[tile_rows[t_lo:t_hi] - lo]
        lo = hi
    tail = tiles[-1, (tile_starts.size - 1) * length - tile_starts[-1] :]
    labels = np.concatenate([tiles[:-1].ravel(), tail])
    return LabelTrack(labels=labels, votes=votes.reshape(n, NUM_CLASSES))


def _predict_windows(model, series, starts, length):
    """Yield the per-sample argmax of every window, ``INFER_BATCH`` at a time in order,
    each batch gathered as rows of one (N-L+1, 3, L) view of each sensor;
    only a batch is ever copied. The batches run on up to one thread per CPU
    this process may use (numpy's kernels release the GIL); batch-invariant
    eval keeps the bits."""
    accel = sliding_window_view(series.accel, length, axis=1).transpose(1, 0, 2)
    gyro = sliding_window_view(series.gyro, length, axis=1).transpose(1, 0, 2)

    def predict(rows):
        return model.forward(accel[rows], gyro[rows], mode="eval").argmax(axis=1)

    batches = [starts[lo : lo + INFER_BATCH] for lo in range(0, starts.size, INFER_BATCH)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # at most 512 windows (four batches) in flight, the peak of one 512-window batch
    workers = min(len(batches), cpus or 1, 512 // INFER_BATCH)
    if workers == 1:
        yield from map(predict, batches)
        return
    # imported only here, so the ~1 MB it costs stays off the serial paths
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(predict, batches)


def multiple_test_voting(track: LabelTrack) -> LabelTrack:
    """Per-sample mode over the recorded stride-1 votes; ties -> smallest label."""
    if track.votes is None:
        raise ValueError("multiple_test_voting needs a track with vote counts")
    # argmax over counts picks the smallest label among ties
    return LabelTrack(labels=track.votes.argmax(axis=1))


def mode_filter(track: LabelTrack) -> LabelTrack:
    """Replace every label with the mode of the centered window around it.

    The window covers indices [i - MODE_WINDOW//2, i + (MODE_WINDOW-1)//2],
    truncated at the series edges. Ties break to the smallest label.
    """
    n = len(track)
    csum = np.zeros((n + 1, NUM_CLASSES), dtype=np.int64)
    np.cumsum(np.eye(NUM_CLASSES, dtype=np.int64)[track.labels], axis=0, out=csum[1:])
    i = np.arange(n)
    lo, hi = np.maximum(i - MODE_WINDOW // 2, 0), np.minimum(i + (MODE_WINDOW + 1) // 2, n)
    counts = csum[hi] - csum[lo]
    return LabelTrack(labels=counts.argmax(axis=1))


def _procedure_span(track: LabelTrack, rate_hz: float):
    """``(first, end)`` sample indices of the procedure, ``end`` exclusive, or
    None when every sample is background. Non-background samples fewer than
    ``GAP_MERGE`` background samples apart join one span; the longest span
    wins, the earliest of equal ones."""
    if not 0 < rate_hz < np.inf:
        raise ValueError(f"rate_hz must be finite and positive, got {rate_hz}")
    if len(track) == 0:
        raise ValueError("empty track")
    nz = np.flatnonzero(track.labels)
    if nz.size == 0:
        return None
    cut = np.flatnonzero(np.diff(nz) > GAP_MERGE) + 1
    firsts, lasts = nz[np.r_[0, cut]], nz[np.r_[cut, nz.size] - 1]
    best = np.argmax(lasts - firsts)
    return int(firsts[best]), int(lasts[best]) + 1


def detect_procedure(track: LabelTrack, rate_hz: float):
    """The handwashing span of a track as (onset_seconds, offset_seconds),
    offset exclusive, or None when the track has no non-background sample."""
    span = _procedure_span(track, rate_hz)
    return None if span is None else (span[0] / rate_hz, span[1] / rate_hz)


def gesture_durations(track: LabelTrack, rate_hz: float) -> np.ndarray:
    """Seconds spent in each gesture 1..9 inside the detected procedure.

    Occurrences of a gesture need not be contiguous; counts are summed.
    Returns a length-9 array (index 0 -> gesture 1); all zeros when no
    procedure is detected. A rate so small that a count over it overflows
    gives inf, which ``scoring.score`` rejects.
    """
    first, end = _procedure_span(track, rate_hz) or (0, 0)
    with np.errstate(over="ignore"):
        return np.bincount(track.labels[first:end], minlength=NUM_CLASSES)[1:] / rate_hz


def smooth(track: LabelTrack, method: str) -> LabelTrack:
    """Apply a named smoothing pipeline: none | mtv | tmf | mtv+tmf."""
    if method == "none":
        return track
    if method == "mtv":
        return multiple_test_voting(track)
    if method == "tmf":
        return mode_filter(track)
    if method == "mtv+tmf":
        return mode_filter(multiple_test_voting(track))
    raise ValueError(f"unknown smoothing method '{method}'")


def export_track_csv(path, track: LabelTrack, series: SampleSeries):
    """``index,t,predicted,ground_truth`` rows for a whole series."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("index,t,predicted,ground_truth\n")
        for i in range(len(track)):
            f.write(f"{i},{series.t[i]:.9g},{track.labels[i]},{series.label[i]}\n")


def load_track_csv(path) -> LabelTrack:
    """The ``predicted`` column of a track CSV, each value an integer label;
    every failure names the file, and the line when one row is at fault."""
    labels = []
    with open(path, encoding="utf-8", newline="") as f:
        rows = csv.DictReader(f)
        if rows.fieldnames is not None and "predicted" not in rows.fieldnames:
            raise ValueError(f"{path}: header has no 'predicted' column")
        for row in rows:
            value = (row["predicted"] or "").strip()
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"{path}:{rows.line_num}: 'predicted' is not an integer "
                                 f"label: {value!r}")
            labels.append(int(value))
            if not 0 <= labels[-1] < NUM_CLASSES:
                raise ValueError(f"{path}:{rows.line_num}: label {labels[-1]} outside 0..9")
    if not labels:
        raise ValueError(f"{path}: empty track (no data rows)")
    return LabelTrack(labels=labels)


SVG_WIDTH, SVG_BAND_HEIGHT = 1000, 40  # pixels
_PALETTE = [
    "#cccccc", "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
]


def export_timeline_svg(path, track: LabelTrack, rate_hz: float):
    """One colored band per label run; display only."""
    n = len(track)
    scale = SVG_WIDTH / max(n, 1)
    rects = []
    start = 0
    for i in range(1, n + 1):
        if i == n or track.labels[i] != track.labels[start]:
            lab = int(track.labels[start])
            x = start * scale
            w = (i - start) * scale
            rects.append(
                f'<rect x="{x:.2f}" y="0" width="{w:.2f}" height="{SVG_BAND_HEIGHT}" '
                f'fill="{_PALETTE[lab]}"><title>label {lab}: '
                f"{start / rate_hz:.2f}-{i / rate_hz:.2f}s</title></rect>"
            )
            start = i
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_BAND_HEIGHT}">' + "".join(rects) + "</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(svg)
