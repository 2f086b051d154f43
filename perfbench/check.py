"""Reference computations for the benchmark's output checks.

Nothing here imports washseg: recordings are parsed with the ``csv``
module, windows are sliced by index, and the smoothing, procedure
detection and scoring rules are re-implemented as plain loops from their
specification (50 Hz sampling, 64-sample windows, a 128-sample centred
mode filter, a 64-sample background gap merge, ties to the smallest
label). The benchmark calls these outside its timed regions.
"""

import csv
import math

import numpy as np

RATE_HZ = 50.0
WINDOW = 64
MODE_WINDOW = 128
GAP_MERGE = 64
NUM_CLASSES = 10
# guideline durations (s) of gestures 1..9; each gesture is worth 100/9 points
REFERENCE_DURATIONS = (4.9, 3.65, 3.65, 5.4, 4.0, 3.45, 3.45, 4.1, 4.1)


class Recording:
    """Columns of one ``t,ax,ay,az,gx,gy,gz,label`` file."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["t", "ax", "ay", "az", "gx", "gy", "gz", "label"]:
            raise ValueError(f"{path}: unexpected header {rows[0]}")
        body = rows[1:]
        self.sensors = np.array([[float(v) for v in r[1:7]] for r in body]).T  # (6, n)
        self.labels = [int(r[7]) for r in body]

    def __len__(self):
        return len(self.labels)


# -- windows -----------------------------------------------------------------

def window_starts(n, stride, length=WINDOW):
    """Starts 0, stride, ... that fit, plus an end-aligned tail window when a
    stride > 1 leaves samples uncovered. Returns [(start, is_tail)]."""
    starts = [(s, False) for s in range(0, n - length + 1, stride)]
    if stride > 1 and starts[-1][0] + length < n:
        starts.append((n - length, True))
    return starts


def slice_windows(rec, starts, length=WINDOW):
    """(B,3,L) accel and gyro arrays cut from the recording at the given starts."""
    cut = np.stack([rec.sensors[:, s : s + length] for s, _ in starts])
    return cut[:, :3], cut[:, 3:]


def stride64_labels(starts, window_preds, n, length=WINDOW):
    """Each sample takes the prediction of the one regular window covering it;
    the tail window fills only the samples no earlier window reached."""
    out = [None] * n
    for (start, tail), pred in zip(starts, window_preds):
        for k in range(length):
            if not tail or out[start + k] is None:
                out[start + k] = int(pred[k])
    return out


def vote_total_errors(votes, n):
    """Samples whose vote total differs from the number of stride-1 windows
    covering them, min(i+1, n-i, 64, n-63)."""
    bad = []
    for i in range(n):
        expected = min(i + 1, n - i, WINDOW, n - WINDOW + 1)
        if int(sum(votes[i])) != expected:
            bad.append(i)
    return bad


# -- smoothing ---------------------------------------------------------------

def argmax_smallest(counts):
    best = 0
    for c in range(1, len(counts)):
        if counts[c] > counts[best]:
            best = c
    return best


def vote_argmax(votes):
    return [argmax_smallest([int(v) for v in row]) for row in votes]


def mode_filter(labels, window=MODE_WINDOW):
    """Mode of labels[i - window//2 : i + (window-1)//2 + 1], edges truncated."""
    n = len(labels)
    left, right = window // 2, (window - 1) // 2
    counts = [0] * NUM_CLASSES
    lo = hi = 0
    out = []
    for i in range(n):
        want_lo, want_hi = max(0, i - left), min(n, i + right + 1)
        while hi < want_hi:
            counts[labels[hi]] += 1
            hi += 1
        while lo < want_lo:
            counts[labels[lo]] -= 1
            lo += 1
        out.append(argmax_smallest(counts))
    return out


# -- procedure span, durations, score ------------------------------------------

def procedure_span(labels, gap=GAP_MERGE):
    """(first, last+1) sample indices of the longest run of non-background
    samples after merging runs separated by fewer than ``gap`` background
    samples; the earliest wins ties. None when every sample is background."""
    best = None
    start = prev = None
    for i, lab in enumerate(labels):
        if lab == 0:
            continue
        if start is None:
            start = prev = i
        elif i - prev - 1 >= gap:
            best = _longer(best, (start, prev))
            start = i
        prev = i
    if start is None:
        return None
    best = _longer(best, (start, prev))
    return best[0], best[1] + 1


def _longer(best, span):
    if best is None or span[1] - span[0] > best[1] - best[0]:
        return span
    return best


def durations(labels, rate=RATE_HZ):
    out = [0.0] * 9
    span = procedure_span(labels)
    if span is None:
        return out
    counts = [0] * NUM_CLASSES
    for i in range(span[0], span[1]):
        counts[labels[i]] += 1
    for g in range(1, NUM_CLASSES):
        out[g - 1] = counts[g] / rate
    return out


def score_total(durs):
    return sum(100.0 / 9.0 * min(1.0, d / ref) for d, ref in zip(durs, REFERENCE_DURATIONS))


# -- the paper's user-dependent claims -------------------------------------------

def user_dependent_claims(predicted, truths, rate=RATE_HZ):
    """Pooled accuracy, mean onset/offset error (s), mean score error (points)
    and detection failures of predicted label tracks against ground truth."""
    correct = total = failures = 0
    onset, offset, score_err = [], [], []
    for pred, truth in zip(predicted, truths):
        correct += sum(1 for p, t in zip(pred, truth) if p == t)
        total += len(truth)
        ps, ts = procedure_span(pred), procedure_span(truth)
        if ps is None or ts is None:
            failures += 1
        else:
            onset.append(abs(ps[0] - ts[0]) / rate)
            offset.append(abs(ps[1] - ts[1]) / rate)
        score_err.append(abs(score_total(durations(pred, rate))
                             - score_total(durations(truth, rate))))
    return {
        "accuracy": correct / total,
        "onset_error_s": _mean(onset),
        "offset_error_s": _mean(offset),
        "score_error": _mean(score_err),
        "detection_failures": failures,
    }


def _mean(xs):
    return sum(xs) / len(xs) if xs else math.nan


def claims_hold(c):
    return (c["accuracy"] >= 0.90 and c["onset_error_s"] < 0.5 and c["offset_error_s"] < 0.5
            and c["score_error"] < 5.0 and c["detection_failures"] == 0)
