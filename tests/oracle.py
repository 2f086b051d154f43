"""Brute-force reference implementations used as independent oracles.

Everything here is written as plain loops, deliberately sharing no code
with the library implementations it checks, except ``unfolded_forward``
and the result and error types of ``load_csv_loops``.
"""

import numpy as np

from washseg.signal_data import CSV_HEADER, NUM_CLASSES, SampleSeries, SeriesFormatError


def conv1d_loops(x, w, b, stride=1, pad=0):
    bsz, cin, t = x.shape
    cout, _, k = w.shape
    xp = np.zeros((bsz, cin, t + 2 * pad))
    xp[:, :, pad : pad + t] = x
    t_out = (t + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, cout, t_out))
    for n in range(bsz):
        for o in range(cout):
            for j in range(t_out):
                acc = b[o]
                for c in range(cin):
                    for kk in range(k):
                        acc += xp[n, c, j * stride + kk] * w[o, c, kk]
                out[n, o, j] = acc
    return out


def maxpool1d_loops(x, window, stride):
    bsz, c, t = x.shape
    t_out = (t - window) // stride + 1
    out = np.zeros((bsz, c, t_out))
    for n in range(bsz):
        for ch in range(c):
            for j in range(t_out):
                out[n, ch, j] = max(x[n, ch, j * stride : j * stride + window])
    return out


def maxpool1d_backward_loops(x, grad_out, window, stride):
    """Each output's gradient goes to the first position holding its window's max."""
    bsz, c, t = x.shape
    grad_x = np.zeros_like(x)
    for n in range(bsz):
        for ch in range(c):
            for j in range(grad_out.shape[2]):
                win = list(x[n, ch, j * stride : j * stride + window])
                grad_x[n, ch, j * stride + win.index(max(win))] += grad_out[n, ch, j]
    return grad_x


def avgpool1d_loops(x, window, stride):
    bsz, c, t = x.shape
    t_out = (t - window) // stride + 1
    out = np.zeros((bsz, c, t_out))
    for n in range(bsz):
        for ch in range(c):
            for j in range(t_out):
                out[n, ch, j] = sum(x[n, ch, j * stride : j * stride + window]) / window
    return out


def upsample1d_loops(x, factor):
    bsz, c, t = x.shape
    out = np.zeros((bsz, c, t * factor))
    for n in range(bsz):
        for ch in range(c):
            for j in range(t * factor):
                out[n, ch, j] = x[n, ch, j // factor]
    return out


def mode_smallest(values, num_classes=10):
    """Mode of an iterable of labels; ties break to the smallest label."""
    counts = [0] * num_classes
    for v in values:
        counts[v] += 1
    best = 0
    for lab in range(num_classes):
        if counts[lab] > counts[best]:
            best = lab
    return best


def mode_filter_loops(labels, window, num_classes=10):
    n = len(labels)
    left = window // 2
    right = (window - 1) // 2
    out = []
    for i in range(n):
        lo = max(0, i - left)
        hi = min(n, i + right + 1)
        out.append(mode_smallest(labels[lo:hi], num_classes))
    return np.array(out)


def procedure_span_loops(labels, gap_merge):
    """``(first, end)`` sample indices of the longest span of non-background
    samples, ``end`` exclusive, where neighbours fewer than ``gap_merge``
    background samples apart share a span and the first of equal spans wins;
    None when every label is background. One sample at a time, as
    ``pipeline.detect_procedure`` ran it before spans became index arrays."""
    spans = []
    for i, lab in enumerate(labels):
        if lab == 0:
            continue
        if spans and i - spans[-1][1] - 1 < gap_merge:
            spans[-1][1] = i
        else:
            spans.append([i, i])
    if not spans:
        return None
    best = spans[0]
    for span in spans[1:]:
        if span[1] - span[0] > best[1] - best[0]:
            best = span
    return best[0], best[1] + 1


def unfolded_forward(model, accel, gyro):
    """``GestureNet``'s eval forward with every stage run as separate conv,
    batch-norm and activation passes, each into a new array: the path the
    folded, in-place eval stages replace. It reuses the layer kernels (checked
    against the loops above) and differs from the model only in the fold."""
    def stage(st, x):
        return st.act.forward(st.bn.forward(st.conv.forward(x, "eval"), "eval"), "eval")

    dtype = model.head.w.value.dtype
    xa, xg = np.asarray(accel, dtype=dtype), np.asarray(gyro, dtype=dtype)
    skips = []
    for st_a, st_g in zip(model.enc_a, model.enc_g):
        act_a, act_g = stage(st_a, xa), stage(st_g, xg)
        skips.append((act_a, act_g))
        xa, xg = st_a.pool.forward(act_a, "eval"), st_g.pool.forward(act_g, "eval")
    x = model.ppm.forward(np.concatenate([model.se_a.forward(xa, "eval"),
                                          model.se_g.forward(xg, "eval")], axis=1), "eval")
    for st, (skip_a, skip_g) in zip(model.dec, reversed(skips)):
        x = stage(st, np.concatenate([st.up.forward(x, "eval"), skip_a, skip_g], axis=1))
    return model.head.forward(x, "eval")


def predict_windows_serial(model, series, length, batch=512):
    """Per-sample argmax of every stride-1 window of ``series``, one eval
    forward after another on batches of ``batch`` windows copied out with
    ``np.stack``: the single-threaded loop that ``pipeline.infer_track`` ran
    before it spread its batches over threads."""
    starts = range(len(series) - length + 1)
    out = []
    for lo in range(0, len(starts), batch):
        rows = starts[lo : lo + batch]
        accel = np.stack([series.accel[:, s : s + length] for s in rows])
        gyro = np.stack([series.gyro[:, s : s + length] for s in rows])
        out.append(model.forward(accel, gyro, mode="eval").argmax(axis=1))
    return np.concatenate(out)


def prf_loops(predictions, ground_truths, num_classes=10):
    """Confusion counts, per-class P/R/F1 and the degenerate classes (a
    zero precision or recall denominator), one sample and one class at a time."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred, truth in zip(predictions, ground_truths):
        for p, t in zip(pred, truth):
            cm[t, p] += 1
    precision, recall, f1 = np.zeros(num_classes), np.zeros(num_classes), np.zeros(num_classes)
    degenerate = set()
    for c in range(num_classes):
        tp = float(cm[c, c])
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        if tp + fp > 0:
            precision[c] = tp / (tp + fp)
        else:
            degenerate.add(c)
        if tp + fn > 0:
            recall[c] = tp / (tp + fn)
        else:
            degenerate.add(c)
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
    return cm, precision, recall, f1, sorted(degenerate)


def load_csv_loops(path):
    """The per-field parse that ``signal_data.load_csv`` replaced: ``float()``
    and ``int()`` on every field, blank and whitespace-only lines skipped."""
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
    for row in range(1, len(rows)):
        if data[row, 0] <= data[row - 1, 0]:
            raise error(linenos[row], f"timestamp {data[row, 0]} not strictly increasing")
    return SampleSeries("", "", 0, data[:, 0], data[:, 1:4].T, data[:, 4:7].T,
                        np.array(labels, dtype=np.int64))
