"""Brute-force reference implementations used as independent oracles.

Everything here is written as plain loops, deliberately sharing no code
with the library implementations it checks, except ``unfolded_forward``,
``batchnorm_eval``, ``conv1d_spans``, ``conv1d_backward_whole`` and
``conv1d_backward_concat`` (the conv's tap spans and batch norm's
``eval_affine``, which the fold also applies), the result and error types of
``load_csv_loops``, and
``window_starts`` and ``corpus_filename`` in the list-of-windows training
windows. The train kernels that whole-row kernels replaced are kept
verbatim below (``upsample1d_backward_sum``, ``batchnorm_forward_broadcast``,
``batchnorm_backward_broadcast``, ``maxpool1d_backward_free_mask``), reading
only the layer's parameters, buffers and constants.
"""

from dataclasses import dataclass

import numpy as np

from washseg.nn import layers
from washseg.signal_data import (
    CSV_HEADER,
    DEFAULT_WINDOW,
    NUM_CLASSES,
    SampleSeries,
    SeriesFormatError,
    corpus_filename,
    window_starts,
)


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


def conv1d_spans(conv, x, fold=None):
    """``Conv1d.forward`` as it accumulated before full-width tap buffers:
    each tap's products added into the output slice its span reaches, so
    every add runs row by row over a cut slice. The same products, summands
    and order of addition as the layer."""
    spans = conv._spans(x.shape[2])
    w, b = conv.w.value, conv.b.value
    if fold is not None:
        scale, shift = fold.eval_affine()
        w, b = w * scale[:, None, None], b * scale + shift
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    out = np.broadcast_to(b[:, None], (x.shape[0], conv.out_ch, x.shape[2])).copy()
    for k, o_sl, i_sl in spans:
        out[:, :, o_sl] += taps[k] @ x[:, :, i_sl]
    return out


def conv1d_backward_whole(conv, x, grad_out):
    """``Conv1d.backward``'s input and weight gradients as it made them before
    slicing and full-width buffers: each tap's whole (B, O, C) product summed
    over the batch at once, and its input-gradient products added into the
    cut slice its span reaches."""
    spans = conv._spans(x.shape[2])
    taps = np.ascontiguousarray(conv.w.value.transpose(2, 0, 1))
    grad_x, grad_w = np.zeros_like(x), np.zeros_like(conv.w.grad)
    for k, o_sl, i_sl in spans:
        g = grad_out[:, :, o_sl]
        grad_x[:, :, i_sl] += taps[k].T @ g
        grad_w[:, :, k] += (g @ x[:, :, i_sl].transpose(0, 2, 1)).sum(axis=0)
    return grad_x, grad_w


def conv1d_backward_concat(conv, parts, grad_out):
    """``Conv1d.backward`` on an input that comes back in channel parts, as a
    decoder stage's did while it kept its concatenation: the parts joined
    into the whole input, whose input and weight gradients
    ``conv1d_backward_whole`` makes. Returns (grad_x, grad_w, grad_b)."""
    grad_x, grad_w = conv1d_backward_whole(conv, np.concatenate(parts, axis=1), grad_out)
    return grad_x, grad_w, np.zeros_like(conv.b.grad) + _channel_sum(grad_out)


def upsample1d_repeat(x, factor):
    """``Upsample1d.forward`` before column copies: ``np.repeat``."""
    return np.repeat(x, factor, axis=2)


def upsample1d_backward_sum(grad_out, factor):
    """``Upsample1d.backward`` before whole-row column adds: numpy's reduce
    over the short last axis of the (B, C, T/f, f) view."""
    b, c, t = grad_out.shape
    return grad_out.reshape(b, c, t // factor, factor).sum(axis=3)


def _channel_sum(x):
    """(B, C, T) -> (C,): the (B, C*T) view summed over the batch, then over time."""
    b, c, t = x.shape
    return x.reshape(b, c * t).sum(0).reshape(c, t).sum(1)


def batchnorm_forward_broadcast(bn, x):
    """``BatchNorm1d.forward`` before (C, T) rows: per-channel (C, 1) vectors
    broadcast over (B, C, T). Updates ``bn``'s running statistics as the
    layer does; returns the output and the (mean, 1/std) backward reads."""
    n = x.shape[0] * x.shape[2]
    mean = _channel_sum(x) / n
    var = _channel_sum((x - mean[:, None]) ** 2) / n
    momentum = layers.BN_MOMENTUM
    bn.running_mean[...] = (1 - momentum) * bn.running_mean + momentum * mean
    bn.running_var[...] = (1 - momentum) * bn.running_var + momentum * var
    inv_std = 1.0 / np.sqrt(var + layers.BN_EPSILON)
    scale = bn.gamma.value * inv_std
    shift = bn.beta.value - mean * scale
    return x * scale[:, None] + shift[:, None], mean, inv_std


def batchnorm_backward_broadcast(bn, x, mean, inv_std, grad_out):
    """``BatchNorm1d.backward`` before (C, T) rows: (grad_x, d_gamma, d_beta)."""
    xhat = (x - mean[:, None]) * inv_std[:, None]
    d_gamma = _channel_sum(grad_out * xhat)
    d_beta = _channel_sum(grad_out)
    scale = bn.gamma.value * inv_std
    n = grad_out.shape[0] * grad_out.shape[2]
    grad_x = n * grad_out - d_beta[:, None]
    grad_x -= xhat * d_gamma[:, None]
    grad_x *= (scale / n)[:, None]
    return grad_x, d_gamma, d_beta


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


def maxpool1d_backward_free_mask(x, out, grad_out, window):
    """``MaxPool1d.backward`` before contiguous compares and column writes:
    each window position's routed gradient added into zeros through a
    strided slice, a mask of outputs not yet routed giving ties to the earliest."""
    grad_x = np.zeros_like(x)
    free = np.ones(out.shape, dtype=bool)
    end = x.shape[2] // window * window
    for j in range(window):
        sl = slice(j, end, window)
        hit = free & (x[:, :, sl] == out)
        grad_x[:, :, sl] += grad_out * hit
        free &= ~hit
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


def batchnorm_eval(bn, x):
    """Eval-mode batch norm as a pass of its own into a new array: the
    running statistics' per-channel map, ``bn.eval_affine()``, applied to x."""
    scale, shift = bn.eval_affine()
    return x * scale[:, None] + shift[:, None]


def unfolded_forward(model, accel, gyro):
    """``GestureNet``'s eval forward with every stage run as separate conv,
    batch-norm and activation passes, each into a new array: the path the
    folded, in-place eval stages replace. It reuses the layer kernels (checked
    against the loops above) and differs from the model only in the fold."""
    def stage(st, x):
        return st.act.forward(batchnorm_eval(st.bn, st.conv.forward(x)))

    dtype = model.head.w.value.dtype
    xa, xg = np.asarray(accel, dtype=dtype), np.asarray(gyro, dtype=dtype)
    skips = []
    for st_a, st_g in zip(model.enc_a, model.enc_g):
        act_a, act_g = stage(st_a, xa), stage(st_g, xg)
        skips.append((act_a, act_g))
        xa, xg = st_a.pool.forward(act_a), st_g.pool.forward(act_g)
    x = model.ppm.forward(np.concatenate([model.se_a.forward(xa), model.se_g.forward(xg)],
                                         axis=1))
    for st, (skip_a, skip_g) in zip(model.dec, reversed(skips)):
        x = stage(st, np.concatenate([st.up.forward(x), skip_a, skip_g], axis=1))
    return model.head.forward(x)


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
    with np.errstate(over="ignore"):  # the cast of a value beyond float32 overflows
        bad = np.argwhere(~np.isfinite(data[:, 1:].astype(np.float32)))
    if bad.size:
        row, col = bad[0]
        name = CSV_HEADER.split(",")[col + 1]
        raise error(linenos[row], f"{name} value {data[row, col + 1]} beyond float32's finite range")
    return SampleSeries("", "", 0, data[:, 0], data[:, 1:4].T, data[:, 4:7].T,
                        np.array(labels, dtype=np.int64))


# -- training windows as one object per window ----------------------------------
# ``signal_data.extract_windows``, ``evaluation.fold_windows`` and
# ``model.windows_to_arrays`` as they were before windows became a
# ``WindowSet``: the same kept windows, in the same order, and the same arrays.

@dataclass(frozen=True)
class ListWindow:
    """The ``length`` samples of ``source`` from ``start`` on."""

    source: SampleSeries
    start: int
    length: int


def extract_windows_list(series: SampleSeries, length=DEFAULT_WINDOW, stride=1):
    """One ``ListWindow`` per start of ``window_starts``."""
    return [ListWindow(series, start, length)
            for start in window_starts(len(series), length, stride).tolist()]


def fold_windows_list(train_series, length=64, stride=1, max_windows=None, rng=None):
    """Pool training windows from every series; keep at most ``max_windows`` (None: all)."""
    if max_windows is not None and max_windows < 1:
        raise ValueError(f"max_windows must be at least 1, got {max_windows}")
    windows = []
    for s in train_series:
        if len(s) < length:
            raise ValueError(f"{corpus_filename(s)} has {len(s)} samples, "
                             f"fewer than the {length}-sample window")
        windows.extend(extract_windows_list(s, length, stride))
    if max_windows is not None and len(windows) > max_windows:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = rng.choice(len(windows), size=max_windows, replace=False)
        windows = [windows[i] for i in sorted(keep)]
    return windows


def windows_to_arrays_list(windows):
    """Stack a window list into (N,3,L) float32 accel/gyro and (N,L) uint8 labels.

    float32 is the model's compute dtype, so ``GestureNet.forward`` casts
    nothing; a value beyond its range becomes inf, which forward rejects.
    """
    cuts = [(w.source, slice(w.start, w.start + w.length)) for w in windows]
    with np.errstate(over="ignore"):
        accel = np.stack([s.accel[:, cut] for s, cut in cuts], dtype=np.float32)
        gyro = np.stack([s.gyro[:, cut] for s, cut in cuts], dtype=np.float32)
    labels = np.stack([s.label[cut] for s, cut in cuts]).astype(np.uint8)
    return accel, gyro, labels
