"""Dense 1D layer library with hand-derived backward passes.

Tensors are numpy arrays shaped (batch, channels, time) unless noted
otherwise. ``Param`` slots and batch-norm buffers are built as float32, the
precision checkpoints store and load. Layers compute in the dtype their input
shares with their parameters and allocate nothing wider, so tests cast a model
to float64 to gradcheck it through the same code; a mixed pair follows numpy's
promotion, but batch-norm buffers keep their own dtype. Layers cache what
backward needs of their input (activations: their output; batch norm: its
centred input) and derive masks, normalized inputs and argmax positions in
backward. A conv caches no input: its caller, which holds that input anyway,
hands it back to ``Conv1d.backward`` as a list of channel parts, so a decoder
stage keeps its input and skips, never their concatenation. A cache lives from
forward to backward: the backward that reads it also drops it, so a train
step's saved activations are freed layer by layer as backward passes, and a
backward without a fresh forward raises ``RuntimeError``. A forward takes only
its input: no layer has a train or eval mode. Batch norm's forward is the
train forward; the model folds its eval map, ``eval_affine``, into the
preceding conv. Other layers' eval forwards write a cache that nothing reads.
The layers run the geometry ``GestureNet`` builds: convs of odd kernel keep
the input length (stride 1, padding kernel // 2), max-pool takes pairs, and
average pools step by their own window. Forwards read strided slices and
never copy their input; selects are multiplies by an exact factor, and
per-channel sums reduce the (B, C*T) view over the batch first. No hot op
reduces over a short axis or broadcasts a per-channel (C, 1) vector over
(B, C, T), since numpy then runs one short inner loop per row: conv tap sums,
upsample copies and sums over the last axis run over whole contiguous rows,
the sums in numpy's own order, batch norm expands its per-channel vectors to
(C, T) rows, and max-pool backward compares a contiguous copy of its even
columns. Parameter values are only ever mutated by an optimizer —
forward/backward touch gradients exclusively.

Layers form one tree: leaves (``Conv1d``, ``BatchNorm1d``, ``Linear``) own
their ``Param`` slots; a composite's sublayers, parameter-free ones included,
are its attributes, which the base ``children`` reads (``PPMBlock``, whose
checkpoint names follow no attribute, is the one override). The base ``params``
names every slot by its dotted path (``dec.0.bn.gamma``), also its checkpoint
tensor name, and ``modules`` walks the same tree.
"""

from __future__ import annotations

import math

import numpy as np


class Param:
    """A trainable float32 tensor slot with a same-shaped gradient slot."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class Layer:
    """Base class: forward/backward pair plus a tree of named sublayers."""

    _cache = None  # what forward saved for backward

    def children(self) -> dict:
        """Direct sublayers by name, in assignment order: each ``Layer``
        attribute under its name, each list of layers as ``<name>.<i>``."""
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, Layer):
                out[name] = value
            elif isinstance(value, list) and all(isinstance(v, Layer) for v in value):
                out.update((f"{name}.{i}", v) for i, v in enumerate(value))
        return out

    def params(self) -> dict:
        """Every descendant's slots under their dotted paths; leaves override."""
        return {f"{name}.{k}": p for name, child in self.children().items()
                for k, p in child.params().items()}

    def modules(self):
        """This layer, then every descendant, depth first in ``children`` order."""
        yield self
        for child in self.children().values():
            yield from child.modules()

    def zero_grad(self):
        for p in self.params().values():
            p.zero_grad()

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError

    def _saved(self):
        """Hand the forward cache over to backward, keeping no reference to it."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward called without a forward cache")
        return cache


# bytes of the per-tap product rows that a conv makes at once: its (rows, O, T)
# tap-sum buffer, and its (rows, O, C) weight-gradient products with their
# gathered input rows
_PRODUCT_BYTES = 1 << 20
# batch norm's variance floor and running-statistics update weight
BN_EPSILON, BN_MOMENTUM = 1e-5, 0.1


def _channel_sum(x):
    """(B, C, T) -> (C,): the (B, C*T) view summed over the batch, then over time."""
    b, c, t = x.shape
    return x.reshape(b, c * t).sum(0).reshape(c, t).sum(1)


def _rows(v, t):
    """(C,) -> contiguous (C, T), each channel's value along its row, so that an
    op broadcasting it over (B, C, T) runs one C*T-long loop per example."""
    return np.repeat(v, t).reshape(-1, t)


def _last_axis_sum(a):
    """``a.sum(axis=-1)`` bit for bit, with each add over whole arrays.

    numpy's reduce runs one inner loop per output element, slow when the
    axis is short. Its pairwise summation adds a row in sequence below 8
    terms; up to 128, as 8 sequential partial sums over a stride of 8 joined
    as a tree, then the rest in sequence; above that, as two halves cut at a
    multiple of 8. The terms here are the row's columns, added in that order.
    """
    def sequential(terms):
        out = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
        for term in terms[2:]:
            out += term
        return out

    def pairwise(terms):
        n = len(terms)
        if n < 8:
            return sequential(terms)
        if n > 128:
            half = n // 2 - n // 2 % 8
            out = pairwise(terms[:half])
            out += pairwise(terms[half:])
            return out
        blocks = n - n % 8
        partial = [sequential(terms[j:blocks:8]) for j in range(8)]
        for width in (1, 2, 4):
            for j in range(0, 8, 2 * width):
                partial[j] += partial[j + width]
        out = partial[0]
        for term in terms[blocks:]:
            out += term
        return out

    out = pairwise([a[..., j] for j in range(a.shape[-1])])
    out += 0.0  # the reduce starts from +0.0, which turns a -0.0 total into 0.0
    return out


def _tap_sum(out, taps, x, spans):
    """Add ``taps[k] @ x[:, :, i_sl]`` into ``out[:, :, o_sl]`` for every
    (k, o_sl, i_sl) of ``spans``; returns ``out``.

    (O, C) @ (C, T) per example keeps the reduction order independent of
    batch size, so eval outputs are bit-identical however windows are
    batched; one flat (B*T, C*K) GEMM is not (README, "Layer kernels").
    Each tap's products land in a full-width buffer that is zero where the
    tap reaches no input, so the add runs over whole rows. The buffer holds
    about ``_PRODUCT_BYTES`` of rows, and the batch runs through it a slice
    of rows at a time: the products are per example and the adds
    elementwise, so slicing keeps every bit.
    """
    b, o, t = out.shape
    dtype = np.result_type(taps, x)
    rows = max(1, _PRODUCT_BYTES // max(1, o * t * dtype.itemsize))
    prod = np.empty((min(rows, b), o, t), dtype)
    for lo in range(0, b, rows):
        part, xs, outs = prod[: b - lo], x[lo : lo + rows], out[lo : lo + rows]
        for k, o_sl, i_sl in spans:
            part[:, :, : o_sl.start] = 0
            part[:, :, o_sl.stop :] = 0
            np.matmul(taps[k], xs[:, :, i_sl], out=part[:, :, o_sl])
            outs += part
    return out


def _window_slices(t_in, window):
    """Slice j picks element j of every non-overlapping window along time."""
    end = t_in // window * window  # a tail shorter than a window is dropped
    return [slice(j, end, window) for j in range(window)]


class Conv1d(Layer):
    """Same-length cross-correlation: stride 1, zero padding kernel // 2.

    The kernel is odd, so the output is as long as the input. Output j of
    tap k reads input j + k - kernel // 2; each tap's span is clipped to x,
    so the padding is never materialised.
    """

    def __init__(self, in_ch, out_ch, kernel, rng):
        if kernel % 2 == 0:
            raise ValueError(f"conv1d: kernel {kernel} is even; a same-length conv needs it odd")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        bound = math.sqrt(6.0 / (in_ch * kernel))
        self.w = Param(rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel)))
        self.b = Param(np.zeros(out_ch))

    def params(self):
        return {"w": self.w, "b": self.b}

    def _spans(self, t):
        """(tap, output slice, input slice) for every tap that reaches x."""
        p = self.kernel // 2
        spans = []
        for k in range(self.kernel):
            lo, hi = max(0, p - k), min(t, t + p - k)
            if hi > lo:
                spans.append((k, slice(lo, hi), slice(lo + k - p, hi + k - p)))
        return spans

    def forward(self, x, fold=None):
        """conv(x); with ``fold``, a ``BatchNorm1d``, its eval bn(conv(x)) from
        taps and bias scaled on this call, keeping no cache for backward."""
        if x.shape[1] != self.in_ch:
            raise ValueError(
                f"conv1d: input has {x.shape[1]} channels, weights expect {self.in_ch}"
            )
        spans = self._spans(x.shape[2])
        w, b = self.w.value, self.b.value
        if fold is not None:
            scale, shift = fold.eval_affine()
            w, b = w * scale[:, None, None], b * scale + shift
        taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (K, O, C)
        out = np.broadcast_to(b[:, None], (x.shape[0], self.out_ch, x.shape[2])).copy()
        _tap_sum(out, taps, x, spans)
        self._cache = None if fold is not None else (taps, spans)
        return out

    def backward(self, grad_out, parts):
        """Gradients of the last unfolded forward, whose input comes back as
        ``parts``: a list of arrays that, concatenated along channels, are that
        input. The conv keeps no copy of its input, and a decoder stage never
        keeps the concatenation it convolved. The list is emptied once the
        weight gradient is made, so a part only it holds is freed before the
        input gradient is."""
        taps, spans = self._saved()
        if sum(part.shape[1] for part in parts) != self.in_ch:
            raise ValueError(f"conv1d: backward input parts have "
                             f"{[part.shape[1] for part in parts]} channels, "
                             f"weights expect {self.in_ch}")
        dtype = np.result_type(*parts)
        self._weight_grads(parts, grad_out, spans)
        parts.clear()
        self.b.grad += _channel_sum(grad_out)
        # the forward's tap sum run back: transposed taps, each span's slices
        # swapped; grad_x never holds -0.0, so adding 0.0 keeps it
        shape = (grad_out.shape[0], self.in_ch, grad_out.shape[2])
        return _tap_sum(np.zeros(shape, dtype), taps.transpose(0, 2, 1),
                        grad_out, [(k, i_sl, o_sl) for k, o_sl, i_sl in spans])

    def _weight_grads(self, parts, grad_out, spans):
        """Add each tap's weight gradient into ``w.grad``. Its (B, O, C)
        products are made and summed a slice of rows at a time: numpy sums
        axis 0 row by row when O*C > 1, so adding one slice's sum into the
        next slice's first row keeps every bit; a (B, 1, 1) product is summed
        pairwise, so it stays whole. A slice of an input given in several
        parts is gathered whole first: a BLAS product of one part alone may
        add its terms in another order (a one-column part runs as gemv)."""
        batch, t = grad_out.shape[0], grad_out.shape[2]
        cells = self.out_ch * self.in_ch
        gathered = self.in_ch * t if len(parts) > 1 else 0
        row_bytes = (cells + gathered) * np.result_type(grad_out, *parts).itemsize
        rows = max(1, batch if cells == 1 else _PRODUCT_BYTES // row_bytes)
        totals = [None] * len(spans)
        for lo in range(0, max(batch, 1), rows):  # an empty batch still sums once
            hi = lo + rows
            x = parts[0][lo:hi] if len(parts) == 1 else np.concatenate(
                [part[lo:hi] for part in parts], axis=1)
            for j, (k, o_sl, i_sl) in enumerate(spans):
                prod = grad_out[lo:hi, :, o_sl] @ x[:, :, i_sl].transpose(0, 2, 1)
                if totals[j] is not None:
                    prod[0] += totals[j]
                totals[j] = prod.sum(axis=0)
        for (k, _, _), total in zip(spans, totals):
            self.w.grad[:, :, k] += total


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the (batch, time) axes."""

    def __init__(self, channels):
        self.channels = channels
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x):
        b, _, t = x.shape
        n = b * t
        if n < 2:
            raise ValueError("batchnorm train mode needs at least 2 samples per channel")
        mean = _channel_sum(x) / n
        centred = x - _rows(mean, t)  # saved: backward scales it into xhat
        square = centred * centred
        var = _channel_sum(square) / n
        del square  # freed before the output is made
        # in place, so the buffers keep their dtype whatever the input's
        self.running_mean[...] = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var[...] = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        inv_std, scale, shift = self._affine(mean, var)
        self._cache = (centred, inv_std)
        out = x * _rows(scale, t)
        out += _rows(shift, t)
        return out

    def _affine(self, mean, var):
        """(1/std, scale, shift) with normalize(x) = x * scale + shift per channel."""
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        scale = self.gamma.value * inv_std
        return inv_std, scale, self.beta.value - mean * scale

    def eval_affine(self):
        """Eval mode: the per-channel (scale, shift) of the running statistics."""
        _, scale, shift = self._affine(self.running_mean, self.running_var)
        return scale, shift

    def backward(self, grad_out):
        """The train-mode gradient, through the batch statistics."""
        xhat, inv_std = self._saved()
        t = xhat.shape[2]
        xhat *= _rows(inv_std, t)  # the centred input, scaled in place
        prod = grad_out * xhat
        d_gamma = _channel_sum(prod)
        d_beta = _channel_sum(grad_out)
        self.gamma.grad += d_gamma
        self.beta.grad += d_beta
        scale = self.gamma.value * inv_std
        # prod takes over xhat * d_gamma in its own dtype, and xhat, the
        # cached input, is dropped before grad_x is made
        np.multiply(xhat, _rows(d_gamma, t), out=prod)
        del xhat
        # its reductions are gamma*d_beta and gamma*d_gamma
        n = grad_out.shape[0] * t
        grad_x = n * grad_out
        grad_x -= _rows(d_beta, t)
        grad_x -= prod
        grad_x *= _rows(scale / n, t)
        return grad_x


class LeakyReLU(Layer):
    def __init__(self, slope=0.01):
        if not 0.0 <= slope <= 1.0:
            raise ValueError("leaky relu slope must lie in [0, 1]")
        self.slope = slope

    def forward(self, x, out=None):
        """``out`` receives the result; a caller that owns ``x`` may pass ``x``."""
        out = np.maximum(x, self.slope * x, out=out)
        self._cache = out  # out > 0 exactly where x > 0, for slope in [0, 1]
        return out

    def backward(self, grad_out):
        # exactly 1 or slope, so each product equals the select's operand
        factor = np.maximum(self._saved() > 0, self.slope, dtype=grad_out.dtype)
        factor *= grad_out
        return factor


class Sigmoid(Layer):
    def forward(self, x):
        # exp(-x) overflows to inf below x = -88.7 in float32; 1/(1+inf) = 0
        # is the correct limit, so the overflow is not an error
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-x))
        self._cache = out
        return out

    def backward(self, grad_out):
        out = self._saved()
        return grad_out * out * (1.0 - out)


class MaxPool1d(Layer):
    """Max over each pair of samples; a tie goes to the even position."""

    def forward(self, x):
        if x.shape[2] < 2:
            raise ValueError("maxpool1d: input shorter than pooling window")
        even, odd = _window_slices(x.shape[2], 2)
        out = np.maximum(x[:, :, even], x[:, :, odd])
        self._cache = (x, out)
        return out

    def backward(self, grad_out):
        x, out = self._saved()
        even, _ = _window_slices(x.shape[2], 2)
        grad_x = np.empty_like(x)
        grad_x[:, :, even.stop :] = 0  # an odd tail gets no gradient
        # compared as a contiguous copy: numpy compares strided operands slowly
        to_even = np.ascontiguousarray(x[:, :, even]) == out
        # column j of this view is position j of every pair
        pairs = grad_x[:, :, : even.stop].reshape(*out.shape, 2)
        for j, hit in enumerate((to_even, ~to_even)):
            routed = grad_out * hit
            routed += 0.0  # a -0.0 becomes 0.0, as when it was added onto zeros
            pairs[..., j] = routed
        return grad_x


class AvgPool1d(Layer):
    def __init__(self, window):
        self.window = window

    def forward(self, x):
        if x.shape[2] < self.window:
            raise ValueError("avgpool1d: input shorter than pooling window")
        slices = _window_slices(x.shape[2], self.window)
        self._cache = x
        return sum(x[:, :, sl] for sl in slices) / self.window

    def backward(self, grad_out):
        x = self._saved()
        grad_x = np.zeros_like(x)
        share = grad_out / self.window
        for sl in _window_slices(x.shape[2], self.window):
            grad_x[:, :, sl] += share
        return grad_x


class Upsample1d(Layer):
    """Nearest-neighbor temporal upsampling by an integer factor."""

    def __init__(self, factor):
        self.factor = factor

    def forward(self, x):
        # one strided 1-D copy per column; np.repeat copies element by element
        out = np.empty((*x.shape[:2], x.shape[2] * self.factor), x.dtype)
        cols, flat = out.reshape(-1, self.factor), x.reshape(-1)
        for j in range(self.factor):
            cols[:, j] = flat
        return out

    def backward(self, grad_out):
        b, c, t = grad_out.shape
        return _last_axis_sum(grad_out.reshape(b, c, t // self.factor, self.factor))


class Linear(Layer):
    """Affine map on (batch, features) inputs."""

    def __init__(self, in_features, out_features, rng):
        bound = math.sqrt(6.0 / in_features)
        self.w = Param(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.b = Param(np.zeros(out_features))

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x):
        if x.shape[1] != self.w.value.shape[0]:
            raise ValueError("linear: feature dimension mismatch")
        self._cache = x
        # (B,1,F)@(F,O): per-example reduction, bit-stable across batch sizes
        return (x[:, None, :] @ self.w.value)[:, 0, :] + self.b.value

    def backward(self, grad_out):
        x = self._saved()
        self.w.grad += x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value.T


class SEBlock(Layer):
    """Squeeze-and-excitation channel gating.

    Squeeze is the per-channel temporal mean; the excitation MLP is
    C -> C/r -> C with a leaky-ReLU hidden layer and a sigmoid gate.
    """

    def __init__(self, channels, reduction, slope, rng):
        hidden = max(1, channels // reduction)
        self.channels = channels
        self.fc1 = Linear(channels, hidden, rng=rng)
        self.act = LeakyReLU(slope)
        self.fc2 = Linear(hidden, channels, rng=rng)
        self.gate = Sigmoid()

    def forward(self, x):
        squeeze = x.mean(axis=2)
        g = self.gate.forward(self.fc2.forward(self.act.forward(self.fc1.forward(squeeze))))
        self._cache = (x, g)
        return x * g[:, :, None]

    def backward(self, grad_out):
        x, g = self._saved()
        grad_x = grad_out * g[:, :, None]
        grad_g = _last_axis_sum(grad_out * x)
        grad_s = self.fc1.backward(
            self.act.backward(self.fc2.backward(self.gate.backward(grad_g)))
        )
        grad_x += grad_s[:, :, None] / x.shape[2]
        return grad_x


class PPMBlock(Layer):
    """Pyramid pooling over a temporal feature map.

    Average pools over windows of 8, 4 and 2, reduces each pooled map to
    ``reduce_ch`` channels with a 1-tap convolution, upsamples back to the
    input length, and concatenates with the input along channels.
    """

    POOL_SIZES = (8, 4, 2)

    def __init__(self, channels, reduce_ch, rng):
        self.channels = channels
        self.reduce_ch = reduce_ch
        self.pools = [AvgPool1d(s) for s in self.POOL_SIZES]
        self.reducers = [Conv1d(channels, reduce_ch, 1, rng=rng) for _ in self.POOL_SIZES]
        self.ups = [Upsample1d(s) for s in self.POOL_SIZES]

    @property
    def out_channels(self):
        return self.channels + len(self.POOL_SIZES) * self.reduce_ch

    def children(self):
        # the checkpoint names the reducers reduce<i>, not reducers.<i>
        kinds = {"pool": self.pools, "reduce": self.reducers, "up": self.ups}
        return {f"{kind}{i}": layer for kind, layers in kinds.items()
                for i, layer in enumerate(layers)}

    def forward(self, x):
        t = x.shape[2]
        if t % max(self.POOL_SIZES) != 0:
            raise ValueError(f"ppm_block: temporal length {t} not divisible by 8")
        pooled = [pool.forward(x) for pool in self.pools]
        self._cache = pooled  # the reducers' inputs, handed back to them in backward
        branches = [x] + [up.forward(conv.forward(p))
                          for p, conv, up in zip(pooled, self.reducers, self.ups)]
        return np.concatenate(branches, axis=1)

    def backward(self, grad_out):
        pooled = self._saved()
        grad_x = grad_out[:, : self.channels].copy()
        for i, (pool, conv, up) in enumerate(zip(self.pools, self.reducers, self.ups)):
            lo = self.channels + i * self.reduce_ch
            g = grad_out[:, lo : lo + self.reduce_ch]
            grad_x += pool.backward(conv.backward(up.backward(g), [pooled[i]]))
        return grad_x
