"""Dense 1D layer library with hand-derived backward passes.

Tensors are numpy arrays shaped (batch, channels, time) unless noted
otherwise. Layers compute in the dtype of their input and parameters and
allocate nothing wider: ``GestureNet`` holds float32, the precision its
checkpoints store, and tests cast a model to float64 to gradcheck it through
the same code. Layers cache their input (activations: their output) and
derive masks, normalized inputs and argmax positions in backward, which
raises ``RuntimeError`` without a prior forward. Kernels read strided slices
and never copy their input. Parameter values are only ever mutated by an
optimizer — forward/backward touch gradients exclusively.

Layers form one tree: leaves (``Conv1d``, ``BatchNorm1d``, ``Linear``) own
their ``Param`` slots, composites only declare their sublayers in ``children``,
and the base ``params`` names every slot by its dotted path (``dec.0.bn.gamma``),
which is also its checkpoint tensor name. ``modules`` walks the same tree.
"""

from __future__ import annotations

import math

import numpy as np


class Param:
    """A trainable tensor slot with a same-shaped gradient slot."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class Layer:
    """Base class: forward/backward pair plus a tree of named sublayers."""

    def children(self) -> dict:
        """Direct sublayers by name, in parameter order."""
        return {}

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

    def forward(self, x, mode="train"):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


def _require_cache(cache, name):
    if cache is None:
        raise RuntimeError(f"{name}.backward called without a forward cache")
    return cache


def _window_slices(t_in, window, stride):
    """Slice j picks element j of every pooling window along time."""
    span = (t_in - window) // stride * stride + 1
    return [slice(j, j + span, stride) for j in range(window)]


class Conv1d(Layer):
    """Cross-correlation with zero padding.

    Output length is floor((T + 2*pad - K) / stride) + 1. Output j of tap k
    reads input j*stride + k - pad; each tap's span is clipped to x, so the
    padding is never materialised.
    """

    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, rng=None):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        if rng is None:
            rng = np.random.default_rng(0)
        bound = math.sqrt(6.0 / (in_ch * kernel))
        self.w = Param(rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel)))
        self.b = Param(np.zeros(out_ch))
        self._cache = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def _spans(self, t_in):
        """(tap, output slice, input slice) for every tap that reaches x."""
        s, p = self.stride, self.pad
        t_out = (t_in + 2 * p - self.kernel) // s + 1
        spans = []
        for k in range(self.kernel):
            lo, hi = max(0, (p - k + s - 1) // s), min(t_out, (t_in - 1 + p - k) // s + 1)
            if hi > lo:
                spans.append((k, slice(lo, hi), slice(lo * s + k - p, (hi - 1) * s + k - p + 1, s)))
        return t_out, spans

    def forward(self, x, mode="train"):
        if x.shape[1] != self.in_ch:
            raise ValueError(
                f"conv1d: input has {x.shape[1]} channels, weights expect {self.in_ch}"
            )
        if x.shape[2] + 2 * self.pad < self.kernel:
            raise ValueError("conv1d: padded input shorter than kernel")
        t_out, spans = self._spans(x.shape[2])
        taps = np.ascontiguousarray(self.w.value.transpose(2, 0, 1))  # (K, O, C)
        out = np.broadcast_to(self.b.value[:, None], (x.shape[0], self.out_ch, t_out)).copy()
        # (O, C) @ (C, T') per example keeps the reduction order independent of
        # batch size, so eval outputs are bit-identical however windows are
        # batched; one flat (B*T', C*K) GEMM is not (README, "Layer kernels")
        for k, o_sl, i_sl in spans:
            out[:, :, o_sl] += taps[k] @ x[:, :, i_sl]
        self._cache = (x, taps, spans)
        return out

    def backward(self, grad_out):
        x, taps, spans = _require_cache(self._cache, "Conv1d")
        grad_x = np.zeros_like(x)
        for k, o_sl, i_sl in spans:
            g = grad_out[:, :, o_sl]
            grad_x[:, :, i_sl] += taps[k].T @ g
            self.w.grad[:, :, k] += (g @ x[:, :, i_sl].transpose(0, 2, 1)).sum(axis=0)
        self.b.grad += grad_out.sum(axis=(0, 2))
        return grad_x


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the (batch, time) axes."""

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x, mode="train"):
        if mode == "train":
            n = x.shape[0] * x.shape[2]
            if n < 2:
                raise ValueError("batchnorm train mode needs at least 2 samples per channel")
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma.value * inv_std
        shift = self.beta.value - mean * scale
        self._cache = (x, mean, inv_std, mode)
        return x * scale[:, None] + shift[:, None]

    def backward(self, grad_out):
        x, mean, inv_std, mode = _require_cache(self._cache, "BatchNorm1d")
        xhat = (x - mean[:, None]) * inv_std[:, None]
        d_gamma = (grad_out * xhat).sum(axis=(0, 2))
        d_beta = grad_out.sum(axis=(0, 2))
        self.gamma.grad += d_gamma
        self.beta.grad += d_beta
        scale = self.gamma.value * inv_std
        if mode != "train":
            return grad_out * scale[:, None]
        # batch-statistics gradient; its reductions are gamma*d_beta, gamma*d_gamma
        n = grad_out.shape[0] * grad_out.shape[2]
        grad_x = n * grad_out - d_beta[:, None]
        grad_x -= xhat * d_gamma[:, None]
        grad_x *= (scale / n)[:, None]
        return grad_x


class LeakyReLU(Layer):
    def __init__(self, slope=0.01):
        if not 0.0 <= slope <= 1.0:
            raise ValueError("leaky relu slope must lie in [0, 1]")
        self.slope = slope
        self._cache = None

    def forward(self, x, mode="train"):
        out = np.maximum(x, self.slope * x)
        self._cache = out  # out > 0 exactly where x > 0, for slope in [0, 1]
        return out

    def backward(self, grad_out):
        out = _require_cache(self._cache, "LeakyReLU")
        return np.where(out > 0, grad_out, self.slope * grad_out)


class Sigmoid(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, mode="train"):
        # exp(-x) overflows to inf below x = -88.7 in float32; 1/(1+inf) = 0
        # is the correct limit, so the overflow is not an error
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-x))
        self._cache = out
        return out

    def backward(self, grad_out):
        out = _require_cache(self._cache, "Sigmoid")
        return grad_out * out * (1.0 - out)


class MaxPool1d(Layer):
    """Max over each window; ties go to the earliest position in it."""

    def __init__(self, window, stride=None):
        self.window = window
        self.stride = stride if stride is not None else window
        self._cache = None

    def forward(self, x, mode="train"):
        if x.shape[2] < self.window:
            raise ValueError("maxpool1d: input shorter than pooling window")
        first, *rest = _window_slices(x.shape[2], self.window, self.stride)
        out = x[:, :, first].copy()
        for sl in rest:
            np.maximum(out, x[:, :, sl], out=out)
        self._cache = (x, out)
        return out

    def backward(self, grad_out):
        x, out = _require_cache(self._cache, "MaxPool1d")
        grad_x = np.zeros_like(x)
        free = np.ones(out.shape, dtype=bool)  # gradient not yet routed
        for sl in _window_slices(x.shape[2], self.window, self.stride):
            hit = free & (x[:, :, sl] == out)
            grad_x[:, :, sl] += np.where(hit, grad_out, 0.0)
            free &= ~hit
        return grad_x


class AvgPool1d(Layer):
    def __init__(self, window, stride=None):
        self.window = window
        self.stride = stride if stride is not None else window
        self._cache = None

    def forward(self, x, mode="train"):
        if x.shape[2] < self.window:
            raise ValueError("avgpool1d: input shorter than pooling window")
        slices = _window_slices(x.shape[2], self.window, self.stride)
        self._cache = x
        return sum(x[:, :, sl] for sl in slices) / self.window

    def backward(self, grad_out):
        x = _require_cache(self._cache, "AvgPool1d")
        grad_x = np.zeros_like(x)
        share = grad_out / self.window
        for sl in _window_slices(x.shape[2], self.window, self.stride):
            grad_x[:, :, sl] += share
        return grad_x


class Upsample1d(Layer):
    """Nearest-neighbor temporal upsampling by an integer factor."""

    def __init__(self, factor):
        self.factor = factor

    def forward(self, x, mode="train"):
        return np.repeat(x, self.factor, axis=2)

    def backward(self, grad_out):
        b, c, t = grad_out.shape
        return grad_out.reshape(b, c, t // self.factor, self.factor).sum(axis=3)


class Linear(Layer):
    """Affine map on (batch, features) inputs."""

    def __init__(self, in_features, out_features, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        bound = math.sqrt(6.0 / in_features)
        self.w = Param(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.b = Param(np.zeros(out_features))
        self._cache = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, mode="train"):
        if x.shape[1] != self.w.value.shape[0]:
            raise ValueError("linear: feature dimension mismatch")
        self._cache = x
        # (B,1,F)@(F,O): per-example reduction, bit-stable across batch sizes
        return (x[:, None, :] @ self.w.value)[:, 0, :] + self.b.value

    def backward(self, grad_out):
        x = _require_cache(self._cache, "Linear")
        self.w.grad += x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value.T


class SEBlock(Layer):
    """Squeeze-and-excitation channel gating.

    Squeeze is the per-channel temporal mean; the excitation MLP is
    C -> C/r -> C with a leaky-ReLU hidden layer and a sigmoid gate.
    """

    def __init__(self, channels, reduction=4, slope=0.01, rng=None):
        hidden = max(1, channels // reduction)
        self.channels = channels
        self.fc1 = Linear(channels, hidden, rng=rng)
        self.act = LeakyReLU(slope)
        self.fc2 = Linear(hidden, channels, rng=rng)
        self.gate = Sigmoid()
        self._cache = None

    def children(self):
        return {"fc1": self.fc1, "fc2": self.fc2}

    def forward(self, x, mode="train"):
        squeeze = x.mean(axis=2)
        g = self.gate.forward(
            self.fc2.forward(self.act.forward(self.fc1.forward(squeeze, mode), mode), mode),
            mode,
        )
        self._cache = (x, g)
        return x * g[:, :, None]

    def backward(self, grad_out):
        x, g = _require_cache(self._cache, "SEBlock")
        grad_x = grad_out * g[:, :, None]
        grad_g = (grad_out * x).sum(axis=2)
        grad_s = self.fc1.backward(
            self.act.backward(self.fc2.backward(self.gate.backward(grad_g)))
        )
        grad_x += grad_s[:, :, None] / x.shape[2]
        return grad_x


class PPMBlock(Layer):
    """Pyramid pooling over a temporal feature map.

    Average pools at window/stride 8, 4, 2, reduces each pooled map to
    ``reduce_ch`` channels with a 1-tap convolution, upsamples back to the
    input length, and concatenates with the input along channels.
    """

    POOL_SIZES = (8, 4, 2)

    def __init__(self, channels, reduce_ch=16, rng=None):
        self.channels = channels
        self.reduce_ch = reduce_ch
        self.pools = [AvgPool1d(s, s) for s in self.POOL_SIZES]
        self.reducers = [Conv1d(channels, reduce_ch, 1, rng=rng) for _ in self.POOL_SIZES]
        self.ups = [Upsample1d(s) for s in self.POOL_SIZES]

    @property
    def out_channels(self):
        return self.channels + len(self.POOL_SIZES) * self.reduce_ch

    def children(self):
        return {f"reduce{i}": conv for i, conv in enumerate(self.reducers)}

    def forward(self, x, mode="train"):
        t = x.shape[2]
        if t % max(self.POOL_SIZES) != 0:
            raise ValueError(f"ppm_block: temporal length {t} not divisible by 8")
        branches = [x] + [up.forward(conv.forward(pool.forward(x, mode), mode), mode)
                          for pool, conv, up in zip(self.pools, self.reducers, self.ups)]
        return np.concatenate(branches, axis=1)

    def backward(self, grad_out):
        grad_x = grad_out[:, : self.channels].copy()
        for i, (pool, conv, up) in enumerate(zip(self.pools, self.reducers, self.ups)):
            lo = self.channels + i * self.reduce_ch
            g = grad_out[:, lo : lo + self.reduce_ch]
            grad_x += pool.backward(conv.backward(up.backward(g)))
        return grad_x
