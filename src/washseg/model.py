"""Dual-branch 1D U-Net for sample-wise gesture segmentation.

Two weight-independent encoder branches (accelerometer, gyroscope) each
downsample 64 -> 32 -> 16 -> 8 in time. Per-branch squeeze-and-excitation
gates the 8-length bottleneck features, the branches concatenate, a
pyramid-pooling block widens the channel mix, and a shared decoder with
skip connections from both branches restores full temporal resolution for
a per-sample 10-way classifier head.

The model computes in float32, the precision its checkpoints store, in
training and inference alike; inputs are cast to it at ``forward``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nn import (
    Adam,
    BatchNorm1d,
    Conv1d,
    Layer,
    LeakyReLU,
    MaxPool1d,
    PPMBlock,
    SEBlock,
    Upsample1d,
    softmax_cross_entropy,
)
from .nn import checkpoint as ckpt
from .signal_data import DEFAULT_WINDOW, NUM_CLASSES, WindowSet


@dataclass(frozen=True)
class ArchConfig:
    """The one architecture, stored as the checkpoint header's ``key=value``
    text. Every field is a constant, so ``ArchConfig()`` takes no arguments,
    and ``GestureNet.load`` refuses any header but ``to_text()``'s."""

    input_length: int = field(default=DEFAULT_WINDOW, init=False)
    in_channels_per_branch: int = field(default=3, init=False)  # accelerometer or gyroscope axes
    encoder_channels: tuple = field(default=(8, 16, 32), init=False)
    bottleneck_channels: int = field(default=64, init=False)
    ppm_reduce: int = field(default=16, init=False)
    se_reduction: int = field(default=4, init=False)
    decoder_channels: tuple = field(default=(32, 16, 16), init=False)
    num_classes: int = field(default=NUM_CLASSES, init=False)
    leaky_slope: float = field(default=0.01, init=False)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


class _ConvBnAct(Layer):
    """conv(k=3, pad=1) -> batchnorm -> leaky relu, the core of every stage.

    ``_conv_bn_act`` is the model's one train/eval branch. In eval the conv
    applies the norm folded into its taps and bias; in both modes the
    activation writes into the stage's own fresh array, never into the input.
    """

    def __init__(self, in_ch, out_ch, slope, rng):
        self.conv = Conv1d(in_ch, out_ch, 3, rng=rng)
        self.bn = BatchNorm1d(out_ch)
        self.act = LeakyReLU(slope)

    def _conv_bn_act(self, x, training):
        if training:
            y = self.bn.forward(self.conv.forward(x))
        else:
            y = self.conv.forward(x, fold=self.bn)
        return self.act.forward(y, out=y)


class _EncStage(_ConvBnAct):
    """conv -> batchnorm -> leaky relu -> maxpool/2."""

    def __init__(self, in_ch, out_ch, slope, rng):
        super().__init__(in_ch, out_ch, slope, rng)
        self.pool = MaxPool1d()

    def forward(self, x, training):
        act = self._conv_bn_act(x, training)
        if training:
            self._cache = x  # the conv's input, handed back to it in backward
        return act, self.pool.forward(act)

    def backward(self, grad_pooled, grad_skip):
        x = self._saved()
        grad = self.pool.backward(grad_pooled)
        grad += grad_skip
        return self.conv.backward(self.bn.backward(self.act.backward(grad)), [x])


class _DecStage(_ConvBnAct):
    """upsample x2 -> concat both branches' skip features -> conv -> bn -> leaky.

    In training the stage keeps its input and the two skips, not the
    concatenation it convolves: the skips are the encoder's own saved
    activations, and backward re-forms the upsample from the input."""

    def __init__(self, in_ch, out_ch, slope, rng):
        self.up = Upsample1d(2)
        super().__init__(in_ch, out_ch, slope, rng)

    def forward(self, x, skip_a, skip_g, training):
        if training:
            self._cache = (x, skip_a, skip_g)
        return self._conv_bn_act(np.concatenate([self.up.forward(x), skip_a, skip_g], axis=1),
                                 training)

    def backward(self, grad_out):
        x, skip_a, skip_g = self._saved()
        grad = self.bn.backward(self.act.backward(grad_out))
        # the upsample is re-formed only now, so batch norm's backward runs without it
        grad = self.conv.backward(grad, [self.up.forward(x), skip_a, skip_g])
        c_a = grad.shape[1] - skip_a.shape[1] - skip_g.shape[1]
        c_g = c_a + skip_a.shape[1]
        # copies, so that no view keeps the whole input gradient alive until
        # the encoder runs; the upsample's part is freed once it is read
        return self.up.backward(grad[:, :c_a]), grad[:, c_a:c_g].copy(), grad[:, c_g:].copy()


class GestureNet(Layer):
    """The assembled dual-branch model.

    Only the encoder and decoder stages see ``forward``'s ``mode``, as a
    ``training`` flag. Threads may share one model for eval forwards, as
    ``pipeline.infer_track`` does: an eval forward reads only parameters and
    batch-norm buffers, and never reads the ``_cache`` attributes it writes.
    Training (a train forward and its backward) is not safe to share."""

    def __init__(self, config: ArchConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        slope = config.leaky_slope
        chans = config.encoder_channels
        enc_in = (config.in_channels_per_branch, *chans[:-1])
        self.enc_a = [_EncStage(c_in, c_out, slope, rng) for c_in, c_out in zip(enc_in, chans)]
        self.enc_g = [_EncStage(c_in, c_out, slope, rng) for c_in, c_out in zip(enc_in, chans)]
        self.se_a = SEBlock(chans[-1], config.se_reduction, slope, rng=rng)
        self.se_g = SEBlock(chans[-1], config.se_reduction, slope, rng=rng)
        self.ppm = PPMBlock(config.bottleneck_channels, config.ppm_reduce, rng=rng)
        dec_out = config.decoder_channels
        dec_in = (self.ppm.out_channels, *dec_out[:-1])
        # each decoder stage also takes both branches' skips, deepest first
        self.dec = [_DecStage(c_in + 2 * c_skip, c_out, slope, rng)
                    for c_in, c_out, c_skip in zip(dec_in, dec_out, reversed(chans))]
        self.head = Conv1d(dec_out[-1], config.num_classes, 1, rng=rng)
        # damp the classifier init so fresh-model logits stay near uniform
        self.head.w.value *= 0.5

    # -- parameter bookkeeping ------------------------------------------------

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params().values())

    def _batchnorms(self):
        return [m for m in self.modules() if isinstance(m, BatchNorm1d)]

    # -- forward / backward ---------------------------------------------------

    def forward(self, accel, gyro, mode="eval"):
        """(B,3,L)+(B,3,L) -> logits (B,10,L), in the parameters' dtype."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        training = mode == "train"
        L = self.config.input_length
        dtype = self.head.w.value.dtype
        # a finite value beyond the compute dtype's range becomes inf here,
        # and the finiteness check below names the input
        with np.errstate(over="ignore"):
            accel, gyro = np.asarray(accel, dtype=dtype), np.asarray(gyro, dtype=dtype)
        for name, x in (("accel", accel), ("gyro", gyro)):
            if x.shape[1:] != (self.config.in_channels_per_branch, L):
                raise ValueError(f"{name} input must be (B,{self.config.in_channels_per_branch},{L})")
            if not np.isfinite(x).all():
                raise ValueError(f"{name} input contains NaN/Inf")

        skips = []  # (act_a, act_g) per encoder stage, shallowest first
        xa, xg = accel, gyro
        for st_a, st_g in zip(self.enc_a, self.enc_g):
            act_a, xa = st_a.forward(xa, training)
            act_g, xg = st_g.forward(xg, training)
            skips.append((act_a, act_g))

        xa = self.se_a.forward(xa)
        xg = self.se_g.forward(xg)
        bottleneck = np.concatenate([xa, xg], axis=1)
        x = self.ppm.forward(bottleneck)

        for st, (skip_a, skip_g) in zip(self.dec, reversed(skips)):
            x = st.forward(x, skip_a, skip_g, training)
        if training:
            self._cache = x  # the head's input, handed back to it in backward
        logits = self.head.forward(x)
        if not np.isfinite(logits).all():
            raise FloatingPointError("non-finite logits produced")
        return logits

    def backward(self, grad_logits):
        g = self.head.backward(grad_logits, [self._saved()])
        skip_grads = []  # (grad_a, grad_g) per encoder stage, shallowest first
        for st in reversed(self.dec):
            g, gs_a, gs_g = st.backward(g)
            skip_grads.append((gs_a, gs_g))
        g = self.ppm.backward(g)
        c = self.config.encoder_channels[-1]
        grads_a, grads_g = zip(*skip_grads)
        for se, stages, grad, skips in ((self.se_a, self.enc_a, g[:, :c], grads_a),
                                        (self.se_g, self.enc_g, g[:, c:], grads_g)):
            grad = se.backward(grad)
            for st, gs in zip(reversed(stages), reversed(skips)):
                grad = st.backward(grad, gs)

    # -- persistence ----------------------------------------------------------

    def named_tensors(self) -> dict:
        """Checkpoint name -> the live array it is saved from and loaded into."""
        out = {name: p.value for name, p in self.params().items()}
        for i, bn in enumerate(self._batchnorms()):
            out[f"bn_stats.{i}.mean"] = bn.running_mean
            out[f"bn_stats.{i}.var"] = bn.running_var
        return out

    def save(self, path) -> int:
        """Write a checkpoint; returns its size in bits."""
        return ckpt.save_checkpoint(path, self.config.to_text(), self.named_tensors())

    def _apply_tensors(self, tensors: dict):
        """Check every tensor against its slot, then copy all of them in."""
        slots = self.named_tensors()
        for name in tensors:
            if name not in slots:
                raise ckpt.CheckpointError(f"checkpoint has unknown tensor '{name}'")
        for name, slot in slots.items():
            if name not in tensors:
                raise ckpt.CheckpointError(f"checkpoint missing tensor '{name}'")
            value = tensors[name]
            if value.shape != slot.shape:
                raise ckpt.CheckpointError(
                    f"checkpoint tensor '{name}' has shape {value.shape}, expected {slot.shape}"
                )
            if not np.isfinite(value).all():
                raise ckpt.CheckpointError(f"checkpoint tensor '{name}' contains NaN/Inf")
            if name.startswith("bn_stats.") and name.endswith(".var") and (value < 0).any():
                raise ckpt.CheckpointError(f"checkpoint tensor '{name}' is negative")
        for name, slot in slots.items():
            slot[...] = tensors[name]

    @classmethod
    def load(cls, path) -> "GestureNet":
        config_text, tensors = ckpt.load_checkpoint(path)
        expected = ArchConfig().to_text()
        if config_text != expected:
            # the first line that differs; '' past the end of either text
            pairs = zip_longest(config_text.splitlines(True), expected.splitlines(True),
                                fillvalue="")
            line, (stored, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
            raise ckpt.CheckpointError(
                f"checkpoint architecture line {line} is {stored!r}, expected {want!r}")
        model = cls(ArchConfig())
        model._apply_tensors(tensors)
        return model

    def size_report(self) -> dict:
        return ckpt.size_report(self.config.to_text(), self.named_tensors())


PLATEAU_REL_CHANGE, PLATEAU_PATIENCE = 0.001, 20


@dataclass
class TrainHyper:
    lr: float = 0.001
    batch: int = 256  # desk-scale default; original setting used 16384
    epochs: int = 500
    seed: int = 0

    def validate(self):
        """Reject a value training cannot use, naming the field (and CLI flag)."""
        for name, least in (("batch", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        return self


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    seconds: float


class WindowRows:
    """The (N, C, L) stack of a set's windows over one sensor, held as a
    float32 (C, S) copy of its recordings, concatenated in order, and each
    window's start in that copy: each sample once, however the windows overlap.

    ``shape``, ``dtype`` and ``len`` are the stack's. The one access is
    ``rows[idx]`` with a 1-D integer index array, which gathers a copy of
    the stack's rows ``idx``; any other key is refused.
    """

    def __init__(self, samples, starts, length):
        self._view = sliding_window_view(samples, length, axis=1).transpose(1, 0, 2)
        self._starts = starts
        self.shape = (starts.size, samples.shape[0], length)
        self.dtype = samples.dtype

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, idx):
        if not (isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu"):
            raise TypeError(f"WindowRows takes a 1-D integer index array, not {idx!r}")
        return self._view[self._starts[idx]]


def windows_to_arrays(windows: WindowSet):
    """(accel, gyro, labels) of a ``WindowSet``: accel and gyro as (N,3,L)
    ``WindowRows`` over float32 copies of its series' sensors, and labels as
    an (N,L) uint8 stack, one byte for a label in 0..9. ``train`` gathers a
    batch's rows from the sources as it draws the batch.

    float32 is the model's compute dtype, so ``GestureNet.forward`` casts
    nothing; a value beyond its range becomes inf, which forward rejects.
    """
    series, length = windows.series, windows.length
    starts = np.cumsum([0] + [len(s) for s in series])[windows.series_id]
    starts += windows.start
    # the concatenated labels are freed before the sensor copies are made
    label = np.concatenate([s.label for s in series], dtype=np.uint8, casting="unsafe")
    labels = sliding_window_view(label, length)[starts]
    del label
    with np.errstate(over="ignore"):
        accel, gyro = (np.concatenate([getattr(s, part) for s in series], axis=1,
                                      dtype=np.float32) for part in ("accel", "gyro"))
    return WindowRows(accel, starts, length), WindowRows(gyro, starts, length), labels


def train(model: GestureNet, windows, hyper: TrainHyper, verbose=False):
    """Minimize mean sample-wise cross-entropy over a window dataset: a
    ``WindowSet``, or the (accel, gyro, labels) tuple ``windows_to_arrays``
    makes of one. A tuple whose arrays disagree in shape, or whose labels
    are not integers, is rejected before the first step.

    Deterministic given hyper.seed (single-threaded). Stops early once the
    epoch loss changes by less than ``PLATEAU_REL_CHANGE`` (relative) over
    ``PLATEAU_PATIENCE`` consecutive epochs.
    """
    hyper.validate()
    if len(windows) == 0:
        raise ValueError("training dataset is empty")
    accel, gyro, labels = (
        windows if isinstance(windows, tuple) else windows_to_arrays(windows)
    )
    n = accel.shape[0]
    for name, arr, shape in (("gyro", gyro, accel.shape),
                             ("labels", labels, (n, accel.shape[-1]))):
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape} "
                             f"for accel of shape {accel.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels have dtype {labels.dtype}, not an integer type")
    if n == 0:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(hyper.seed)
    opt = Adam(model.params().values(), lr=hyper.lr)
    logs = []
    for epoch in range(hyper.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        total_correct = 0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            xb_a, xb_g, yb = accel[idx], gyro[idx], labels[idx]
            model.zero_grad()
            logits = model.forward(xb_a, xb_g, mode="train")
            loss, grad = softmax_cross_entropy(logits, yb)
            # the logits' last reader: they need not live through backward
            total_correct += int((logits.argmax(axis=1) == yb).sum())
            del logits
            model.backward(grad)
            opt.step()
            total_loss += loss * idx.size
        epoch_loss = total_loss / n
        acc = total_correct / labels.size
        logs.append(EpochLog(epoch, epoch_loss, acc, time.perf_counter() - t0))
        if verbose:
            print(f"epoch {epoch:4d}  loss {epoch_loss:.5f}  acc {acc:.4f}")
        if len(logs) > PLATEAU_PATIENCE:
            past = logs[-1 - PLATEAU_PATIENCE].loss
            if abs(past - epoch_loss) < PLATEAU_REL_CHANGE * abs(past):
                break
    return logs
