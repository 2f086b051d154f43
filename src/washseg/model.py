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

import time
from dataclasses import dataclass, asdict

import numpy as np

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


@dataclass
class ArchConfig:
    input_length: int = 64
    in_channels_per_branch: int = 3
    encoder_channels: tuple = (8, 16, 32)
    bottleneck_channels: int = 64
    ppm_reduce: int = 16
    se_reduction: int = 4
    decoder_channels: tuple = (32, 16, 16)
    num_classes: int = 10
    leaky_slope: float = 0.01

    def validate(self):
        stages = len(self.encoder_channels)
        if stages == 0:
            raise ValueError("encoder_channels needs at least one stage")
        sizes = (self.input_length, self.in_channels_per_branch, self.bottleneck_channels,
                 self.ppm_reduce, self.se_reduction, *self.encoder_channels,
                 *self.decoder_channels)
        if min(sizes) < 1:
            raise ValueError("lengths, channel counts and se_reduction must be positive")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope {self.leaky_slope} outside [0, 1]")
        if self.input_length % (2**stages) != 0:
            raise ValueError(
                f"input_length {self.input_length} not divisible by 2^{stages}"
            )
        bins = max(PPMBlock.POOL_SIZES)
        if self.bottleneck_length % bins != 0:
            raise ValueError(
                f"input_length {self.input_length} gives bottleneck length "
                f"{self.bottleneck_length}, not divisible by the largest PPM bin {bins}"
            )
        if self.bottleneck_channels != 2 * self.encoder_channels[-1]:
            raise ValueError("bottleneck_channels must be twice the last encoder stage")
        if len(self.decoder_channels) != stages:
            raise ValueError("decoder_channels needs one stage per encoder stage")
        if self.num_classes != 10:
            raise ValueError("num_classes must be 10")
        return self

    @property
    def bottleneck_length(self) -> int:
        return self.input_length // (2 ** len(self.encoder_channels))

    def to_text(self) -> str:
        lines = []
        for key, value in asdict(self).items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ArchConfig":
        defaults = asdict(cls())
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"architecture line '{line}' has no '='")
            if key not in defaults:
                raise ValueError(f"unknown architecture key '{key}'")
            if key in kwargs:
                raise ValueError(f"architecture key '{key}' is repeated")
            kind = type(defaults[key])
            try:
                kwargs[key] = (tuple(int(v) for v in value.split(",")) if kind is tuple
                               else kind(value))
            except ValueError:
                raise ValueError(f"architecture key '{key}' has bad value '{value}'") from None
        return cls(**kwargs).validate()


class _EncStage(Layer):
    """conv(k=3, pad=1) -> batchnorm -> leaky relu -> maxpool/2."""

    def __init__(self, in_ch, out_ch, slope, rng):
        self.conv = Conv1d(in_ch, out_ch, 3, pad=1, rng=rng)
        self.bn = BatchNorm1d(out_ch)
        self.act = LeakyReLU(slope)
        self.pool = MaxPool1d(2, 2)

    def children(self):
        return {"conv": self.conv, "bn": self.bn}

    def forward(self, x, mode):
        act = self.act.forward(self.bn.forward(self.conv.forward(x, mode), mode), mode)
        return act, self.pool.forward(act, mode)

    def backward(self, grad_pooled, grad_skip):
        g = self.pool.backward(grad_pooled) + grad_skip
        return self.conv.backward(self.bn.backward(self.act.backward(g)))


class _DecStage(Layer):
    """upsample x2 -> concat both branches' skip features -> conv -> bn -> leaky."""

    def __init__(self, in_ch, out_ch, slope, rng):
        self.up = Upsample1d(2)
        self.conv = Conv1d(in_ch, out_ch, 3, pad=1, rng=rng)
        self.bn = BatchNorm1d(out_ch)
        self.act = LeakyReLU(slope)
        self._split = None

    def children(self):
        return {"conv": self.conv, "bn": self.bn}

    def forward(self, x, skip_a, skip_g, mode):
        up = self.up.forward(x, mode)
        self._split = (up.shape[1], skip_a.shape[1], skip_g.shape[1])
        cat = np.concatenate([up, skip_a, skip_g], axis=1)
        return self.act.forward(self.bn.forward(self.conv.forward(cat, mode), mode), mode)

    def backward(self, grad_out):
        g = self.conv.backward(self.bn.backward(self.act.backward(grad_out)))
        c_up, c_a, c_g = self._split
        grad_up = self.up.backward(g[:, :c_up])
        grad_skip_a = g[:, c_up : c_up + c_a]
        grad_skip_g = g[:, c_up + c_a :]
        return grad_up, grad_skip_a, grad_skip_g


class GestureNet(Layer):
    """The assembled dual-branch model."""

    def __init__(self, config: ArchConfig, seed: int = 0):
        self.config = config.validate()
        rng = np.random.default_rng(seed)
        slope = config.leaky_slope
        chans = config.encoder_channels

        def branch():
            stages = []
            in_ch = config.in_channels_per_branch
            for out_ch in chans:
                stages.append(_EncStage(in_ch, out_ch, slope, rng))
                in_ch = out_ch
            return stages

        self.enc_a = branch()
        self.enc_g = branch()
        self.se_a = SEBlock(chans[-1], config.se_reduction, slope, rng=rng)
        self.se_g = SEBlock(chans[-1], config.se_reduction, slope, rng=rng)
        self.ppm = PPMBlock(config.bottleneck_channels, config.ppm_reduce, rng=rng)

        self.dec = []
        in_ch = self.ppm.out_channels
        for i, out_ch in enumerate(config.decoder_channels):
            stage_idx = len(chans) - 1 - i  # skip resolution used by this stage
            skip_ch = 2 * chans[stage_idx]
            self.dec.append(_DecStage(in_ch + skip_ch, out_ch, slope, rng))
            in_ch = out_ch
        self.head = Conv1d(in_ch, config.num_classes, 1, rng=rng)
        # damp the classifier init so fresh-model logits stay near uniform
        self.head.w.value *= 0.5
        for p in self.params().values():
            p.value = p.value.astype(np.float32)
            p.grad = np.zeros_like(p.value)
        for bn in self._batchnorms():
            bn.running_mean = bn.running_mean.astype(np.float32)
            bn.running_var = bn.running_var.astype(np.float32)

    # -- parameter bookkeeping ------------------------------------------------

    def children(self) -> dict:
        return {
            **{f"enc_a.{i}": st for i, st in enumerate(self.enc_a)},
            **{f"enc_g.{i}": st for i, st in enumerate(self.enc_g)},
            "se_a": self.se_a,
            "se_g": self.se_g,
            "ppm": self.ppm,
            **{f"dec.{i}": st for i, st in enumerate(self.dec)},
            "head": self.head,
        }

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params().values())

    def _batchnorms(self):
        return [m for m in self.modules() if isinstance(m, BatchNorm1d)]

    # -- forward / backward ---------------------------------------------------

    def forward(self, accel, gyro, mode="eval"):
        """(B,3,L)+(B,3,L) -> logits (B,10,L), in the parameters' dtype."""
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

        skips_a, skips_g = [], []
        xa, xg = accel, gyro
        for st_a, st_g in zip(self.enc_a, self.enc_g):
            act_a, xa = st_a.forward(xa, mode)
            act_g, xg = st_g.forward(xg, mode)
            skips_a.append(act_a)
            skips_g.append(act_g)

        xa = self.se_a.forward(xa, mode)
        xg = self.se_g.forward(xg, mode)
        bottleneck = np.concatenate([xa, xg], axis=1)
        x = self.ppm.forward(bottleneck, mode)

        for i, st in enumerate(self.dec):
            stage_idx = len(self.enc_a) - 1 - i
            x = st.forward(x, skips_a[stage_idx], skips_g[stage_idx], mode)
        logits = self.head.forward(x, mode)
        if not np.isfinite(logits).all():
            raise FloatingPointError("non-finite logits produced")
        return logits

    def backward(self, grad_logits):
        g = self.head.backward(grad_logits)
        grad_skips_a = [None] * len(self.enc_a)
        grad_skips_g = [None] * len(self.enc_g)
        for i in range(len(self.dec) - 1, -1, -1):
            stage_idx = len(self.enc_a) - 1 - i
            g, gs_a, gs_g = self.dec[i].backward(g)
            grad_skips_a[stage_idx] = gs_a
            grad_skips_g[stage_idx] = gs_g
        g = self.ppm.backward(g)
        c = self.config.encoder_channels[-1]
        ga = self.se_a.backward(g[:, :c])
        gg = self.se_g.backward(g[:, c:])
        for branch, stages, grad, skips in (
            ("a", self.enc_a, ga, grad_skips_a),
            ("g", self.enc_g, gg, grad_skips_g),
        ):
            x_grad = grad
            for i in range(len(stages) - 1, -1, -1):
                x_grad = stages[i].backward(x_grad, skips[i])

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
            value = np.asarray(tensors[name], dtype=np.float64)
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
        try:
            model = cls(ArchConfig.from_text(config_text))
        except ValueError as e:
            raise ckpt.CheckpointError(f"checkpoint architecture: {e}") from None
        model._apply_tensors(tensors)
        return model

    def size_report(self) -> dict:
        return ckpt.size_report(self.config.to_text(), self.named_tensors())


@dataclass
class TrainHyper:
    lr: float = 0.001
    batch: int = 256  # desk-scale default; original setting used 16384
    epochs: int = 500
    seed: int = 0
    plateau_patience: int = 20
    plateau_rel_change: float = 0.001


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    seconds: float


def windows_to_arrays(windows):
    """Stack a window list into (N,3,L) accel/gyro and (N,L) label arrays."""
    accel = np.stack([w.accel_slice for w in windows]).astype(np.float64)
    gyro = np.stack([w.gyro_slice for w in windows]).astype(np.float64)
    labels = np.stack([w.label_slice for w in windows]).astype(np.int64)
    return accel, gyro, labels


def train(model: GestureNet, windows, hyper: TrainHyper, verbose=False):
    """Minimize mean sample-wise cross-entropy over a window dataset.

    Deterministic given hyper.seed (single-threaded). Stops early once the
    epoch loss changes by less than ``plateau_rel_change`` (relative) over
    ``plateau_patience`` consecutive epochs.
    """
    if len(windows) == 0:
        raise ValueError("training dataset is empty")
    accel, gyro, labels = (
        windows if isinstance(windows, tuple) else windows_to_arrays(windows)
    )
    n = accel.shape[0]
    rng = np.random.default_rng(hyper.seed)
    opt = Adam(lr=hyper.lr)
    logs = []
    history = []
    for epoch in range(hyper.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        total_correct = 0
        total_samples = 0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            xb_a, xb_g, yb = accel[idx], gyro[idx], labels[idx]
            model.zero_grad()
            logits = model.forward(xb_a, xb_g, mode="train")
            loss, grad = softmax_cross_entropy(logits, yb)
            model.backward(grad)
            opt.step(model.params())
            total_loss += loss * idx.size
            total_correct += int((logits.argmax(axis=1) == yb).sum())
            total_samples += yb.size
        epoch_loss = total_loss / n
        acc = total_correct / total_samples
        logs.append(EpochLog(epoch, epoch_loss, acc, time.perf_counter() - t0))
        if verbose:
            print(f"epoch {epoch:4d}  loss {epoch_loss:.5f}  acc {acc:.4f}")
        history.append(epoch_loss)
        if len(history) > hyper.plateau_patience:
            past = history[-1 - hyper.plateau_patience]
            if abs(past - epoch_loss) < hyper.plateau_rel_change * abs(past):
                break
    return logs
