import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from washseg.evaluation import fold_windows
from washseg.model import (
    ArchConfig,
    GestureNet,
    PLATEAU_PATIENCE,
    _DecStage,
    _EncStage,
    TrainHyper,
    train,
    windows_to_arrays,
)
from washseg.nn import Adam, BatchNorm1d, softmax_cross_entropy
from washseg.nn import checkpoint as ckpt
from washseg.signal_data import DEFAULT_WINDOW, NUM_CLASSES, WindowSet, extract_windows
from washseg.synth import GenSpec, generate_procedure
from conftest import make_series
from helpers import cached_bytes, cast_model, traced
import oracle


HEADER = ArchConfig().to_text()


class TestArchConfig:
    def test_defaults_valid(self):
        # the window length and class count have one source each
        cfg = ArchConfig()
        assert (cfg.input_length, cfg.num_classes) == (DEFAULT_WINDOW, NUM_CLASSES) == (64, 10)
        out = GestureNet(cfg).forward(np.zeros((2, 3, 64)), np.zeros((2, 3, 64)))
        assert out.shape == (2, 10, 64)

    def test_bad_input_length_rejected(self):
        with pytest.raises(TypeError, match="'input_length'"):
            ArchConfig(input_length=60)

    def test_bad_num_classes_rejected(self):
        with pytest.raises(TypeError, match="'num_classes'"):
            ArchConfig(num_classes=5)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ArchConfig)])
    def test_every_field_refused_by_name(self, name):
        # even at its own value; nor can a built config's field be assigned
        cfg = ArchConfig()
        with pytest.raises(TypeError, match=f"'{name}'"):
            ArchConfig(**{name: getattr(cfg, name)})
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            setattr(cfg, name, getattr(cfg, name))

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError, match="'bogus'"):
            ArchConfig(bogus=3)

    def test_text_round_trip(self, tmp_path):
        # the header save writes is the one load accepts
        path = tmp_path / "m.ckpt"
        GestureNet(ArchConfig(), seed=0).save(path)
        assert ckpt.load_checkpoint(path)[0] == HEADER
        assert GestureNet.load(path).config == ArchConfig()

    # (header line, its replacement, the message naming the first line that
    # differs); '' stands for a line past the end of either header. The last
    # four keep the header's values and change only its form
    @pytest.mark.parametrize("old,new,message", [
        ("input_length=64\n", "input_length\n",
         r"line 1 is 'input_length\n', expected 'input_length=64\n'"),
        ("input_length=64\n", "input_length=x\n",
         r"line 1 is 'input_length=x\n', expected 'input_length=64\n'"),
        ("input_length=64\n", "input_length=64.0\n",
         r"line 1 is 'input_length=64.0\n', expected 'input_length=64\n'"),
        ("leaky_slope=0.01\n", "leaky_slope=x\n",
         r"line 9 is 'leaky_slope=x\n', expected 'leaky_slope=0.01\n'"),
        ("encoder_channels=8,16,32\n", "encoder_channels=8,x\n",
         r"line 3 is 'encoder_channels=8,x\n', expected 'encoder_channels=8,16,32\n'"),
        ("leaky_slope=0.01\n", "leaky_slope=0.01\nseed=1\n",
         r"line 10 is 'seed=1\n', expected ''"),
        ("leaky_slope=0.01\n", "leaky_slope=0.01\nleaky_slope=0.01\n",
         r"line 10 is 'leaky_slope=0.01\n', expected ''"),
        ("input_length=64\n", "input_length=6x4\n",
         r"line 1 is 'input_length=6x4\n', expected 'input_length=64\n'"),
        ("input_length=64\n", "input_length=63\n",
         r"line 1 is 'input_length=63\n', expected 'input_length=64\n'"),
        ("input_length=64\n", "input_length=32\n",
         r"line 1 is 'input_length=32\n', expected 'input_length=64\n'"),
        ("input_length=64\n", "bogus=3\n",
         r"line 1 is 'bogus=3\n', expected 'input_length=64\n'"),
        *[("in_channels_per_branch=3\n", f"in_channels_per_branch={c}\n",
           rf"line 2 is 'in_channels_per_branch={c}\n', expected 'in_channels_per_branch=3\n'")
          for c in (1, 2, 4)],
        ("leaky_slope=0.01\n", "leaky_slope=0.01\ninput_length=128\n",
         r"line 10 is 'input_length=128\n', expected ''"),
        ("input_length=64\n", "# a comment\ninput_length=64\n",
         r"line 1 is '# a comment\n', expected 'input_length=64\n'"),
        ("input_length=64\n", " input_length = 64 \n",
         r"line 1 is ' input_length = 64 \n', expected 'input_length=64\n'"),
        ("leaky_slope=0.01\n", "",
         r"line 9 is '', expected 'leaky_slope=0.01\n'"),
        ("input_length=64\nin_channels_per_branch=3\n",
         "in_channels_per_branch=3\ninput_length=64\n",
         r"line 1 is 'in_channels_per_branch=3\n', expected 'input_length=64\n'"),
    ], ids=["no-equals", "bad-int", "float-for-int", "bad-float", "bad-tuple", "unknown-key",
            "repeated-key", "6x4", "63", "32", "bogus", "channels-1", "channels-2", "channels-4",
            "input_length-repeated", "comment", "padded", "missing-key", "swapped"])
    def test_bad_line_named(self, tmp_path, old, new, message):
        # every tensor is intact: only the header refuses the checkpoint
        assert HEADER.count(old) == 1
        model = GestureNet(ArchConfig(), seed=4)
        path = tmp_path / "config.ckpt"
        ckpt.save_checkpoint(path, HEADER.replace(old, new), model.named_tensors())
        with pytest.raises(ckpt.CheckpointError,
                           match=f"^{re.escape('checkpoint architecture ' + message)}$"):
            GestureNet.load(path)


class TestShapes:
    def test_io_shapes(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        out = m.forward(rng.standard_normal((5, 3, 64)), rng.standard_normal((5, 3, 64)))
        assert out.shape == (5, 10, 64)

    def test_bottleneck_shapes(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        seen = {}
        orig_ppm_forward = m.ppm.forward

        def spy(x):
            seen["pre"] = x.shape
            out = orig_ppm_forward(x)
            seen["post"] = out.shape
            return out

        m.ppm.forward = spy
        m.forward(rng.standard_normal((3, 3, 64)), rng.standard_normal((3, 3, 64)))
        assert seen["pre"] == (3, 64, 8)
        assert seen["post"] == (3, 112, 8)

    def test_parameter_count_matches_hand_count(self):
        m = GestureNet(ArchConfig(), seed=0)
        # per branch: conv 3x8x3+8, 8x16x3+16, 16x32x3+32; bn gamma+beta per stage
        enc = (3 * 8 * 3 + 8) + (8 * 16 * 3 + 16) + (16 * 32 * 3 + 32)
        enc_bn = 2 * (8 + 16 + 32)
        se = (32 * 8 + 8) + (8 * 32 + 32)
        ppm = 3 * (64 * 16 * 1 + 16)
        dec = (
            (112 + 64) * 32 * 3 + 32
            + (32 + 32) * 16 * 3 + 16
            + (16 + 16) * 16 * 3 + 16
        )
        dec_bn = 2 * (32 + 16 + 16)
        head = 16 * 10 + 10
        expected = 2 * (enc + enc_bn + se) + ppm + dec + dec_bn + head
        assert m.parameter_count() == expected

    def test_nan_input_rejected(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        a = rng.standard_normal((1, 3, 64))
        a[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            m.forward(a, rng.standard_normal((1, 3, 64)))

    def test_wrong_shape_rejected(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        with pytest.raises(ValueError):
            m.forward(rng.standard_normal((1, 3, 32)), rng.standard_normal((1, 3, 32)))

    @pytest.mark.parametrize("name", ["accel", "gyro"])
    def test_finite_input_beyond_float32_range_rejected(self, rng, name):
        # 1e39 is finite in float64 and inf in float32, the compute dtype
        x = {"accel": rng.standard_normal((2, 3, 64)), "gyro": rng.standard_normal((2, 3, 64))}
        x[name][1, 2, 5] = 1e39
        with pytest.raises(ValueError, match=f"{name} input contains NaN/Inf"):
            GestureNet(ArchConfig(), seed=0).forward(x["accel"], x["gyro"])


PINNED_CKPT = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"


class TestModuleTree:
    def test_tensor_names_match_pinned_checkpoint(self):
        _, stored = ckpt.load_checkpoint(PINNED_CKPT)
        assert list(GestureNet(ArchConfig()).named_tensors()) == list(stored)

    def test_pinned_checkpoint_resaves_byte_identical(self, tmp_path):
        out = tmp_path / "resaved.ckpt"
        GestureNet.load(PINNED_CKPT).save(out)
        assert out.read_bytes() == PINNED_CKPT.read_bytes()

    def test_batchnorm_modules_in_branch_then_decoder_order(self):
        m = GestureNet(ArchConfig(), seed=0)
        bns = [l for l in m.modules() if isinstance(l, BatchNorm1d)]
        expected = [st.bn for st in m.enc_a + m.enc_g + m.dec]
        assert len(bns) == 9
        assert bns == expected

    def test_every_layer_has_a_dotted_path(self):
        def named_modules(layer, prefix=""):
            out = {}
            for name, child in layer.children().items():
                out[prefix + name] = child
                out.update(named_modules(child, f"{prefix}{name}."))
            return out

        m = GestureNet(ArchConfig(), seed=0)
        expected = {"ppm": m.ppm, "head": m.head}
        for branch in ("a", "g"):
            se = getattr(m, f"se_{branch}")
            expected.update({f"se_{branch}": se, f"se_{branch}.act": se.act,
                             f"se_{branch}.gate": se.gate})
            for i, st in enumerate(getattr(m, f"enc_{branch}")):
                for part in ("conv", "bn", "act", "pool"):
                    expected[f"enc_{branch}.{i}.{part}"] = getattr(st, part)
        for i, st in enumerate(m.dec):
            for part in ("up", "conv", "bn", "act"):
                expected[f"dec.{i}.{part}"] = getattr(st, part)
        for i in range(3):
            expected[f"ppm.pool{i}"] = m.ppm.pools[i]
            expected[f"ppm.up{i}"] = m.ppm.ups[i]
        paths = named_modules(m)
        for path, layer in expected.items():
            assert paths[path] is layer, path
        modules = list(m.modules())
        assert len(modules) == len({id(l) for l in modules}) == 67

    def test_zero_grad_clears_every_slot(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        logits = m.forward(rng.standard_normal((2, 3, 64)), rng.standard_normal((2, 3, 64)),
                           mode="train")
        m.backward(np.ones_like(logits))
        assert any(p.grad.any() for p in m.params().values())
        m.zero_grad()
        assert not any(p.grad.any() for p in m.params().values())


class TestPrecision:
    def test_fresh_init_checkpoint_bytes_are_pinned(self):
        # moves with the construction dtype or the order of the init draws
        m = GestureNet(ArchConfig(), seed=0)
        blob = ckpt.serialize(m.config.to_text(), m.named_tensors())
        assert hashlib.sha256(blob).hexdigest() == (
            "9242cbb10032c40e500d9eca7d95577463c0410da3227b81c0047865789970f9")

    def test_float32_from_init_through_training_and_load(self, rng, tmp_path):
        m = GestureNet(ArchConfig(), seed=0)
        a = rng.standard_normal((4, 3, 64))  # float64 input is cast at forward
        logits = m.forward(a, a[::-1], mode="train")
        loss, grad = softmax_cross_entropy(logits, rng.integers(0, 10, size=(4, 64)))
        m.backward(grad)
        opt = Adam(m.params().values())
        opt.step()
        assert logits.dtype == grad.dtype == np.float32
        assert {p.grad.dtype for p in m.params().values()} == {np.dtype(np.float32)}
        assert {v.dtype for v in opt.m + opt.v} == {np.dtype(np.float32)}
        m.save(tmp_path / "m.ckpt")
        for model in (m, GestureNet.load(tmp_path / "m.ckpt")):
            assert {v.dtype for v in model.named_tensors().values()} == {np.dtype(np.float32)}


def _stage_with_stats(rng, cls, in_ch, out_ch):
    """A float64 stage whose batch norm and bias are far from their init."""
    stage = cast_model(cls(in_ch, out_ch, 0.1, rng))
    stage.conv.b.value = rng.standard_normal(out_ch)
    stage.bn.gamma.value = rng.uniform(0.5, 2.0, out_ch) * rng.choice([-1, 1], out_ch)
    stage.bn.beta.value = rng.standard_normal(out_ch)
    stage.bn.running_mean = rng.standard_normal(out_ch)
    stage.bn.running_var = rng.uniform(0.2, 3.0, out_ch)
    return stage


class TestFoldedStages:
    def test_folded_eval_equals_unfolded_within_float32_rounding(self, rng):
        stage = _stage_with_stats(rng, _EncStage, 5, 8)
        x = rng.standard_normal((4, 5, 32))
        ref = stage.act.forward(oracle.batchnorm_eval(stage.bn, stage.conv.forward(x)))
        # float32 evaluation of a (C*K)-term dot product plus bias, scale and
        # shift: at most C*K + 4 roundings of the sum of the terms' magnitudes
        # (the leaky activation is 1-Lipschitz)
        scale, shift = stage.bn.eval_affine()
        mag = oracle.conv1d_loops(np.abs(x), np.abs(stage.conv.w.value * scale[:, None, None]),
                                  np.abs(stage.conv.b.value * scale) + np.abs(shift), pad=1)
        tol = (5 * 3 + 4) * np.finfo(np.float32).eps * mag
        cast_model(stage, np.float32)
        x32 = x.astype(np.float32)
        folded, _ = stage.forward(x32, False)
        unfolded = stage.act.forward(oracle.batchnorm_eval(stage.bn, stage.conv.forward(x32)))
        assert folded.dtype == np.float32
        for got in (folded, unfolded):
            assert (np.abs(got - ref) <= tol).all()
        # the fold is recomputed from the live parameters on every call
        stage.bn.running_mean = stage.bn.running_mean + np.float32(1.0)
        moved, _ = stage.forward(x32, False)
        assert not np.array_equal(moved, folded)

    def test_folded_conv_keeps_no_backward_cache(self, rng):
        stage = _stage_with_stats(rng, _EncStage, 3, 4)
        x = rng.standard_normal((2, 3, 8))
        stage.forward(x, True)
        stage.forward(x, False)
        with pytest.raises(RuntimeError, match="Conv1d.backward called without a forward cache"):
            stage.conv.backward(np.ones((2, 4, 8)), [x])

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_stages_activate_in_place_only_into_their_own_output(self, rng, training):
        enc = _stage_with_stats(rng, _EncStage, 3, 4)
        dec = _stage_with_stats(rng, _DecStage, 4 + 2 + 2, 4)
        x, low, skip_a, skip_g = (rng.standard_normal(shape) for shape in
                                  [(2, 3, 8), (2, 4, 4), (2, 2, 8), (2, 2, 8)])
        inputs = [x, low, skip_a, skip_g]
        kept = [a.copy() for a in inputs]
        pre = []  # each stage's fresh pre-activation array
        for stage in (enc, dec):
            layer = stage.bn if training else stage.conv  # eval: bn folded into conv
            def spy(*args, _forward=layer.forward, **kwargs):
                pre.append(_forward(*args, **kwargs))
                return pre[-1]
            layer.forward = spy
        act, _ = enc.forward(x, training)
        out = dec.forward(low, skip_a, skip_g, training)
        assert act is pre[0] and out is pre[1]
        for a, k in zip(inputs, kept):
            np.testing.assert_array_equal(a, k)
            assert not np.shares_memory(a, act) and not np.shares_memory(a, out)


class TestForwardSemantics:
    def test_eval_batch_invariance(self, rng):
        m = GestureNet(ArchConfig(), seed=1)
        a = rng.standard_normal((4, 3, 64))
        g = rng.standard_normal((4, 3, 64))
        for dtype in (np.float32, np.float64):
            cast_model(m, dtype)
            full = m.forward(a, g, mode="eval")
            alone = m.forward(a[2:3], g[2:3], mode="eval")
            assert full.dtype == dtype
            np.testing.assert_array_equal(full[2:3], alone)

    def test_eval_batch_invariance_at_pipeline_batch_sizes(self, rng):
        # 128 is infer_track's batch and 512 the serial oracle's; 35 is a
        # stride-64 request and 72 the last batch of a 2120-window stride-1
        # request (2120 = 16 * 128 + 72)
        m = GestureNet(ArchConfig(), seed=1)
        for bn in (l for l in m.modules() if isinstance(l, BatchNorm1d)):
            bn.running_mean = rng.standard_normal(bn.channels)
            bn.running_var = rng.uniform(0.5, 2.0, bn.channels)
        a = rng.standard_normal((600, 3, 64))
        g = rng.standard_normal((600, 3, 64))
        for dtype in (np.float32, np.float64):
            cast_model(m, dtype)
            full = m.forward(a, g, mode="eval")
            assert full.dtype == dtype
            for batch in (1, 35, 72, 128, 512):
                parts = [m.forward(a[s : s + batch], g[s : s + batch], mode="eval")
                         for s in range(0, 600, batch)]
                np.testing.assert_array_equal(np.concatenate(parts), full,
                                              err_msg=f"{dtype.__name__} batch {batch}")

    def test_batch_permutation_equivariance(self, rng):
        m = GestureNet(ArchConfig(), seed=1)
        a = rng.standard_normal((4, 3, 64))
        g = rng.standard_normal((4, 3, 64))
        perm = np.array([2, 0, 3, 1])
        out = m.forward(a, g, mode="eval")
        out_perm = m.forward(a[perm], g[perm], mode="eval")
        np.testing.assert_array_equal(out[perm], out_perm)

    @pytest.mark.parametrize("mode", ["Train", "EVAL", "", None])
    def test_unknown_mode_rejected_naming_it(self, rng, mode):
        m = GestureNet(ArchConfig(), seed=1)
        bn = m.enc_a[0].bn
        a = rng.standard_normal((2, 3, 64))
        with pytest.raises(ValueError, match=re.escape(repr(mode))):
            m.forward(a, a, mode=mode)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(bn.channels))

    def test_branches_not_weight_tied(self, rng):
        m = GestureNet(ArchConfig(), seed=1)
        a = rng.standard_normal((2, 3, 64))
        g = rng.standard_normal((2, 3, 64))
        out = m.forward(a, g, mode="eval")
        swapped = m.forward(g, a, mode="eval")
        assert not np.allclose(out, swapped)


class TestTrainStepMemory:
    """A train step's saved activations are freed by the backward that reads
    them, no decoder stage saves the concatenation it convolves, and a conv's
    products are made a slice of rows at a time."""

    def step(self, m, a, g, y):
        m.zero_grad()
        logits = m.forward(a, g, mode="train")
        saved = cached_bytes(m)
        m.backward(softmax_cross_entropy(logits, y)[1])
        return saved

    def test_backward_leaves_no_cache_and_a_second_backward_raises(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        a, g = rng.standard_normal((2, 4, 3, 64))
        y = rng.integers(0, 10, (4, 64))
        logits = m.forward(a, g, mode="train")
        grad = softmax_cross_entropy(logits, y)[1]
        m.backward(grad)
        assert all(layer._cache is None for layer in m.modules())
        with pytest.raises(RuntimeError, match="^GestureNet.backward called without a forward cache$"):
            m.backward(grad)

    def test_batch_256_step_peaks_near_its_saved_activations(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        a, g = rng.standard_normal((2, 256, 3, 64)).astype(np.float32)
        y = rng.integers(0, 10, (256, 64))
        self.step(m, a, g, y)  # first-call allocations out of the measurement
        saved, _, peak = traced(lambda: self.step(m, a, g, y))
        # 14.6 MB saved and an 18.7 MB peak here. Decoder stages that saved
        # the concatenation they convolve, skip gradients that were views of
        # the decoder's whole input gradient, batch norm holding its input
        # while it made the input gradient, and one full-batch tap buffer per
        # conv: 20.8 MB saved and a 24.9 MB peak. Batch norm saving its input
        # and centring it again in backward, and conv backward holding its
        # input through the input gradient, peaked at 26.9 MB; holding every
        # cache through backward and whole (B, O, C) products, at 35.6 MB
        assert 14e6 < saved < 15.5e6
        assert peak < saved + 4.3e6


def training_windows(n_windows=32, seed=5):
    spec = GenSpec(seed=seed, participants=1)
    series = generate_procedure(spec, 0, 0, 1)
    stride = max(1, (len(series) - 64) // n_windows)
    ws = extract_windows(series, 64, stride)
    return WindowSet(ws.series, ws.series_id[:n_windows], ws.start[:n_windows], 64)


class TestWindowsToArrays:
    def test_float32_stack_equals_float64_stack_cast(self):
        windows = training_windows()
        accel, gyro, labels = windows_to_arrays(windows)
        assert (accel.dtype, gyro.dtype, labels.dtype) == (np.float32, np.float32, np.uint8)
        (series,) = windows.series
        cuts = [slice(start, start + 64) for start in windows.start]
        for rows, part in ((accel, series.accel), (gyro, series.gyro)):
            got = rows[np.arange(len(rows))]
            wide = np.stack([part[:, cut] for cut in cuts]).astype(np.float64)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, wide.astype(np.float32))
        np.testing.assert_array_equal(labels, np.stack([series.label[cut] for cut in cuts]))

    @staticmethod
    def traced_peak(windows):
        windows_to_arrays(windows)  # first-call allocations out of the measurement
        return traced(lambda: windows_to_arrays(windows))[2]

    @staticmethod
    def own_cost(windows):
        """Bytes the sources and labels hold: a float32 copy of every sample's
        six sensor values, and each window's 64 label bytes and int64 start,
        plus a few KB of array and object headers (about 4 KB here)."""
        return 24 * sum(map(len, windows.series)) + (64 + 8) * len(windows) + 8192

    def test_traced_peak_per_window_is_bounded(self):
        spec = GenSpec(seed=5, participants=2)
        series = [generate_procedure(spec, p, 0, k) for p in range(2) for k in (1, 2, 3)]
        windows = fold_windows(series, 64, 1, rng=np.random.default_rng(0))
        # stacked, these 12,160 windows peaked at 1,744 bytes a window; the
        # labels are gathered before the sensors are copied, so their
        # concatenation is freed before the peak
        assert self.traced_peak(windows) < self.own_cost(windows)

    def test_long_series_windows_hold_each_sample_once(self):
        series = generate_procedure(GenSpec(seed=5, participants=1), 0, 0, 1)
        windows = extract_windows(series, 64, 1)
        assert (len(series), len(windows)) == (2124, 2061)
        # stacked, they peaked at 2,395 bytes a window: 1,600 of stacks and
        # one sensor's windows gathered before they were copied in
        assert self.traced_peak(windows) < self.own_cost(windows)

    def test_value_beyond_float32_range_becomes_inf_that_forward_rejects(self):
        series = generate_procedure(GenSpec(seed=5, participants=1), 0, 0, 1)
        accel = series.accel.copy()
        accel[1, 70] = 1e39
        series = dataclasses.replace(series, accel=accel)
        rows = windows_to_arrays(WindowSet((series,), np.zeros(2, int), np.array([0, 64]), 64))
        a, g = (part[np.arange(2)] for part in rows[:2])
        assert np.isinf(a[1, 1, 70 - 64]) and np.isfinite(a[0]).all()
        with pytest.raises(ValueError, match="accel input contains NaN/Inf"):
            GestureNet(ArchConfig(), seed=0).forward(a, g)


def huge_series(n, seed, at=None):
    """A series of ``n`` samples; ``at`` = (axis, sample) sets that accel value
    to 1e39, beyond float32's range."""
    s = make_series(np.arange(n) % 10, procedure=seed, seed=seed)
    if at is None:
        return s
    accel = s.accel.copy()
    accel[at] = 1e39
    return dataclasses.replace(s, accel=accel)


def some_windows(*series, stride=1):
    return fold_windows(list(series), 64, stride, rng=np.random.default_rng(0))


@st.composite
def row_gather_cases(draw):
    """Stride windows of 1-3 series, some holding a 1e39 accel value, and a
    1-D integer index array into the rows: empty, repeated, negative and out
    of range values all drawn."""
    series = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(64, 160))
        at = draw(st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, n - 1))))
        series.append(huge_series(n, k, at))
    windows = some_windows(*series, stride=draw(st.integers(1, 40)))
    n = len(windows)
    idx = draw(st.lists(st.integers(-n - 2, n + 1), max_size=12))
    return windows, np.array(idx, dtype=draw(st.sampled_from([np.intp, np.int32, np.int16])))


class TestWindowRows:
    """``windows_to_arrays``'s accel and gyro hold each sample once, and a
    gather by an index array gives the rows of the stacks they stand for."""

    @settings(max_examples=200, deadline=None)
    @given(row_gather_cases())
    @example((some_windows(huge_series(100, 0, (1, 70))), np.array([], np.intp)))
    @example((some_windows(huge_series(100, 0, (1, 70))), np.array([36, 0, 36, -1, -37])))
    @example((some_windows(huge_series(100, 0, (1, 70))), np.array([0, 37])))
    @example((some_windows(huge_series(90, 0), huge_series(70, 1, (0, 69)), stride=5),
              np.arange(0, 14, 3)))
    def test_indexing_a_source_matches_indexing_its_stack(self, case):
        windows, idx = case
        accel, gyro, _ = windows_to_arrays(windows)
        for source in (accel, gyro):
            stack = source[np.arange(len(source))]
            assert (stack.dtype, stack.shape, len(stack)) == (source.dtype, source.shape,
                                                               len(source))
            try:
                want = stack[idx]
            except IndexError:
                with pytest.raises(IndexError):
                    source[idx]
                return
            got = source[idx]
            assert type(got) is np.ndarray
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())
            got += 1  # a copy: the next gather reads the sensors unchanged
            assert source[idx].tobytes() == want.tobytes()
        rows = accel[idx]
        if rows.size and not np.isfinite(rows).all():
            with pytest.raises(ValueError, match="^accel input contains NaN/Inf$"):
                GestureNet(ArchConfig(), seed=0).forward(rows, gyro[idx])

    @pytest.mark.parametrize("key", [
        0, np.intp(1), slice(None), [0, 1], (np.arange(2), 0), np.arange(4).reshape(2, 2),
        np.array([True, False]), np.array([0.0, 1.0]), Ellipsis,
    ], ids=["int", "numpy-int", "slice", "list", "tuple", "2-D", "bool", "float", "ellipsis"])
    def test_any_other_key_is_refused_by_name(self, key):
        accel, _, _ = windows_to_arrays(some_windows(huge_series(100, 0)))
        with pytest.raises(TypeError, match="^WindowRows takes a 1-D integer index array, not "):
            accel[key]
        with pytest.raises(TypeError, match="^WindowRows takes a 1-D integer index array"):
            np.asarray(accel)  # no stack is made behind a gather

    def test_training_on_sources_equals_training_on_their_stacks(self):
        spec = GenSpec(seed=5, participants=2)
        series = [generate_procedure(spec, p, 0, 1) for p in range(2)]
        accel, gyro, labels = windows_to_arrays(
            fold_windows(series, 64, 1, max_windows=60, rng=np.random.default_rng(3)))
        runs = []
        every = np.arange(len(accel))
        for a, g in ((accel, gyro), (accel[every], gyro[every])):
            m = GestureNet(ArchConfig(), seed=0)
            logs = train(m, (a, g, labels), TrainHyper(lr=0.003, batch=16, epochs=3, seed=7))
            # every field but the wall time an epoch took
            runs.append(([dataclasses.replace(log, seconds=None) for log in logs],
                         {k: v.tobytes() for k, v in m.named_tensors().items()}))
        assert runs[0] == runs[1]


class TestTraining:
    def test_fresh_init_loss_near_ln10(self):
        windows = training_windows()
        m = GestureNet(ArchConfig(), seed=0)
        accel, gyro, labels = windows_to_arrays(windows)
        every = np.arange(len(accel))
        logits = m.forward(accel[every], gyro[every], mode="train")
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - np.log(10)) < 0.3

    def test_overfits_small_dataset(self):
        windows = training_windows()
        m = GestureNet(ArchConfig(), seed=0)
        logs = train(m, windows, TrainHyper(lr=0.003, batch=32, epochs=300, seed=0))
        assert logs[-1].accuracy > 0.99

    def test_same_seed_identical_parameters(self):
        windows = training_windows()
        finals = []
        for _ in range(2):
            m = GestureNet(ArchConfig(), seed=0)
            train(m, windows, TrainHyper(lr=0.003, batch=16, epochs=3, seed=7))
            finals.append({k: p.value.copy() for k, p in m.params().items()})
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k], finals[1][k])

    def test_uint8_and_int64_labels_train_the_same_bits(self):
        accel, gyro, labels = windows_to_arrays(training_windows())
        assert labels.dtype == np.uint8
        runs = []
        for y in (labels, labels.astype(np.int64)):
            m = GestureNet(ArchConfig(), seed=0)
            logs = train(m, (accel, gyro, y), TrainHyper(lr=0.003, batch=12, epochs=3, seed=7))
            runs.append(([(log.epoch, log.loss, log.accuracy) for log in logs],
                         {k: v.tobytes() for k, v in m.named_tensors().items()}))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad,message", [
        (lambda a, g, y: (a, g, np.concatenate([y, y[:10]])),
         r"labels has shape \(50, 64\), expected \(40, 64\) for accel of shape \(40, 3, 64\)"),
        (lambda a, g, y: (a, g, y[:30]),
         r"labels has shape \(30, 64\), expected \(40, 64\) for accel of shape \(40, 3, 64\)"),
        (lambda a, g, y: (a, g, y.astype(np.float64)),
         r"labels have dtype float64, not an integer type"),
        (lambda a, g, y: (a, g[np.arange(39)], y),
         r"gyro has shape \(39, 3, 64\), expected \(40, 3, 64\) for accel of shape \(40, 3, 64\)"),
    ], ids=["labels-50-rows", "labels-30-rows", "float-labels", "gyro-39-rows"])
    def test_disagreeing_arrays_rejected_before_the_first_step(self, bad, message):
        arrays = bad(*windows_to_arrays(training_windows(n_windows=40)))
        m = GestureNet(ArchConfig(), seed=0)
        before = {k: v.copy() for k, v in m.named_tensors().items()}
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(m, arrays, TrainHyper(batch=16, epochs=1))
        for k, v in m.named_tensors().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_empty_dataset_rejected(self):
        m = GestureNet(ArchConfig(), seed=0)
        with pytest.raises(ValueError):
            train(m, [], TrainHyper())
        empty = tuple(a[np.arange(0)] for a in windows_to_arrays(training_windows(n_windows=8)))
        with pytest.raises(ValueError, match="^training dataset is empty$"):
            train(m, empty, TrainHyper())

    @pytest.mark.parametrize("field,value", [
        ("batch", 0), ("epochs", 0), ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0),
        ("seed", -1),
    ])
    def test_bad_hyper_rejected_naming_field(self, field, value):
        hyper = dataclasses.replace(TrainHyper(epochs=1), **{field: value})
        m = GestureNet(ArchConfig(), seed=0)
        before = {k: p.value.copy() for k, p in m.params().items()}
        with pytest.raises(ValueError, match=f"^{field} must"):
            train(m, training_windows(n_windows=8), hyper)
        for k, p in m.params().items():
            np.testing.assert_array_equal(p.value, before[k])

    def test_plateau_stops_early(self):
        windows = training_windows(n_windows=8)
        m = GestureNet(ArchConfig(), seed=0)
        hyper = TrainHyper(lr=0.0, batch=8, epochs=100, seed=0)
        logs = train(m, windows, hyper)
        assert len(logs) == PLATEAU_PATIENCE + 1
