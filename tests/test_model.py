import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from washseg.model import (
    ArchConfig,
    GestureNet,
    TrainHyper,
    train,
    windows_to_arrays,
)
from washseg.nn import Adam, BatchNorm1d, softmax, softmax_cross_entropy
from washseg.nn import checkpoint as ckpt
from washseg.signal_data import extract_windows
from washseg.synth import GenSpec, generate_procedure
from conftest import cast_model


@st.composite
def arch_configs(draw):
    """A valid architecture, then half the time one field drawn from values
    around the valid ones: zero sizes, short inputs, untied widths, bad slopes."""
    small = st.integers(1, 6)
    stages = draw(st.integers(1, 3))
    enc = tuple(draw(st.lists(small, min_size=stages, max_size=stages)))
    cfg = ArchConfig(
        input_length=8 * 2**stages * draw(st.integers(1, 2)),
        in_channels_per_branch=draw(st.integers(1, 4)),
        encoder_channels=enc,
        bottleneck_channels=2 * enc[-1],
        ppm_reduce=draw(st.integers(1, 4)),
        se_reduction=draw(st.integers(1, 6)),
        decoder_channels=tuple(draw(st.lists(small, min_size=stages, max_size=stages))),
        leaky_slope=draw(st.sampled_from([0.01, 0.0, 1.0])),
    )
    bad = {
        "input_length": st.sampled_from([0, -64, 8, 16, 24, 32, 40, 48]),
        "in_channels_per_branch": st.just(0),
        "encoder_channels": st.lists(st.integers(0, 6), max_size=3).map(tuple),
        "bottleneck_channels": st.integers(0, 12),
        "ppm_reduce": st.just(0),
        "se_reduction": st.just(0),
        "decoder_channels": st.lists(st.integers(0, 6), max_size=4).map(tuple),
        "num_classes": st.just(9),
        "leaky_slope": st.sampled_from([-0.1, 1.5, float("nan")]),
    }
    field = draw(st.sampled_from([None, *bad]))
    return cfg if field is None else dataclasses.replace(cfg, **{field: draw(bad[field])})


class TestArchConfig:
    def test_defaults_valid(self):
        cfg = ArchConfig().validate()
        assert cfg.bottleneck_length == 8

    def test_bad_input_length_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(input_length=60).validate()

    def test_bad_num_classes_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(num_classes=5).validate()

    def test_text_round_trip(self):
        cfg = ArchConfig()
        assert ArchConfig.from_text(cfg.to_text()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig.from_text("bogus=3\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="'input_length' is repeated"):
            ArchConfig.from_text("input_length=64\ninput_length=128\n")

    def test_bottleneck_shorter_than_ppm_bin_rejected(self):
        # 32 / 2^3 = 4 samples cannot be pooled by the PPM's 8-bin
        with pytest.raises(ValueError, match="bottleneck length 4"):
            ArchConfig(input_length=32).validate()

    @settings(max_examples=100, deadline=None)
    @given(arch_configs())
    def test_validate_accepts_exactly_the_configs_that_run(self, cfg):
        # accepted: builds, forwards a batch in float32 and round-trips a
        # checkpoint; rejected: fails at validate, before any layer is built
        try:
            cfg.validate()
        except ValueError:
            with pytest.raises(ValueError):
                GestureNet(cfg)
            return
        m = GestureNet(cfg, seed=2)
        x = np.random.default_rng(0).standard_normal((2, cfg.in_channels_per_branch,
                                                      cfg.input_length))
        out = m.forward(x, -x)
        assert out.shape == (2, 10, cfg.input_length) and out.dtype == np.float32
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "cfg.ckpt"
            m.save(path)
            loaded = GestureNet.load(path)
        assert loaded.config == cfg
        np.testing.assert_array_equal(loaded.forward(x, -x), out)


class TestShapes:
    def test_io_shapes(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        out = m.forward(rng.standard_normal((5, 3, 64)), rng.standard_normal((5, 3, 64)))
        assert out.shape == (5, 10, 64)

    def test_bottleneck_shapes(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        seen = {}
        orig_ppm_forward = m.ppm.forward

        def spy(x, mode="train"):
            seen["pre"] = x.shape
            out = orig_ppm_forward(x, mode)
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

    def test_zero_grad_clears_every_slot(self, rng):
        m = GestureNet(ArchConfig(), seed=0)
        logits = m.forward(rng.standard_normal((2, 3, 64)), rng.standard_normal((2, 3, 64)),
                           mode="train")
        m.backward(np.ones_like(logits))
        assert any(p.grad.any() for p in m.params().values())
        m.zero_grad()
        assert not any(p.grad.any() for p in m.params().values())


class TestPrecision:
    def test_float32_from_init_through_training_and_load(self, rng, tmp_path):
        m = GestureNet(ArchConfig(), seed=0)
        a = rng.standard_normal((4, 3, 64))  # float64 input is cast at forward
        logits = m.forward(a, a[::-1], mode="train")
        loss, grad = softmax_cross_entropy(logits, rng.integers(0, 10, size=(4, 64)))
        m.backward(grad)
        opt = Adam()
        opt.step(m.params())
        assert logits.dtype == grad.dtype == np.float32
        assert {p.grad.dtype for p in m.params().values()} == {np.dtype(np.float32)}
        assert {v.dtype for v in opt.m.values()} | {v.dtype for v in opt.v.values()} == {
            np.dtype(np.float32)}
        m.save(tmp_path / "m.ckpt")
        for model in (m, GestureNet.load(tmp_path / "m.ckpt")):
            assert {v.dtype for v in model.named_tensors().values()} == {np.dtype(np.float32)}


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
        # 512 is infer_track's batch; 35 is a stride-64 request and 72 the
        # last batch of a 2120-window stride-1 request
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
            for batch in (1, 35, 72, 512):
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

    def test_branches_not_weight_tied(self, rng):
        m = GestureNet(ArchConfig(), seed=1)
        a = rng.standard_normal((2, 3, 64))
        g = rng.standard_normal((2, 3, 64))
        out = m.forward(a, g, mode="eval")
        swapped = m.forward(g, a, mode="eval")
        assert not np.allclose(out, swapped)

    def test_softmax_sums_to_one(self, rng):
        m = cast_model(GestureNet(ArchConfig(), seed=1), np.float64)
        logits = m.forward(rng.standard_normal((2, 3, 64)), rng.standard_normal((2, 3, 64)))
        p = softmax(logits, axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def training_windows(n_windows=32, seed=5):
    spec = GenSpec(seed=seed, participants=1)
    series = generate_procedure(spec, 0, 0, 1)
    stride = max(1, (len(series) - 64) // n_windows)
    return extract_windows(series, 64, stride)[:n_windows]


class TestTraining:
    def test_fresh_init_loss_near_ln10(self):
        windows = training_windows()
        m = GestureNet(ArchConfig(), seed=0)
        accel, gyro, labels = windows_to_arrays(windows)
        logits = m.forward(accel, gyro, mode="train")
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

    def test_empty_dataset_rejected(self):
        m = GestureNet(ArchConfig(), seed=0)
        with pytest.raises(ValueError):
            train(m, [], TrainHyper())

    def test_plateau_stops_early(self):
        windows = training_windows(n_windows=8)
        m = GestureNet(ArchConfig(), seed=0)
        hyper = TrainHyper(lr=0.0, batch=8, epochs=100, seed=0,
                           plateau_patience=5, plateau_rel_change=0.001)
        logs = train(m, windows, hyper)
        assert len(logs) <= 10
