from pathlib import Path

import numpy as np
import pytest

from washseg.model import (
    ArchConfig,
    GestureNet,
    TrainHyper,
    train,
    windows_to_arrays,
)
from washseg.nn import BatchNorm1d, softmax, softmax_cross_entropy
from washseg.nn import checkpoint as ckpt
from washseg.signal_data import extract_windows
from washseg.synth import GenSpec, generate_procedure


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


class TestForwardSemantics:
    def test_eval_batch_invariance(self, rng):
        m = GestureNet(ArchConfig(), seed=1)
        a = rng.standard_normal((4, 3, 64))
        g = rng.standard_normal((4, 3, 64))
        full = m.forward(a, g, mode="eval")
        alone = m.forward(a[2:3], g[2:3], mode="eval")
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
        full = m.forward(a, g, mode="eval")
        for batch in (1, 35, 72, 512):
            parts = [m.forward(a[s : s + batch], g[s : s + batch], mode="eval")
                     for s in range(0, 600, batch)]
            np.testing.assert_array_equal(np.concatenate(parts), full, err_msg=f"batch {batch}")

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
        m = GestureNet(ArchConfig(), seed=1)
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
