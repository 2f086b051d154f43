import numpy as np
import pytest

from washseg.nn import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    LeakyReLU,
    Linear,
    MaxPool1d,
    PPMBlock,
    SEBlock,
    Sigmoid,
    Upsample1d,
    grad_check,
)
from conftest import cast_model
import oracle


def layer_loss_check(layer, inputs, seed=0, **kwargs):
    """Gradient-check a layer through a fixed random linear readout."""
    rng = np.random.default_rng(seed)
    probes = None

    def loss_fn(compute):
        nonlocal probes
        out = layer.forward(*inputs, **kwargs) if isinstance(inputs, tuple) else layer.forward(inputs, **kwargs)
        if probes is None:
            probes = np.random.default_rng(99).standard_normal(out.shape)
        loss = float((out * probes).sum())
        if compute:
            layer.backward(probes)
        return loss

    return grad_check(loss_fn, layer.params(), tolerance=1e-6, rng=rng)


def input_grad_check(layer, x, mode="train", tol=1e-6):
    """Central differences of a random linear readout against the input gradient."""
    probes = np.random.default_rng(7).standard_normal(layer.forward(x, mode=mode).shape)
    layer.forward(x, mode=mode)
    gx = layer.backward(probes)
    h = 1e-6
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float((layer.forward(x, mode=mode) * probes).sum())
        flat[i] = orig - h
        lm = float((layer.forward(x, mode=mode) * probes).sum())
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gx.reshape(-1)[i]) < tol * max(1.0, abs(fd)), (i, fd, gx.reshape(-1)[i])


class TestConv1d:
    def test_edge_detector_fixture(self):
        # [1,2,3,4] * [1,0,-1], pad 1: hand-computed sliding dot products
        conv = Conv1d(1, 1, 3, pad=1)
        conv.w.value[:] = np.array([[[1.0, 0.0, -1.0]]])
        conv.b.value[:] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_allclose(out, [[[-2.0, -2.0, -2.0, 3.0]]])

    def test_identity_kernel(self, rng):
        conv = Conv1d(1, 1, 3, pad=1)
        conv.w.value[:] = np.array([[[0.0, 1.0, 0.0]]])
        conv.b.value[:] = 0.0
        x = rng.standard_normal((2, 1, 10))
        np.testing.assert_allclose(conv.forward(x), x)

    def test_matches_loop_oracle(self, rng):
        conv = Conv1d(3, 4, 3, rng=rng)
        x = rng.standard_normal((2, 3, 16))
        expected = oracle.conv1d_loops(x, conv.w.value, conv.b.value)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    def test_strided_padded_matches_oracle(self, rng):
        for _ in range(10):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 3))
            t = int(rng.integers(k, 20))
            conv = Conv1d(cin, cout, k, stride=stride, pad=pad, rng=rng)
            x = rng.standard_normal((2, cin, t))
            expected = oracle.conv1d_loops(x, conv.w.value, conv.b.value, stride, pad)
            np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        conv = Conv1d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.standard_normal((1, 2, 8)))

    def test_gradient_vs_finite_differences(self, rng):
        conv = Conv1d(3, 4, 3, stride=2, pad=1, rng=rng)
        rep = layer_loss_check(conv, rng.standard_normal((2, 3, 12)))
        assert rep.max_error < 1e-6, rep.failures

    @pytest.mark.parametrize("kernel,pad", [(3, 1), (1, 2)])
    def test_stride1_padded_gradients(self, rng, kernel, pad):
        conv = Conv1d(3, 4, kernel, pad=pad, rng=rng)
        x = rng.standard_normal((2, 3, 9))
        rep = layer_loss_check(conv, x)
        assert rep.max_error < 1e-6, rep.failures
        input_grad_check(conv, x)

    def test_outputs_reaching_only_padding_equal_bias(self, rng):
        conv = Conv1d(2, 3, 1, pad=2, rng=rng)
        conv.b.value[:] = [0.5, -1.0, 2.0]
        x = rng.standard_normal((2, 2, 7))
        out = conv.forward(x)
        assert out.shape == (2, 3, 11)
        for t in (0, 1, 9, 10):
            np.testing.assert_array_equal(out[:, :, t], np.broadcast_to(conv.b.value, (2, 3)))
        expected = oracle.conv1d_loops(x, conv.w.value, conv.b.value, 1, 2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_strided_padded_input_gradients(self, rng):
        for _ in range(6):
            k = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 3))
            t = int(rng.integers(max(k - 2 * pad, 1), 12))
            conv = Conv1d(2, 3, k, stride=stride, pad=pad, rng=rng)
            input_grad_check(conv, rng.standard_normal((2, 2, t)))

    def test_zero_grad_out_gives_zero_grads(self, rng):
        conv = Conv1d(2, 2, 3, rng=rng)
        conv.forward(rng.standard_normal((1, 2, 8)))
        conv.zero_grad()
        conv.backward(np.zeros((1, 2, 6)))
        assert not conv.w.grad.any() and not conv.b.grad.any()

    def test_batch_gradient_is_sum_of_per_example(self, rng):
        conv = Conv1d(2, 3, 3, pad=1, rng=rng)
        x = rng.standard_normal((2, 2, 8))
        g = rng.standard_normal((2, 3, 8))
        conv.forward(x)
        conv.zero_grad()
        conv.backward(g)
        batch_grad = conv.w.grad.copy()
        total = np.zeros_like(batch_grad)
        for i in range(2):
            conv.forward(x[i : i + 1])
            conv.zero_grad()
            conv.backward(g[i : i + 1])
            total += conv.w.grad
        np.testing.assert_allclose(batch_grad, total, atol=1e-12)

    def test_backward_without_forward_raises(self, rng):
        conv = Conv1d(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4)))


class TestBatchNorm:
    def test_normalizes_batch_statistics(self, rng):
        bn = BatchNorm1d(3)
        x = 5.0 + 2.0 * rng.standard_normal((8, 3, 16))
        out = bn.forward(x, mode="train")
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_gamma_beta_shift_scale(self, rng):
        bn = BatchNorm1d(2)
        bn.gamma.value[:] = 2.0
        bn.beta.value[:] = 3.0
        x = rng.standard_normal((16, 2, 8))
        out = bn.forward(x, mode="train")
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 3.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2)), 2.0, atol=1e-3)

    def test_train_mode_needs_two_samples(self):
        bn = BatchNorm1d(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 2, 1)), mode="train")

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm1d(2)
        for _ in range(50):
            bn.forward(1.0 + rng.standard_normal((16, 2, 8)), mode="train")
        x = rng.standard_normal((4, 2, 8))
        out1 = bn.forward(x, mode="eval")
        out2 = bn.forward(x[:1], mode="eval")
        np.testing.assert_allclose(out1[:1], out2)

    def test_gradient_vs_finite_differences(self, rng):
        bn = BatchNorm1d(3)
        rep = layer_loss_check(bn, rng.standard_normal((4, 3, 8)), mode="train")
        assert rep.max_error < 1e-6, rep.failures

    def test_input_gradient_vs_finite_differences(self, rng):
        bn = BatchNorm1d(2)
        x = rng.standard_normal((3, 2, 5))
        probes = rng.standard_normal((3, 2, 5))
        bn.forward(x, mode="train")
        gx = bn.backward(probes)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 1, 2), (2, 0, 4)]:
            xp = x.copy()
            xp[idx] += h
            lp = float((bn.forward(xp, mode="train") * probes).sum())
            xm = x.copy()
            xm[idx] -= h
            lm = float((bn.forward(xm, mode="train") * probes).sum())
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gx[idx]) / max(abs(fd), abs(gx[idx]), 1e-8) < 1e-5

    def test_eval_backward(self, rng):
        bn = BatchNorm1d(3)
        bn.running_mean[:] = [0.5, -1.0, 2.0]
        bn.running_var[:] = [0.25, 4.0, 1.5]
        bn.gamma.value[:] = [1.5, -0.5, 2.0]
        x = rng.standard_normal((3, 3, 6))
        rep = layer_loss_check(bn, x, mode="eval")
        assert rep.max_error < 1e-6, rep.failures
        input_grad_check(bn, x, mode="eval")
        np.testing.assert_array_equal(bn.running_mean, [0.5, -1.0, 2.0])

    def test_eval_is_affine_in_running_stats(self, rng):
        bn = BatchNorm1d(2)
        bn.running_mean[:] = [1.0, -2.0]
        bn.running_var[:] = [4.0, 0.5]
        bn.gamma.value[:] = [2.0, 3.0]
        bn.beta.value[:] = [0.5, -0.5]
        x = rng.standard_normal((2, 2, 5))
        expected = (
            bn.gamma.value[:, None] * (x - bn.running_mean[:, None])
            / np.sqrt(bn.running_var[:, None] + bn.eps) + bn.beta.value[:, None]
        )
        np.testing.assert_allclose(bn.forward(x, mode="eval"), expected, atol=1e-12)


class TestSimpleLayers:
    def test_leaky_relu_definition(self):
        act = LeakyReLU(0.01)
        np.testing.assert_allclose(
            act.forward(np.array([[[-1.0, 2.0]]])), [[[-0.01, 2.0]]]
        )

    def test_leaky_relu_bits_match_where(self, rng):
        act = LeakyReLU(0.01)
        x = np.concatenate([rng.standard_normal(50), [0.0, -0.0, 1e-300, -1e-300]])
        x = x.reshape(1, 2, -1)
        np.testing.assert_array_equal(act.forward(x), np.where(x > 0, x, 0.01 * x))

    def test_leaky_relu_slope_outside_unit_interval_rejected(self):
        for slope in (-0.1, 1.5):
            with pytest.raises(ValueError):
                LeakyReLU(slope)

    def test_leaky_relu_eval_backward(self, rng):
        act = LeakyReLU(0.2)
        x = rng.standard_normal((2, 3, 7)) + 0.05
        act.forward(x, mode="eval")
        g = rng.standard_normal(x.shape)
        np.testing.assert_array_equal(act.backward(g), np.where(x > 0, g, 0.2 * g))
        input_grad_check(act, x, mode="eval")

    def test_maxpool_oracle_on_ties_odd_lengths_overlap(self, rng):
        for window, stride, t in [(2, 2, 9), (3, 1, 7), (3, 2, 11), (4, 3, 13), (2, 1, 5)]:
            pool = MaxPool1d(window, stride)
            x = rng.integers(0, 3, size=(2, 3, t)).astype(float)  # many tied maxima
            out = pool.forward(x)
            np.testing.assert_array_equal(out, oracle.maxpool1d_loops(x, window, stride))
            g = rng.standard_normal(out.shape)
            np.testing.assert_allclose(
                pool.backward(g), oracle.maxpool1d_backward_loops(x, g, window, stride),
                atol=1e-12,
            )

    def test_maxpool_tie_gradient_goes_to_earliest(self):
        pool = MaxPool1d(3, 1)
        x = np.array([[[1.0, 5.0, 5.0, 2.0, 5.0]]])
        out = pool.forward(x)
        np.testing.assert_array_equal(out, [[[5.0, 5.0, 5.0]]])
        grad = pool.backward(np.array([[[1.0, 10.0, 100.0]]]))
        # windows [1,5,5], [5,5,2], [5,2,5]: first maxima at 1, 1 and 2
        np.testing.assert_array_equal(grad, [[[0.0, 11.0, 100.0, 0.0, 0.0]]])

    def test_avgpool_full_window(self):
        pool = AvgPool1d(8, 8)
        out = pool.forward(np.arange(1.0, 9.0).reshape(1, 1, 8))
        np.testing.assert_allclose(out, [[[4.5]]])

    def test_upsample_nearest(self):
        up = Upsample1d(4)
        out = up.forward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_allclose(out, [[[1, 1, 1, 1, 2, 2, 2, 2]]])

    def test_maxpool_matches_oracle(self, rng):
        for _ in range(10):
            window = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            t = int(rng.integers(window, 20))
            pool = MaxPool1d(window, stride)
            x = rng.standard_normal((2, 3, t))
            np.testing.assert_allclose(
                pool.forward(x), oracle.maxpool1d_loops(x, window, stride), atol=1e-12
            )

    def test_avgpool_matches_oracle(self, rng):
        for _ in range(10):
            window = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            t = int(rng.integers(window, 20))
            pool = AvgPool1d(window, stride)
            x = rng.standard_normal((2, 3, t))
            np.testing.assert_allclose(
                pool.forward(x), oracle.avgpool1d_loops(x, window, stride), atol=1e-12
            )

    def test_upsample_matches_oracle(self, rng):
        x = rng.standard_normal((2, 3, 5))
        np.testing.assert_allclose(
            Upsample1d(3).forward(x), oracle.upsample1d_loops(x, 3), atol=1e-12
        )

    def test_pool_upsample_input_gradients(self, rng):
        # input-side FD check; these layers have no parameters
        for layer, shape in [
            (MaxPool1d(2, 2), (2, 2, 8)),
            (AvgPool1d(3, 2), (2, 2, 9)),
            (Upsample1d(2), (2, 2, 4)),
            (LeakyReLU(0.01), (2, 2, 6)),
            (Sigmoid(), (2, 2, 6)),
        ]:
            x = rng.standard_normal(shape) + 0.05  # keep away from relu kink
            probes = rng.standard_normal(layer.forward(x).shape)
            layer.forward(x)
            gx = layer.backward(probes)
            h = 1e-6
            flat = x.reshape(-1)
            for i in np.random.default_rng(1).choice(flat.size, 5, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp = float((layer.forward(x) * probes).sum())
                flat[i] = orig - h
                lm = float((layer.forward(x) * probes).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gx.reshape(-1)[i]) < 1e-5 * max(1.0, abs(fd))


class TestFloat32:
    """Every layer computes and allocates in its input's dtype: float32 in
    and float32 parameters give float32 out, forward and backward."""

    @pytest.mark.parametrize("make,shape,mode", [
        (lambda r: Conv1d(3, 4, 3, stride=2, pad=1, rng=r), (2, 3, 12), "train"),
        (lambda r: BatchNorm1d(3), (4, 3, 8), "train"),
        (lambda r: BatchNorm1d(3), (4, 3, 8), "eval"),
        (lambda r: LeakyReLU(0.01), (2, 3, 8), "train"),
        (lambda r: Sigmoid(), (2, 3, 8), "train"),
        (lambda r: MaxPool1d(2, 2), (2, 3, 8), "train"),
        (lambda r: AvgPool1d(3, 2), (2, 3, 9), "train"),
        (lambda r: Upsample1d(2), (2, 3, 4), "train"),
        (lambda r: Linear(5, 4, rng=r), (3, 5), "train"),
        (lambda r: SEBlock(8, 4, rng=r), (2, 8, 16), "train"),
        (lambda r: PPMBlock(8, 4, rng=r), (2, 8, 8), "train"),
    ], ids=["conv", "bn-train", "bn-eval", "leaky", "sigmoid", "maxpool", "avgpool",
            "upsample", "linear", "se", "ppm"])
    def test_forward_and_backward_keep_float32(self, rng, make, shape, mode):
        layer = cast_model(make(rng), np.float32)
        out = layer.forward(rng.standard_normal(shape).astype(np.float32), mode=mode)
        grad_x = layer.backward(np.ones_like(out))
        assert out.dtype == grad_x.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in layer.params().values())

    def test_sigmoid_saturates_without_overflow(self):
        # exp(100) overflows float32; the gate is exactly 0 there, not an error
        out = Sigmoid().forward(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([0.0, 0.5, 1.0], dtype=np.float32))


class TestLinear:
    def test_affine(self, rng):
        lin = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(lin.forward(x), x @ lin.w.value + lin.b.value)

    def test_gradient(self, rng):
        lin = Linear(4, 3, rng=rng)
        rep = layer_loss_check(lin, rng.standard_normal((5, 4)))
        assert rep.max_error < 1e-6, rep.failures


class TestSEBlock:
    def test_gate_bounds_output(self, rng):
        se = SEBlock(8, reduction=4, rng=rng)
        x = rng.standard_normal((2, 8, 16))
        out = se.forward(x)
        assert (np.abs(out) <= np.abs(x) + 1e-12).all()

    def test_zero_excitation_halves_input(self, rng):
        se = SEBlock(8, reduction=4, rng=rng)
        se.fc2.w.value[:] = 0.0
        se.fc2.b.value[:] = 0.0
        x = rng.standard_normal((2, 8, 16))
        np.testing.assert_allclose(se.forward(x), x / 2.0)

    def test_gradient(self, rng):
        se = SEBlock(8, reduction=4, rng=rng)
        rep = layer_loss_check(se, rng.standard_normal((2, 8, 16)))
        assert rep.max_error < 1e-6, rep.failures

    def test_params_are_dotted_child_slots(self, rng):
        se = SEBlock(8, reduction=4, rng=rng)
        params = se.params()
        assert list(params) == ["fc1.w", "fc1.b", "fc2.w", "fc2.b"]
        assert params["fc2.w"] is se.fc2.w


class TestPPMBlock:
    def test_output_shape(self, rng):
        ppm = PPMBlock(64, 16, rng=rng)
        out = ppm.forward(rng.standard_normal((2, 64, 8)))
        assert out.shape == (2, 112, 8)

    def test_constant_input_passthrough(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        x = np.full((1, 8, 8), 3.0)
        out = ppm.forward(x)
        np.testing.assert_allclose(out[:, :8], x)

    def test_params_are_dotted_child_slots(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        params = ppm.params()
        assert list(params) == [f"reduce{i}.{k}" for i in range(3) for k in ("w", "b")]
        assert params["reduce1.b"] is ppm.reducers[1].b
        assert list(ppm.modules()) == [ppm, *ppm.reducers]

    def test_bad_length_rejected(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        with pytest.raises(ValueError):
            ppm.forward(rng.standard_normal((1, 8, 12)))

    def test_gradient(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        rep = layer_loss_check(ppm, rng.standard_normal((2, 8, 8)))
        assert rep.max_error < 1e-6, rep.failures

    def test_input_gradient_vs_finite_differences(self, rng):
        ppm = PPMBlock(4, 2, rng=rng)
        x = rng.standard_normal((1, 4, 8))
        probes = rng.standard_normal((1, 10, 8))
        ppm.forward(x)
        gx = ppm.backward(probes)
        h = 1e-6
        flat = x.reshape(-1)
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            lp = float((ppm.forward(x) * probes).sum())
            flat[i] = orig - h
            lm = float((ppm.forward(x) * probes).sum())
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gx.reshape(-1)[i]) < 1e-6 * max(1.0, abs(fd))
