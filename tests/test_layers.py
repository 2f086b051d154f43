from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from washseg.nn import layers
from washseg.nn import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Layer,
    LeakyReLU,
    Linear,
    MaxPool1d,
    PPMBlock,
    SEBlock,
    Sigmoid,
    Upsample1d,
)
from washseg.model import _ConvBnAct
from conftest import cast_model, layer_backward
from gradcheck import grad_check
import oracle


def layer_loss_check(layer, inputs, seed=0):
    """Gradient-check a layer through a fixed random linear readout."""
    rng = np.random.default_rng(seed)
    probes = None

    def loss_fn(compute):
        nonlocal probes
        out = layer.forward(*inputs) if isinstance(inputs, tuple) else layer.forward(inputs)
        if probes is None:
            probes = np.random.default_rng(99).standard_normal(out.shape)
        loss = float((out * probes).sum())
        if compute:
            layer_backward(layer, probes, inputs)
        return loss

    return grad_check(loss_fn, layer.params(), tolerance=1e-6, rng=rng)


def input_grad_check(layer, x, tol=1e-6):
    """Central differences of a random linear readout against the input gradient."""
    probes = np.random.default_rng(7).standard_normal(layer.forward(x).shape)
    layer.forward(x)
    gx = layer_backward(layer, probes, x)
    h = 1e-6
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float((layer.forward(x) * probes).sum())
        flat[i] = orig - h
        lm = float((layer.forward(x) * probes).sum())
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gx.reshape(-1)[i]) < tol * max(1.0, abs(fd)), (i, fd, gx.reshape(-1)[i])


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# (batch, channels, length) of max-pool inputs: odd lengths leave a tail
# sample that no pair takes
MAXPOOL_TIE_SHAPES = [(2, 3, 9), (1, 1, 2), (3, 5, 3), (4, 2, 12), (2, 7, 5)]


def maxpool_backward_where(x, out, grad_out):
    """The select form of the max-pool routing: even position first, a tie to it."""
    grad_x = np.zeros_like(x)
    free = np.ones(out.shape, dtype=bool)
    end = x.shape[2] // 2 * 2
    for j in range(2):
        sl = slice(j, end, 2)
        hit = free & (x[:, :, sl] == out)
        grad_x[:, :, sl] += np.where(hit, grad_out, 0.0)
        free &= ~hit
    return grad_x


class TestConv1d:
    def test_edge_detector_fixture(self):
        # [1,2,3,4] * [1,0,-1], pad 1: hand-computed sliding dot products
        conv = cast_model(Conv1d(1, 1, 3, rng=np.random.default_rng(0)))
        conv.w.value[:] = np.array([[[1.0, 0.0, -1.0]]])
        conv.b.value[:] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_allclose(out, [[[-2.0, -2.0, -2.0, 3.0]]])

    def test_identity_kernel(self, rng):
        conv = cast_model(Conv1d(1, 1, 3, rng=np.random.default_rng(0)))
        conv.w.value[:] = np.array([[[0.0, 1.0, 0.0]]])
        conv.b.value[:] = 0.0
        x = rng.standard_normal((2, 1, 10))
        np.testing.assert_allclose(conv.forward(x), x)

    def test_matches_loop_oracle(self, rng):
        conv = cast_model(Conv1d(3, 4, 3, rng=rng))
        x = rng.standard_normal((2, 3, 16))
        expected = oracle.conv1d_loops(x, conv.w.value, conv.b.value, 1, 1)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    def test_odd_kernels_match_oracle_at_every_length(self, rng):
        # down to one sample, shorter than the kernel: only the taps that reach x count
        for _ in range(10):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            t = int(rng.integers(1, 20))
            conv = cast_model(Conv1d(cin, cout, k, rng=rng))
            x = rng.standard_normal((2, cin, t))
            expected = oracle.conv1d_loops(x, conv.w.value, conv.b.value, 1, k // 2)
            np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_even_kernel_rejected_naming_it(self, kernel):
        with pytest.raises(ValueError, match=f"kernel {kernel} is even"):
            Conv1d(2, 3, kernel, rng=np.random.default_rng(0))

    def test_channel_mismatch_rejected(self, rng):
        conv = Conv1d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.standard_normal((1, 2, 8)))

    def test_gradient_vs_finite_differences(self, rng):
        conv = cast_model(Conv1d(3, 4, 3, rng=rng))
        rep = layer_loss_check(conv, rng.standard_normal((2, 3, 12)))
        assert rep.max_error < 1e-6, rep.failures

    # the padding each kernel implies, as the oracle is told it
    @pytest.mark.parametrize("kernel,pad", [(3, 1), (1, 0), (5, 2)])
    def test_stride1_padded_gradients(self, rng, kernel, pad):
        conv = cast_model(Conv1d(3, 4, kernel, rng=rng))
        for t in (9, 2):  # 2: shorter than a 5-tap kernel
            x = rng.standard_normal((2, 3, t))
            np.testing.assert_allclose(
                conv.forward(x), oracle.conv1d_loops(x, conv.w.value, conv.b.value, 1, pad),
                atol=1e-12)
            rep = layer_loss_check(conv, x)
            assert rep.max_error < 1e-6, rep.failures
            input_grad_check(conv, x)

    def test_zero_grad_out_gives_zero_grads(self, rng):
        conv = Conv1d(2, 2, 3, rng=rng)
        x = rng.standard_normal((1, 2, 8))
        conv.forward(x)
        conv.zero_grad()
        conv.backward(np.zeros((1, 2, 8)), [x])
        assert not conv.w.grad.any() and not conv.b.grad.any()

    def test_batch_gradient_is_sum_of_per_example(self, rng):
        conv = cast_model(Conv1d(2, 3, 3, rng=rng))
        x = rng.standard_normal((2, 2, 8))
        g = rng.standard_normal((2, 3, 8))
        conv.forward(x)
        conv.zero_grad()
        conv.backward(g, [x])
        batch_grad = conv.w.grad.copy()
        total = np.zeros_like(batch_grad)
        for i in range(2):
            conv.forward(x[i : i + 1])
            conv.zero_grad()
            conv.backward(g[i : i + 1], [x[i : i + 1]])
            total += conv.w.grad
        np.testing.assert_allclose(batch_grad, total, atol=1e-12)

    def test_backward_without_forward_raises(self, rng):
        conv = Conv1d(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4)), [np.zeros((1, 1, 4))])


class TestBatchNorm:
    def test_normalizes_batch_statistics(self, rng):
        bn = cast_model(BatchNorm1d(3))
        x = 5.0 + 2.0 * rng.standard_normal((8, 3, 16))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_gamma_beta_shift_scale(self, rng):
        bn = cast_model(BatchNorm1d(2))
        bn.gamma.value[:] = 2.0
        bn.beta.value[:] = 3.0
        x = rng.standard_normal((16, 2, 8))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 3.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2)), 2.0, atol=1e-3)

    def test_train_mode_needs_two_samples(self):
        bn = BatchNorm1d(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 2, 1)))

    def test_gradient_vs_finite_differences(self, rng):
        bn = cast_model(BatchNorm1d(3))
        rep = layer_loss_check(bn, rng.standard_normal((4, 3, 8)))
        assert rep.max_error < 1e-6, rep.failures

    def test_input_gradient_vs_finite_differences(self, rng):
        bn = cast_model(BatchNorm1d(2))
        x = rng.standard_normal((3, 2, 5))
        probes = rng.standard_normal((3, 2, 5))
        bn.forward(x)
        gx = bn.backward(probes)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 1, 2), (2, 0, 4)]:
            xp = x.copy()
            xp[idx] += h
            lp = float((bn.forward(xp) * probes).sum())
            xm = x.copy()
            xm[idx] -= h
            lm = float((bn.forward(xm) * probes).sum())
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gx[idx]) / max(abs(fd), abs(gx[idx]), 1e-8) < 1e-5

    def test_eval_is_affine_in_running_stats(self, rng):
        bn = cast_model(BatchNorm1d(2))
        bn.running_mean[:] = [1.0, -2.0]
        bn.running_var[:] = [4.0, 0.5]
        bn.gamma.value[:] = [2.0, 3.0]
        bn.beta.value[:] = [0.5, -0.5]
        x = rng.standard_normal((2, 2, 5))
        expected = (
            bn.gamma.value[:, None] * (x - bn.running_mean[:, None])
            / np.sqrt(bn.running_var[:, None] + layers.BN_EPSILON) + bn.beta.value[:, None]
        )
        scale, shift = bn.eval_affine()
        np.testing.assert_allclose(x * scale[:, None] + shift[:, None], expected, atol=1e-12)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_leaky_relu_backward_bits_match_where(self, rng, dtype, slope, mode):
        # the activation as a stage runs it after its train or eval branch:
        # in place, into the stage's own pre-activation array
        stage = _ConvBnAct(4, 4, slope, rng)
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny], dtype=dtype)
        x = np.concatenate([rng.standard_normal(58).astype(dtype), special]).reshape(2, 4, 8)
        folds = []

        def conv_forward(_x, fold=None):
            folds.append(fold)
            return x.copy()

        stage.conv.forward = conv_forward
        stage.bn.forward = lambda y: y
        out = stage._conv_bn_act(x, training=mode == "train")
        assert folds == [None if mode == "train" else stage.bn]
        np.testing.assert_array_equal(out, np.where(x > 0, x, slope * x))
        act = stage.act
        g = rng.standard_normal(x.shape).astype(dtype)
        g[0, 0] = 0.0
        g[0, 1] = -0.0
        g[1] = -np.abs(g[1])
        expected = np.where(out > 0, g, slope * g)
        assert_same_bits(act.backward(g), expected)

    def test_leaky_relu_leaves_caller_input_untouched(self, rng):
        # only a caller that owns x passes out=x (the model's stages do)
        act = LeakyReLU(0.01)
        x = rng.standard_normal((2, 3, 9))
        kept = x.copy()
        out = act.forward(x)
        np.testing.assert_array_equal(x, kept)
        assert not np.shares_memory(out, x)
        assert act.forward(x, out=x) is x
        np.testing.assert_array_equal(x, out)

    def test_leaky_relu_slope_outside_unit_interval_rejected(self):
        for slope in (-0.1, 1.5):
            with pytest.raises(ValueError):
                LeakyReLU(slope)

    def test_maxpool_oracle_on_ties_odd_lengths(self, rng):
        for shape in MAXPOOL_TIE_SHAPES:
            pool = MaxPool1d()
            x = rng.integers(0, 3, size=shape).astype(float)  # many tied maxima
            out = pool.forward(x)
            np.testing.assert_array_equal(out, oracle.maxpool1d_loops(x, 2, stride=2))
            g = rng.standard_normal(out.shape)
            np.testing.assert_allclose(
                pool.backward(g), oracle.maxpool1d_backward_loops(x, g, 2, stride=2), atol=1e-12,
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_backward_bits_match_where(self, rng, dtype):
        for shape in MAXPOOL_TIE_SHAPES:
            pool = MaxPool1d()
            x = rng.integers(-1, 2, size=shape).astype(dtype)  # ties, +-0.0
            x[x == 0] *= rng.choice([-1, 1], size=int((x == 0).sum())).astype(dtype)
            out = pool.forward(x)
            g = rng.standard_normal(out.shape).astype(dtype)
            g[:, 0] = 0.0
            g[:, -1, ::2] = -0.0
            assert_same_bits(pool.backward(g), maxpool_backward_where(x, out, g))

    def test_maxpool_tie_gradient_goes_to_earliest(self):
        pool = MaxPool1d()
        x = np.array([[[1.0, 5.0, 5.0, 5.0, 0.0, -0.0, -0.0, 0.0, 7.0]]])
        out = pool.forward(x)
        np.testing.assert_array_equal(out, [[[5.0, 5.0, 0.0, 0.0]]])
        grad = pool.backward(np.array([[[1.0, 10.0, 100.0, 1000.0]]]))
        # pairs [1,5], [5,5], [0,-0] and [-0,0], the tail [7] dropped: a tie,
        # of signed zeros too, goes to the even position
        np.testing.assert_array_equal(grad, [[[0.0, 1.0, 10.0, 0.0, 100.0, 0.0, 1000.0, 0.0,
                                               0.0]]])

    @pytest.mark.parametrize("pool,name", [(MaxPool1d(), "maxpool1d"),
                                           (AvgPool1d(4), "avgpool1d")])
    def test_pool_input_shorter_than_window_rejected(self, pool, name):
        with pytest.raises(ValueError, match=f"^{name}: input shorter than pooling window$"):
            pool.forward(np.zeros((2, 3, 1)))

    def test_avgpool_full_window(self):
        pool = AvgPool1d(8)
        out = pool.forward(np.arange(1.0, 9.0).reshape(1, 1, 8))
        np.testing.assert_allclose(out, [[[4.5]]])

    def test_upsample_nearest(self):
        up = Upsample1d(4)
        out = up.forward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_allclose(out, [[[1, 1, 1, 1, 2, 2, 2, 2]]])

    def test_maxpool_matches_oracle(self, rng):
        for _ in range(10):
            b, c, t = (int(v) for v in rng.integers((1, 1, 2), (5, 6, 20)))
            x = rng.standard_normal((b, c, t))
            np.testing.assert_allclose(
                MaxPool1d().forward(x), oracle.maxpool1d_loops(x, 2, stride=2), atol=1e-12
            )

    def test_avgpool_matches_oracle(self, rng):
        for _ in range(10):
            window = int(rng.integers(1, 5))
            t = int(rng.integers(window, 20))
            pool = AvgPool1d(window)
            x = rng.standard_normal((2, 3, t))
            np.testing.assert_allclose(
                pool.forward(x), oracle.avgpool1d_loops(x, window, stride=window), atol=1e-12
            )

    def test_upsample_matches_oracle(self, rng):
        x = rng.standard_normal((2, 3, 5))
        np.testing.assert_allclose(
            Upsample1d(3).forward(x), oracle.upsample1d_loops(x, 3), atol=1e-12
        )

    def test_pool_upsample_input_gradients(self, rng):
        # input-side FD check; these layers have no parameters
        for layer, shape in [
            (MaxPool1d(), (2, 2, 8)),
            (AvgPool1d(3), (2, 2, 9)),
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


# (parameter dtype, input dtype): float32, float64 and the mixed pair
KERNEL_DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]


@st.composite
def conv_cases(draw):
    return dict(batch=draw(st.integers(1, 130)), in_ch=draw(st.integers(1, 40)),
                out_ch=draw(st.integers(1, 40)), kernel=draw(st.sampled_from([1, 3, 5])),
                length=draw(st.integers(0, 70)), dtypes=draw(st.sampled_from(KERNEL_DTYPES)),
                seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def conv_parts_cases(draw):
    """A conv whose input comes back in channel parts, some of one channel."""
    return dict(batch=draw(st.sampled_from([0, 1, 2, 37, 256])),
                parts=draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)),
                out_ch=draw(st.integers(1, 12)), kernel=draw(st.sampled_from([1, 3, 5])),
                length=draw(st.integers(0, 40)), dtypes=draw(st.sampled_from(KERNEL_DTYPES)),
                seed=draw(st.integers(0, 2**32 - 1)))


# batches of 0, 1 and odd sizes
BATCHES = st.one_of(st.sampled_from([0, 1]), st.integers(1, 64).map(lambda k: 2 * k + 1))


def signed_zeros(rng, a, share=0.1):
    """``a`` with about ``share`` of its entries set to -0.0."""
    a[rng.random(a.shape) < share] = -0.0
    return a


class TestWholeRowKernels:
    """The full-width tap buffers, the column-copy upsample, the column-add
    upsample backward, batch norm's (C, T) rows and the contiguous max-pool
    routing give the bits of the kernels they replaced (``tests/oracle.py``)."""

    @settings(max_examples=80, deadline=None)
    @given(conv_cases(), st.integers(0, 5))
    def test_conv_forward_bits_equal_clipped_spans(self, case, slice_rows):
        # a tap buffer of a few rows, so most batches run in many slices; 0
        # keeps the default budget
        rng = np.random.default_rng(case["seed"])
        w_dtype, x_dtype = case["dtypes"]
        conv = Conv1d(case["in_ch"], case["out_ch"], case["kernel"], rng=rng)
        conv.b.value = rng.standard_normal(case["out_ch"]).astype(np.float32)
        bn = BatchNorm1d(case["out_ch"])
        bn.gamma.value = rng.uniform(-2, 2, case["out_ch"]).astype(np.float32)
        bn.beta.value = rng.standard_normal(case["out_ch"]).astype(np.float32)
        bn.running_mean[:] = rng.standard_normal(case["out_ch"])
        bn.running_var[:] = rng.uniform(0.1, 3, case["out_ch"])
        cast_model(conv, w_dtype), cast_model(bn, w_dtype)
        x = rng.standard_normal((case["batch"], case["in_ch"], case["length"])).astype(x_dtype)
        row_bytes = case["out_ch"] * case["length"] * np.result_type(w_dtype, x_dtype).itemsize
        budget = slice_rows * row_bytes or layers._PRODUCT_BYTES
        for fold in (None, bn):
            with mock.patch.object(layers, "_PRODUCT_BYTES", budget):
                got = conv.forward(x, fold=fold)
            assert_same_bits(got, oracle.conv1d_spans(conv, x, fold))

    @settings(max_examples=80, deadline=None)
    @given(conv_cases(), st.integers(1, 5))
    # an empty batch: zero gradients, whether its products would be sliced or whole
    @example(dict(batch=0, in_ch=1, out_ch=1, kernel=3, length=8,
                  dtypes=(np.float32, np.float32), seed=0), 1)
    @example(dict(batch=0, in_ch=3, out_ch=2, kernel=3, length=8,
                  dtypes=(np.float32, np.float64), seed=0), 2)
    def test_conv_backward_bits_equal_whole_batch_products(self, case, slice_rows):
        # a budget of a few product rows, so most batches run in many slices
        rng = np.random.default_rng(case["seed"])
        w_dtype, x_dtype = case["dtypes"]
        conv = cast_model(Conv1d(case["in_ch"], case["out_ch"], case["kernel"], rng=rng), w_dtype)
        x = rng.standard_normal((case["batch"], case["in_ch"], case["length"])).astype(x_dtype)
        grad_out = rng.standard_normal(conv.forward(x).shape).astype(x_dtype)
        want_x, want_w = oracle.conv1d_backward_whole(conv, x, grad_out)
        row_bytes = case["out_ch"] * case["in_ch"] * np.result_type(grad_out, x).itemsize
        with mock.patch.object(layers, "_PRODUCT_BYTES", slice_rows * row_bytes):
            assert_same_bits(conv.backward(grad_out, [x]), want_x)
        assert_same_bits(conv.w.grad, want_w)

    @settings(max_examples=60, deadline=None)
    @given(conv_parts_cases(), st.integers(0, 5))
    # one-channel parts, at the model's batch and with one output channel
    @example(dict(batch=256, parts=[1, 5, 2], out_ch=4, kernel=3, length=16,
                  dtypes=(np.float32, np.float32), seed=0), 0)
    @example(dict(batch=37, parts=[2, 1], out_ch=1, kernel=5, length=9,
                  dtypes=(np.float32, np.float64), seed=1), 2)
    # the last decoder stage's split: upsample 16, skips 8 and 8
    @example(dict(batch=2, parts=[16, 8, 8], out_ch=16, kernel=3, length=64,
                  dtypes=(np.float32, np.float32), seed=2), 1)
    @example(dict(batch=0, parts=[1, 3], out_ch=2, kernel=3, length=8,
                  dtypes=(np.float64, np.float64), seed=3), 1)
    def test_conv_backward_from_channel_parts_bits_equal_concatenation(self, case, slice_rows):
        # a budget of a few rows, so most batches run in many slices; 0 keeps
        # the default budget
        rng = np.random.default_rng(case["seed"])
        w_dtype, x_dtype = case["dtypes"]
        in_ch = sum(case["parts"])
        whole, by_parts = (
            cast_model(Conv1d(in_ch, case["out_ch"], case["kernel"],
                              rng=np.random.default_rng(case["seed"])), w_dtype)
            for _ in range(2))
        x = rng.standard_normal((case["batch"], in_ch, case["length"])).astype(x_dtype)
        # separate arrays, as the decoder hands over its upsample and skips
        parts = [part.copy() for part in np.split(x, np.cumsum(case["parts"])[:-1], axis=1)]
        out = whole.forward(x)
        grad_out = rng.standard_normal(out.shape).astype(out.dtype)
        want_x, want_w, want_b = oracle.conv1d_backward_concat(whole, parts, grad_out)
        row_bytes = (case["out_ch"] + case["length"]) * in_ch * out.dtype.itemsize
        with mock.patch.object(layers, "_PRODUCT_BYTES",
                               slice_rows * row_bytes or layers._PRODUCT_BYTES):
            assert_same_bits(by_parts.forward(np.concatenate(parts, axis=1)), out)
            grad_x = by_parts.backward(grad_out, parts)
            assert_same_bits(whole.backward(grad_out, [x]), want_x)
        assert parts == []  # emptied once the weight gradient is made
        assert_same_bits(grad_x, want_x)
        for conv in (whole, by_parts):
            assert_same_bits(conv.w.grad, want_w)
            assert_same_bits(conv.b.grad, want_b)

    def test_conv_backward_rejects_parts_of_another_width(self, rng):
        conv = Conv1d(3, 2, 3, rng=rng)
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        conv.forward(x)
        with pytest.raises(ValueError, match=r"parts have \[2\] channels, weights expect 3"):
            conv.backward(np.ones((2, 2, 8), np.float32), [x[:, :2]])

    @pytest.mark.parametrize("grad_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(256, 16, 64), (37, 5, 9), (1, 3, 2)])
    def test_batchnorm_backward_float64_parameters_float32_input_bits(self, rng, shape,
                                                                      grad_dtype):
        # xhat * d_gamma is made in the product's dtype, float64 under a
        # float64 gradient, not in the float32 of the cached input
        bn, ref = (cast_model(BatchNorm1d(shape[1]), np.float64) for _ in range(2))
        for layer in (bn, ref):
            layer.gamma.value[:] = np.random.default_rng(1).uniform(-2, 2, shape[1])
        x = (3.0 + 2.0 * rng.standard_normal(shape)).astype(np.float32)
        y = bn.forward(x)
        _, mean, inv_std = oracle.batchnorm_forward_broadcast(ref, x)
        grad = rng.standard_normal(y.shape).astype(grad_dtype)
        want_x, d_gamma, d_beta = oracle.batchnorm_backward_broadcast(ref, x, mean, inv_std, grad)
        got = bn.backward(grad)
        assert got.dtype == want_x.dtype == grad_dtype
        assert_same_bits(got, want_x)
        assert_same_bits(bn.gamma.grad, np.zeros(shape[1]) + d_gamma)
        assert_same_bits(bn.beta.grad, np.zeros(shape[1]) + d_beta)

    @settings(max_examples=120, deadline=None)
    @given(factor=st.integers(1, 8), batch=BATCHES, channels=st.integers(1, 20),
           length=st.integers(0, 20), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_upsample_backward_bits_equal_axis_sum(self, factor, batch, channels, length,
                                                   dtype, seed):
        rng = np.random.default_rng(seed)
        # a channel slice of a wider gradient, as the decoder's split hands it over
        wide = rng.standard_normal((batch, channels + 3, length * factor)).astype(dtype)
        grad = signed_zeros(rng, wide)[:, 1 : channels + 1]
        assert_same_bits(Upsample1d(factor).backward(grad),
                         oracle.upsample1d_backward_sum(grad, factor))

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 300), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    # the lengths where numpy's pairwise summation changes its order
    @example(length=7, dtype=np.float32, seed=0)
    @example(length=8, dtype=np.float32, seed=0)
    @example(length=128, dtype=np.float64, seed=0)
    @example(length=129, dtype=np.float32, seed=0)
    def test_last_axis_sum_bits_equal_numpy_sum(self, length, dtype, seed):
        # SEBlock.backward sums over the bottleneck's time axis this way
        rng = np.random.default_rng(seed)
        a = signed_zeros(rng, rng.standard_normal((3, 40, length)).astype(dtype))
        a[0, :4] = -0.0  # rows that sum to -0.0
        for view in (a, a[:, ::3]):
            assert_same_bits(layers._last_axis_sum(view), view.sum(axis=-1))

    @settings(max_examples=120, deadline=None)
    @given(batch=BATCHES, channels=st.integers(1, 40), length=st.integers(1, 70),
           dtypes=st.sampled_from(KERNEL_DTYPES), seed=st.integers(0, 2**32 - 1))
    def test_batchnorm_bits_equal_channel_broadcast(self, batch, channels, length, dtypes,
                                                    seed):
        rng = np.random.default_rng(seed)
        p_dtype, x_dtype = dtypes
        bns = []
        for _ in range(2):  # the layer and the reference, with equal parameters
            bn = cast_model(BatchNorm1d(channels), p_dtype)
            draw = np.random.default_rng(seed)
            bn.gamma.value[:] = draw.uniform(-2, 2, channels)
            bn.beta.value[:] = draw.standard_normal(channels)
            bn.running_mean[:] = draw.standard_normal(channels)
            bn.running_var[:] = draw.uniform(0.1, 3, channels)
            bns.append(bn)
        bn, ref = bns
        x = (3.0 + 2.0 * rng.standard_normal((batch, channels, length))).astype(x_dtype)
        if batch * length < 2:
            with pytest.raises(ValueError, match="at least 2 samples"):
                bn.forward(x)
            return
        y = bn.forward(x)
        want_y, mean, inv_std = oracle.batchnorm_forward_broadcast(ref, x)
        assert_same_bits(y, want_y)
        assert_same_bits(bn.running_mean, ref.running_mean)
        assert_same_bits(bn.running_var, ref.running_var)
        grad = signed_zeros(rng, rng.standard_normal(y.shape).astype(y.dtype))
        want_x, d_gamma, d_beta = oracle.batchnorm_backward_broadcast(ref, x, mean, inv_std, grad)
        assert_same_bits(bn.backward(grad), want_x)
        ref.gamma.grad += d_gamma
        ref.beta.grad += d_beta
        assert_same_bits(bn.gamma.grad, ref.gamma.grad)
        assert_same_bits(bn.beta.grad, ref.beta.grad)

    @settings(max_examples=120, deadline=None)
    @given(batch=BATCHES, channels=st.integers(1, 40), pairs=st.integers(1, 40),
           tail=st.integers(0, 1), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_maxpool_backward_bits_equal_free_mask(self, batch, channels, pairs, tail, dtype,
                                                   seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, size=(batch, channels, 2 * pairs + tail)).astype(dtype)
        x[x == 0] *= rng.choice([-1, 1], size=int((x == 0).sum())).astype(dtype)  # ties, +-0.0
        pool = MaxPool1d()
        out = pool.forward(x)
        np.testing.assert_array_equal(out, oracle.maxpool1d_loops(x, 2, stride=2))
        grad = signed_zeros(rng, rng.standard_normal(out.shape).astype(dtype))
        assert_same_bits(pool.backward(grad),
                         oracle.maxpool1d_backward_free_mask(x, out, grad, 2))

    @pytest.mark.parametrize("factor", range(1, 9))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_bits_equal_repeat(self, rng, factor, dtype):
        x = rng.standard_normal((4, 6, 9)).astype(dtype)
        for view in (x, x[:, ::2, 1:], x.transpose(0, 2, 1), x[:0]):
            assert_same_bits(Upsample1d(factor).forward(view),
                             oracle.upsample1d_repeat(view, factor))


class TestFloat32:
    """Every layer computes and allocates in its input's dtype: float32 in
    and float32 parameters give float32 out, forward and backward."""

    @pytest.mark.parametrize("make,shape", [
        (lambda r: Conv1d(3, 4, 3, rng=r), (2, 3, 12)),
        (lambda r: BatchNorm1d(3), (4, 3, 8)),
        (lambda r: LeakyReLU(0.01), (2, 3, 8)),
        (lambda r: Sigmoid(), (2, 3, 8)),
        (lambda r: MaxPool1d(), (2, 3, 8)),
        (lambda r: AvgPool1d(3), (2, 3, 9)),
        (lambda r: Upsample1d(2), (2, 3, 4)),
        (lambda r: Linear(5, 4, rng=r), (3, 5)),
        (lambda r: SEBlock(8, 4, 0.01, rng=r), (2, 8, 16)),
        (lambda r: PPMBlock(8, 4, rng=r), (2, 8, 8)),
    ], ids=["conv", "bn-train", "leaky", "sigmoid", "maxpool", "avgpool",
            "upsample", "linear", "se", "ppm"])
    def test_forward_and_backward_keep_float32(self, rng, make, shape):
        layer = cast_model(make(rng), np.float32)
        x = rng.standard_normal(shape).astype(np.float32)
        out = layer.forward(x)
        grad_x = layer_backward(layer, np.ones_like(out), x)
        assert out.dtype == grad_x.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in layer.params().values())

    def test_slots_and_batchnorm_buffers_are_built_float32(self, rng):
        for layer in (Conv1d(2, 3, 3, rng=rng), BatchNorm1d(3), Linear(2, 3, rng=rng)):
            arrays = [a for p in layer.params().values() for a in (p.value, p.grad)]
            if isinstance(layer, BatchNorm1d):
                arrays += [layer.running_mean, layer.running_var]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_float64_batch_leaves_batchnorm_buffers_float32(self, rng):
        bn = BatchNorm1d(2)
        mean, var = bn.running_mean, bn.running_var
        x = 3.0 + rng.standard_normal((4, 2, 8))
        bn.forward(x)
        assert bn.running_mean is mean and bn.running_var is var  # updated in place
        assert mean.dtype == var.dtype == np.float32
        want_mean = 0.9 * np.zeros(2) + 0.1 * x.mean(axis=(0, 2))
        want_var = 0.9 * np.ones(2) + 0.1 * x.var(axis=(0, 2))
        np.testing.assert_allclose(mean, want_mean, rtol=1e-6)
        np.testing.assert_allclose(var, want_var, rtol=1e-6)

    def test_sigmoid_saturates_without_overflow(self):
        # exp(100) overflows float32; the gate is exactly 0 there, not an error
        out = Sigmoid().forward(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([0.0, 0.5, 1.0], dtype=np.float32))


U32 = np.finfo(np.float32).eps / 2  # float32 unit roundoff, 2**-24


def float32_layer(layer, rng):
    cast_model(layer, np.float32)
    for p in layer.params().values():  # away from the init's 1s and 0s
        p.value += rng.uniform(-0.5, 0.5, p.value.shape).astype(np.float32)
    return layer


class TestChannelReductions:
    """Per-channel sums over batch and time, run in float32, against float64.

    A sum over batch then time is a chain of at most k = B + T roundings, so
    it lies within k*u*sum|terms| of the exact sum (u = 2**-24). The bounds
    below carry that through the statistics that use it; every reference is
    float64 on the same float32 values.
    """

    SHAPES = [(256, 8, 16), (64, 5, 64), (3, 2, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm_train_agrees_with_float64(self, rng, shape, monkeypatch):
        b, c, t = shape
        k, n = b + t, b * t
        monkeypatch.setattr(layers, "BN_MOMENTUM", 1.0)  # running stats = batch stats
        bn = float32_layer(BatchNorm1d(c), rng)
        x = (3.0 + 2.0 * rng.standard_normal(shape)).astype(np.float32)
        g = (0.5 + rng.standard_normal(shape)).astype(np.float32)
        y = bn.forward(x)
        mean, var = bn.running_mean, bn.running_var
        bn.backward(g)

        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        gamma, beta = bn.gamma.value.astype(np.float64), bn.beta.value.astype(np.float64)
        m, v = x64.mean(axis=(0, 2)), x64.var(axis=(0, 2))
        s = np.sqrt(v + layers.BN_EPSILON)
        xhat = (x64 - m[:, None]) / s[:, None]
        sc = (gamma / s)[:, None]
        want_y = gamma[:, None] * xhat + beta[:, None]

        # first-order bounds; a spare u per step absorbs the second-order terms
        # mean: k additions, one division
        tol_mean = (k + 1) * U32 * np.abs(x64).sum(axis=(0, 2)) / n
        # var: centring, squaring, k additions, one division; the mean's error
        # enters squared
        tol_var = (k + 5) * U32 * v + 2 * tol_mean**2
        rel_inv = tol_var / (2 * (v + layers.BN_EPSILON)) + 3 * U32  # of 1/sqrt(var + eps)
        # y = x*scale + shift with shift = beta - mean*scale
        tol_y = (np.abs(sc) * (tol_mean[:, None]
                               + (np.abs(x64) + np.abs(m)[:, None]) * (rel_inv[:, None] + 3 * U32))
                 + 2 * U32 * (np.abs(want_y) + np.abs(beta)[:, None]))
        # backward recomputes xhat from the cached mean and 1/std
        tol_xhat = (tol_mean / s)[:, None] + np.abs(xhat) * (rel_inv[:, None] + 3 * U32)
        tol_dgamma = ((np.abs(g64) * tol_xhat).sum(axis=(0, 2))
                      + (k + 1) * U32 * np.abs(g64 * xhat).sum(axis=(0, 2)))
        tol_dbeta = k * U32 * np.abs(g64).sum(axis=(0, 2))

        assert mean.dtype == y.dtype == bn.gamma.grad.dtype == np.float32
        assert np.all(np.abs(mean - m) <= tol_mean)
        assert np.all(np.abs(var - v) <= tol_var)
        assert np.all(np.abs(y - want_y) <= tol_y)
        assert np.all(np.abs(bn.gamma.grad - (g64 * xhat).sum(axis=(0, 2))) <= tol_dgamma)
        assert np.all(np.abs(bn.beta.grad - g64.sum(axis=(0, 2))) <= tol_dbeta)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_conv_bias_grad_agrees_with_float64(self, rng, shape):
        b, c, t = shape
        conv = float32_layer(Conv1d(c, 4, 3, rng=rng), rng)
        x = rng.standard_normal(shape).astype(np.float32)
        out = conv.forward(x)
        g = (0.5 + rng.standard_normal(out.shape)).astype(np.float32)
        conv.backward(g, [x])
        g64 = g.astype(np.float64)
        tol = (b + out.shape[2]) * U32 * np.abs(g64).sum(axis=(0, 2))
        assert conv.b.grad.dtype == np.float32
        assert np.all(np.abs(conv.b.grad - g64.sum(axis=(0, 2))) <= tol)

    @pytest.mark.parametrize("view", [lambda a: a[:, :, ::2], lambda a: a[:, 1:-1]],
                             ids=["time-stride", "channel-slice"])
    def test_noncontiguous_input_gives_its_contiguous_copys_bits(self, rng, view):
        base = (3.0 + 2.0 * rng.standard_normal((32, 6, 24))).astype(np.float32)
        grad = rng.standard_normal(base.shape).astype(np.float32)
        x, g = view(base), view(grad)
        assert not x.flags.c_contiguous
        results = []
        for xs, gs in [(x, g), (np.ascontiguousarray(x), np.ascontiguousarray(g))]:
            bn = float32_layer(BatchNorm1d(xs.shape[1]), np.random.default_rng(3))
            y = bn.forward(xs)
            gx = bn.backward(gs)
            conv = float32_layer(Conv1d(xs.shape[1], xs.shape[1], 1, rng=np.random.default_rng(4)),
                                 np.random.default_rng(5))
            conv.forward(xs)
            conv.backward(gs, [xs])
            results.append([y, gx, bn.running_mean, bn.running_var,
                            bn.gamma.grad, bn.beta.grad, conv.b.grad])
        for got, want in zip(*results):
            assert_same_bits(got, want)


class TestLinear:
    def test_affine(self, rng):
        lin = cast_model(Linear(3, 2, rng=rng))
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(lin.forward(x), x @ lin.w.value + lin.b.value)

    def test_gradient(self, rng):
        lin = cast_model(Linear(4, 3, rng=rng))
        rep = layer_loss_check(lin, rng.standard_normal((5, 4)))
        assert rep.max_error < 1e-6, rep.failures

    def test_feature_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="^linear: feature dimension mismatch$"):
            Linear(4, 3, rng=rng).forward(np.zeros((5, 3)))


class TestSEBlock:
    def test_gate_bounds_output(self, rng):
        se = cast_model(SEBlock(8, reduction=4, slope=0.01, rng=rng))
        x = rng.standard_normal((2, 8, 16))
        out = se.forward(x)
        assert (np.abs(out) <= np.abs(x) + 1e-12).all()

    def test_zero_excitation_halves_input(self, rng):
        se = cast_model(SEBlock(8, reduction=4, slope=0.01, rng=rng))
        se.fc2.w.value[:] = 0.0
        se.fc2.b.value[:] = 0.0
        x = rng.standard_normal((2, 8, 16))
        np.testing.assert_allclose(se.forward(x), x / 2.0)

    def test_gradient(self, rng):
        se = cast_model(SEBlock(8, reduction=4, slope=0.01, rng=rng))
        rep = layer_loss_check(se, rng.standard_normal((2, 8, 16)))
        assert rep.max_error < 1e-6, rep.failures

    def test_params_are_dotted_child_slots(self, rng):
        se = SEBlock(8, reduction=4, slope=0.01, rng=rng)
        params = se.params()
        assert list(params) == ["fc1.w", "fc1.b", "fc2.w", "fc2.b"]
        assert params["fc2.w"] is se.fc2.w


class TestPPMBlock:
    def test_output_shape(self, rng):
        ppm = PPMBlock(64, 16, rng=rng)
        out = ppm.forward(rng.standard_normal((2, 64, 8)))
        assert out.shape == (2, 112, 8)

    def test_constant_input_passthrough(self, rng):
        ppm = cast_model(PPMBlock(8, 4, rng=rng))
        x = np.full((1, 8, 8), 3.0)
        out = ppm.forward(x)
        np.testing.assert_allclose(out[:, :8], x)

    def test_params_are_dotted_child_slots(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        params = ppm.params()
        assert list(params) == [f"reduce{i}.{k}" for i in range(3) for k in ("w", "b")]
        assert params["reduce1.b"] is ppm.reducers[1].b
        assert list(ppm.modules()) == [ppm, *ppm.pools, *ppm.reducers, *ppm.ups]
        assert list(ppm.children()) == [f"{kind}{i}" for kind in ("pool", "reduce", "up")
                                        for i in range(3)]

    def test_bad_length_rejected(self, rng):
        ppm = PPMBlock(8, 4, rng=rng)
        with pytest.raises(ValueError):
            ppm.forward(rng.standard_normal((1, 8, 12)))

    def test_gradient(self, rng):
        ppm = cast_model(PPMBlock(8, 4, rng=rng))
        rep = layer_loss_check(ppm, rng.standard_normal((2, 8, 8)))
        assert rep.max_error < 1e-6, rep.failures

    def test_input_gradient_vs_finite_differences(self, rng):
        ppm = cast_model(PPMBlock(4, 2, rng=rng))
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


class TestLayerTree:
    def test_children_are_layer_attributes_in_assignment_order(self):
        @dataclass
        class Settings:
            width: int = 2

        class Tiny(Layer):
            def __init__(self):
                self.size = 3
                self.shape = (1, 2)
                self.table = np.zeros(2)
                self.settings = Settings()
                self.names = ["a", "b"]
                self.gate = Sigmoid()
                self.stages = [LeakyReLU(), MaxPool1d()]
                self.fc = Linear(2, 2, rng=np.random.default_rng(0))
                self.forward = self.gate.forward  # a hook bound onto the instance
                self._cache = (Sigmoid(),)

        t = Tiny()
        children = t.children()
        assert list(children) == ["gate", "stages.0", "stages.1", "fc"]
        assert list(children.values()) == [t.gate, *t.stages, t.fc]
        assert list(t.params()) == ["fc.w", "fc.b"]
        assert list(t.modules()) == [t, t.gate, *t.stages, t.fc]

    @pytest.mark.parametrize("make", [
        lambda: Conv1d(1, 1, 3, rng=np.random.default_rng(0)), lambda: BatchNorm1d(2),
        LeakyReLU, Sigmoid, lambda: MaxPool1d(), lambda: AvgPool1d(2),
        lambda: Linear(2, 2, rng=np.random.default_rng(0)),
        lambda: SEBlock(4, 4, 0.01, rng=np.random.default_rng(0)),
        lambda: PPMBlock(4, 2, rng=np.random.default_rng(0)),
    ])
    def test_backward_without_forward_names_the_layer(self, make):
        layer = make()
        message = f"^{type(layer).__name__}.backward called without a forward cache$"
        with pytest.raises(RuntimeError, match=message):
            layer_backward(layer, np.zeros((1, 2, 4)), np.zeros((1, 2, 4)))


# every layer type of the library with an input its train forward takes, and
# the layer type a backward without a cache names. An Upsample1d caches
# nothing and needs nothing
CACHE_CASES = [
    (lambda: Conv1d(2, 3, 3, rng=np.random.default_rng(0)), (3, 2, 8), "Conv1d"),
    (lambda: BatchNorm1d(2), (3, 2, 8), "BatchNorm1d"),
    (LeakyReLU, (3, 2, 8), "LeakyReLU"),
    (Sigmoid, (3, 2, 8), "Sigmoid"),
    (MaxPool1d, (3, 2, 8), "MaxPool1d"),
    (lambda: AvgPool1d(2), (3, 2, 8), "AvgPool1d"),
    (lambda: Linear(2, 3, rng=np.random.default_rng(0)), (3, 2), "Linear"),
    (lambda: SEBlock(4, 4, 0.01, rng=np.random.default_rng(0)), (3, 4, 8), "SEBlock"),
    (lambda: PPMBlock(4, 2, rng=np.random.default_rng(0)), (3, 4, 8), "PPMBlock"),
]


class TestCacheLifetime:
    """A cache lives from forward to backward: the backward that reads it drops it."""

    def test_cases_cover_every_layer_type(self):
        kinds = {v for v in vars(layers).values()
                 if isinstance(v, type) and issubclass(v, Layer) and v is not Layer}
        assert {type(make()) for make, _, _ in CACHE_CASES} == kinds - {Upsample1d}

    @pytest.mark.parametrize("make, shape, name", CACHE_CASES,
                             ids=[type(make()).__name__ for make, _, _ in CACHE_CASES])
    def test_a_second_backward_after_one_forward_raises(self, make, shape, name, rng):
        layer = cast_model(make())
        x = rng.standard_normal(shape)
        out = layer.forward(x)
        layer_backward(layer, np.ones_like(out), x)
        assert all(m._cache is None for m in layer.modules())
        with pytest.raises(RuntimeError, match=f"^{name}.backward called without a forward cache$"):
            layer_backward(layer, np.ones_like(out), x)
