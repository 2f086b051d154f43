import math

import numpy as np
import pytest

from washseg.nn import Adam, Param, softmax_cross_entropy


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_ln10(self, rng):
        logits = np.full((3, 10, 7), 1.23)
        labels = rng.integers(0, 10, size=(3, 7))
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - math.log(10)) < 1e-12

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 10, 4))
        labels = np.full((1, 4), 3)
        logits[0, 3, :] = 200.0
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss < 1e-12

    def test_float32_true_class_probability_underflow_gives_finite_loss(self):
        # exp(-200) underflows float32 to 0; the loss must still read ~200 nats
        logits = np.zeros((1, 10, 3), dtype=np.float32)
        logits[0, 4, :] = 200.0
        loss, grad = softmax_cross_entropy(logits, np.zeros((1, 3), dtype=int))
        assert np.isfinite(loss) and abs(loss - 200.0) < 1e-3
        assert grad.dtype == np.float32 and np.isfinite(grad).all()

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 10, 2)), np.array([[0, 10]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool])
    def test_non_integer_labels_rejected_naming_the_dtype(self, dtype):
        with pytest.raises(ValueError, match=f"^labels have dtype {np.dtype(dtype)}, "
                                             "not an integer type$"):
            softmax_cross_entropy(np.zeros((1, 10, 2)), np.zeros((1, 2), dtype))

    def test_gradient_vs_finite_differences(self, rng):
        logits = rng.standard_normal((2, 10, 5))
        labels = rng.integers(0, 10, size=(2, 5))
        _, grad = softmax_cross_entropy(logits, labels)
        h = 1e-6
        flat = logits.reshape(-1)
        for i in rng.choice(flat.size, 20, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = softmax_cross_entropy(logits, labels)
            flat[i] = orig - h
            lm, _ = softmax_cross_entropy(logits, labels)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad.reshape(-1)[i]) < 1e-6

    def test_grad_sums_to_zero_per_sample(self, rng):
        logits = rng.standard_normal((2, 10, 5))
        labels = rng.integers(0, 10, size=(2, 5))
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def param64(values):
    """A ``Param`` with float64 value and gradient slots: these checks hold
    Adam to float64 arithmetic, finer than the float32 slots ``Param`` builds."""
    p = Param(values)
    p.value = np.array(values, dtype=np.float64)
    p.grad = np.zeros_like(p.value)
    return p


class TestAdam:
    def test_first_step_magnitude(self):
        # step 1 with g=1: bias corrections cancel, |delta| = lr*|g|/(|g|+eps)
        p = param64([1.0])
        p.grad[:] = 1.0
        opt = Adam([p], lr=0.001)
        opt.step()
        assert abs((1.0 - p.value[0]) - 0.001 * 1.0 / (1.0 + 1e-8)) < 1e-12

    def test_zero_gradient_leaves_params(self):
        p = param64([2.0, -3.0])
        opt = Adam([p], lr=0.1)
        for _ in range(5):
            p.zero_grad()
            opt.step()
        np.testing.assert_allclose(p.value, [2.0, -3.0])

    def test_independent_parameters(self, rng):
        # two slots evolve exactly as they would alone
        a = param64([1.0])
        b = param64([5.0])
        opt = Adam([a, b], lr=0.01)
        a_alone = param64([1.0])
        opt_alone = Adam([a_alone], lr=0.01)
        for _ in range(10):
            g = float(rng.standard_normal())
            a.grad[:] = g
            b.grad[:] = -g
            a_alone.grad[:] = g
            opt.step()
            opt_alone.step()
        np.testing.assert_allclose(a.value, a_alone.value)

    def test_matches_hand_recurrence(self, rng):
        p = param64([0.5])
        opt = Adam([p], lr=0.002)
        m = v = 0.0
        x = 0.5
        for t in range(1, 6):
            g = float(rng.standard_normal())
            p.grad[:] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.002 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert abs(p.value[0] - x) < 1e-14

    def test_step_counter_increases(self):
        p = param64([1.0])
        opt = Adam([p])
        for i in range(3):
            opt.step()
        assert opt.step_count == 3
