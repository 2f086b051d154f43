"""Adam optimizer over a fixed list of parameter slots."""

from __future__ import annotations

import numpy as np


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over the ``Param`` slots it is
    built with; moment ``i`` belongs to slot ``i``."""

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        """Apply one update to every slot from its current gradient."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = BETA1 * self.m[i] + (1 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1 - BETA2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
