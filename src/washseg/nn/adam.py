"""Adam optimizer over named parameter slots."""

from __future__ import annotations

import numpy as np


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction.

    Moment tensors are keyed by parameter name and created lazily on the
    first step so the optimizer can be built before the model is final.
    """

    def __init__(self, lr=0.001):
        self.lr = lr
        self.step_count = 0
        self.m = {}
        self.v = {}

    def step(self, params: dict):
        """Apply one update to every parameter in ``params``."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.value)
                self.v[name] = np.zeros_like(p.value)
            if self.m[name].shape != p.value.shape:
                raise ValueError(f"adam: state shape mismatch for '{name}'")
            g = p.grad
            self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
