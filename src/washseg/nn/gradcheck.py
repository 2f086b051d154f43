"""Central finite-difference gradient checking.

Works on anything exposing named Param slots plus a scalar loss closure:
the closure runs forward (and backward, when asked) and returns the loss.
For large parameter slots a random coordinate subset is checked; full
enumeration is the default for small slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    per_slot: dict = field(default_factory=dict)  # name -> max relative error
    tolerance: float = 1e-6

    @property
    def max_error(self) -> float:
        return max(self.per_slot.values()) if self.per_slot else 0.0

    @property
    def failures(self) -> dict:
        return {k: v for k, v in self.per_slot.items() if v > self.tolerance}

    @property
    def ok(self) -> bool:
        return not self.failures


def _rel_err(a: float, f: float, atol: float) -> float:
    # central differences bottom out at ~loss*eps/h; differences below atol
    # are roundoff, not gradient error (matters for near-zero gradients,
    # e.g. a conv bias feeding batchnorm)
    if abs(a - f) <= atol:
        return 0.0
    return abs(a - f) / max(abs(a), abs(f), 1e-8)


def grad_check(
    loss_fn,
    params: dict,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    atol: float = 1e-9,
    max_coords_per_slot: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn(compute_grads: bool)`` must return the scalar loss; when
    ``compute_grads`` is true it must also accumulate gradients into the
    Param slots (which are zeroed here first).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params.values():
        p.zero_grad()
    loss_fn(True)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = GradCheckReport(tolerance=tolerance)
    for name, p in params.items():
        flat = p.value.reshape(-1)
        n = flat.size
        if max_coords_per_slot is not None and n > max_coords_per_slot:
            coords = rng.choice(n, size=max_coords_per_slot, replace=False)
        else:
            coords = range(n)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(False)
            flat[i] = orig - h
            lm = loss_fn(False)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, _rel_err(analytic[name].reshape(-1)[i], fd, atol))
        report.per_slot[name] = worst
    return report
