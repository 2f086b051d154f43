import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from washseg.nn import BatchNorm1d
from washseg.signal_data import SampleSeries


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_series(labels, rate_hz=50.0, participant="p00", location="loc0", procedure=1, seed=0):
    """A SampleSeries with given labels and random sensor content."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    g = np.random.default_rng(seed)
    return SampleSeries(
        participant_id=participant,
        location_id=location,
        procedure_id=procedure,
        t=np.arange(n) / rate_hz,
        accel=g.standard_normal((3, n)),
        gyro=g.standard_normal((3, n)),
        label=labels,
        rate_hz=rate_hz,
    )


def cast_model(model, dtype=np.float64):
    """Cast a built layer tree's parameters and batch-norm buffers to ``dtype``
    in place. ``GestureNet`` computes in float32; gradcheck and the float64
    references run the same layer code on a model cast here."""
    for p in model.params().values():
        p.value = p.value.astype(dtype)
        p.grad = np.zeros_like(p.value)
    for m in model.modules():
        if isinstance(m, BatchNorm1d):
            m.running_mean = m.running_mean.astype(dtype)
            m.running_var = m.running_var.astype(dtype)
    return model
