import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from washseg.evaluation import confusion_matrix
from washseg.nn import Conv1d
from washseg.signal_data import RATE_HZ, SampleSeries


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_series(labels, participant="p00", location="loc0", procedure=1, seed=0):
    """A SampleSeries with given labels and random sensor content."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    g = np.random.default_rng(seed)
    return SampleSeries(
        participant_id=participant,
        location_id=location,
        procedure_id=procedure,
        t=np.arange(n) / RATE_HZ,
        accel=g.standard_normal((3, n)),
        gyro=g.standard_normal((3, n)),
        label=labels,
    )


def trimmed_average(values) -> float:
    """Drop one occurrence of the max and one of the min, average the rest:
    how ``scoring.PROFESSIONAL_DURATIONS`` come from the per-video rows."""
    values = list(values)
    if len(values) < 3:
        raise ValueError("trimmed_average needs at least 3 values")
    values.remove(max(values))
    values.remove(min(values))
    return sum(values) / len(values)


def accuracy_global(predictions, ground_truths) -> float:
    """Total correct samples over total samples, pooled across participants:
    the confusion matrix's trace over its sum."""
    cm = confusion_matrix(predictions, ground_truths)
    return int(np.trace(cm)) / int(cm.sum())


def layer_backward(layer, grad_out, x):
    """``layer.backward(grad_out)`` after a forward on ``x``; a ``Conv1d``
    keeps no copy of its input, so it takes ``x`` back as its one part."""
    return layer.backward(grad_out, [x]) if isinstance(layer, Conv1d) else layer.backward(grad_out)
