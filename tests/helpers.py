"""Test helpers that need no pytest, so ``bits.py`` imports them as the
tests do."""

import tracemalloc

import numpy as np

from washseg.nn import BatchNorm1d


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


def cached_bytes(model):
    """Bytes of the distinct arrays every layer's cache holds, views counted
    once through the array that owns their memory."""
    owners, stack = {}, [m._cache for m in model.modules()]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            owners[id(item)] = item.nbytes
    return sum(owners.values())


def traced(run):
    """``run()``'s result, the bytes tracemalloc counts held as it returns,
    and their peak during the call."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
        return result, held, peak
    finally:
        tracemalloc.stop()
