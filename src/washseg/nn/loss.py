"""Sample-wise softmax cross-entropy for (batch, classes, time) logits."""

from __future__ import annotations

import numpy as np


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over every (batch, time) sample.

    Returns (loss, grad_logits) where grad_logits is
    (softmax - onehot) / (B*T), i.e. the gradient of the mean loss.
    """
    b, c, t = logits.shape
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels have dtype {labels.dtype}, not an integer type")
    if labels.shape != (b, t):
        raise ValueError(f"labels shape {labels.shape} does not match logits {(b, t)}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in 0..{c - 1}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)  # >= 1: the max term is exp(0)
    bi = np.arange(b)[:, None]
    ti = np.arange(t)[None, :]
    n = b * t
    # log-softmax never takes log(0), even where the true-class probability
    # underflows (near 1e-38 in float32)
    log_p_true = shifted[bi, labels, ti] - np.log(total[:, 0, :])
    loss = float(-log_p_true.sum() / n)
    grad = e / total
    grad[bi, labels, ti] -= 1.0
    grad /= n
    return loss, grad
