"""Procedure scoring against guideline-recommended gesture durations.

Each of the nine gestures contributes up to 100/9 points, scaling linearly
with estimated duration and saturating at the professional duration for
that gesture. The professional durations are max/min-trimmed averages of
the per-video recommendations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# trimmed averages of the reference-video durations, gestures 1..9; the
# tests derive them from the per-video rows
PROFESSIONAL_DURATIONS = np.array([4.9, 3.65, 3.65, 5.4, 4.0, 3.45, 3.45, 4.1, 4.1])


@dataclass
class ScoreReport:
    per_gesture_duration: np.ndarray  # estimated seconds, gestures 1..9
    per_gesture_score: np.ndarray  # each in [0, 100/9]

    @property
    def total(self) -> float:
        return float(self.per_gesture_score.sum())

    def to_json(self) -> str:
        return json.dumps(
            {
                "per_gesture_duration": [float(v) for v in self.per_gesture_duration],
                "per_gesture_score": [float(v) for v in self.per_gesture_score],
                "total": self.total,
            },
            indent=2,
        )


def score(estimated_durations) -> ScoreReport:
    """Score nine estimated gesture durations (seconds) out of 100 points."""
    est = np.asarray(estimated_durations, dtype=np.float64)
    if est.shape != (9,):
        raise ValueError("expected 9 gesture durations")
    bad = np.flatnonzero(~np.isfinite(est))
    if bad.size:
        raise ValueError(f"gesture {bad[0] + 1} duration {est[bad[0]]} is not finite")
    if (est < 0).any():
        raise ValueError("durations must be non-negative")
    per = (100.0 / 9.0) * np.minimum(1.0, est / PROFESSIONAL_DURATIONS)
    return ScoreReport(per_gesture_duration=est, per_gesture_score=per)


def score_error(predicted: ScoreReport, ground_truth: ScoreReport) -> float:
    """Absolute difference of total scores, in points."""
    for rep in (predicted, ground_truth):
        if not 0.0 <= rep.total <= 100.0 + 1e-9:
            raise ValueError("total score outside [0, 100]")
    return abs(predicted.total - ground_truth.total)
