"""Deterministic synthetic corpus of labeled handwashing-like IMU streams.

Each procedure is background, the nine gestures (order possibly locally
shuffled, some dropped), then background again. A gesture emits, per axis,
a sum of two sinusoids at its base frequency and first harmonic, with
participant-specific amplitude and phase offsets; background is a
low-amplitude random walk. Labels are exact by construction and the whole
corpus is a pure function of the spec.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .scoring import PROFESSIONAL_DURATIONS
from .signal_data import SampleSeries, corpus_filename, write_csv
from .textconfig import TextConfig

# distinct base frequencies (Hz) for gestures 1..9, within hand-motion range
BASE_FREQS = np.arange(1.0, 3.7, 0.3)[:9]


@dataclass
class GenSpec(TextConfig):
    _label = "generator"

    seed: int = 0
    participants: int = 10
    locations: int = 1
    procedures_per_participant: int = 5
    rate_hz: float = 50.0
    duration_means: tuple = tuple(PROFESSIONAL_DURATIONS.tolist())
    duration_jitter: float = 0.2
    noise_sigma: float = 0.1
    background_range_s: tuple = (2.0, 5.0)
    background_walk_sigma: float = 0.02
    sequence_shuffle_prob: float = 0.1
    gesture_drop_prob: float = 0.05
    participant_variation: float = 0.35

    def validate(self):
        """Reject, naming the field, every spec that generation cannot run."""
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("participants", "locations", "procedures_per_participant"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.rate_hz < math.inf:
            raise ValueError("rate_hz must be finite and positive")
        if len(self.duration_means) != 9 or not all(0.0 < d < math.inf
                                                   for d in self.duration_means):
            raise ValueError("duration_means needs 9 finite, positive values")
        for name in ("noise_sigma", "background_walk_sigma", "participant_variation"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        lo_hi = self.background_range_s
        if len(lo_hi) != 2 or not 0.0 <= lo_hi[0] <= lo_hi[1] < math.inf:
            raise ValueError("background_range_s needs two finite values 0 <= lo <= hi")
        for name in ("sequence_shuffle_prob", "gesture_drop_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.duration_jitter < 1.0:
            raise ValueError("duration_jitter must lie in [0, 1)")
        if len(set(np.round(BASE_FREQS, 6))) != 9:
            raise ValueError("gesture base frequencies must be distinct")
        return self


def _gesture_profile(gesture: int):
    """Fixed per-gesture amplitude/phase template, shared by all participants."""
    rng = np.random.default_rng(np.random.SeedSequence([9173, gesture]))
    accel_amp = rng.uniform(0.5, 2.0, size=3)
    gyro_amp = rng.uniform(0.5, 2.0, size=3)
    phases = rng.uniform(0, 2 * np.pi, size=(2, 3, 2))  # modality x axis x harmonic
    return accel_amp, gyro_amp, phases


_PROFILES = {g: _gesture_profile(g) for g in range(1, 10)}


def _gesture_signal(gesture, n, rate_hz, amp_mul, phase_off, noise, rng):
    """(accel (3,n), gyro (3,n)) for one gesture segment."""
    f = BASE_FREQS[gesture - 1]
    t = np.arange(n) / rate_hz
    accel_amp, gyro_amp, phases = _PROFILES[gesture]
    out = []
    for m, base_amp in enumerate((accel_amp, gyro_amp)):
        sig = np.empty((3, n))
        for axis in range(3):
            a = base_amp[axis] * amp_mul[m, axis]
            sig[axis] = a * (
                np.sin(2 * np.pi * f * t + phases[m, axis, 0] + phase_off[m, axis])
                + 0.5 * np.sin(2 * np.pi * 2 * f * t + phases[m, axis, 1] + phase_off[m, axis])
            )
        sig += rng.normal(0.0, noise, size=(3, n))
        out.append(sig)
    return out[0], out[1]


def _background_signal(n, walk_sigma, noise, rng):
    accel = np.cumsum(rng.normal(0.0, walk_sigma, size=(3, n)), axis=1)
    gyro = np.cumsum(rng.normal(0.0, walk_sigma, size=(3, n)), axis=1)
    accel += rng.normal(0.0, noise, size=(3, n))
    gyro += rng.normal(0.0, noise, size=(3, n))
    return accel, gyro


def _participant_traits(spec: GenSpec, loc: int, part: int):
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7001, loc, part]))
    amp_mul = 1.0 + spec.participant_variation * rng.standard_normal((2, 3))
    amp_mul = np.clip(amp_mul, 0.3, None)
    phase_off = rng.uniform(0, 2 * np.pi, size=(2, 3))
    return amp_mul, phase_off


def generate_procedure(spec: GenSpec, loc: int, part: int, proc: int) -> SampleSeries:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, loc, part, proc]))
    amp_mul, phase_off = _participant_traits(spec, loc, part)
    rate = spec.rate_hz

    order = list(range(1, 10))
    for i in range(len(order) - 1):
        if rng.random() < spec.sequence_shuffle_prob:
            order[i], order[i + 1] = order[i + 1], order[i]
    order = [g for g in order if rng.random() >= spec.gesture_drop_prob]

    acc_parts, gyr_parts, lab_parts = [], [], []

    def background():
        dur = rng.uniform(*spec.background_range_s)
        n = max(1, int(round(dur * rate)))
        a, g = _background_signal(n, spec.background_walk_sigma, spec.noise_sigma, rng)
        acc_parts.append(a)
        gyr_parts.append(g)
        lab_parts.append(np.zeros(n, dtype=np.int64))

    background()
    for gesture in order:
        mean = spec.duration_means[gesture - 1]
        dur = mean * (1.0 + rng.uniform(-spec.duration_jitter, spec.duration_jitter))
        n = max(1, int(round(dur * rate)))
        a, g = _gesture_signal(gesture, n, rate, amp_mul, phase_off, spec.noise_sigma, rng)
        acc_parts.append(a)
        gyr_parts.append(g)
        lab_parts.append(np.full(n, gesture, dtype=np.int64))
    background()

    accel = np.concatenate(acc_parts, axis=1)
    gyro = np.concatenate(gyr_parts, axis=1)
    labels = np.concatenate(lab_parts)
    n = labels.size
    return SampleSeries(
        participant_id=f"p{part:02d}",
        location_id=f"loc{loc}",
        procedure_id=proc,
        t=np.arange(n) / rate,
        accel=accel,
        gyro=gyro,
        label=labels,
        rate_hz=rate,
    )


def generate(spec: GenSpec):
    """Full corpus: participants round-robin over locations, each with
    ``procedures_per_participant`` procedures numbered from 1."""
    spec.validate()
    corpus = []
    for part in range(spec.participants):
        loc = part % spec.locations
        for proc in range(1, spec.procedures_per_participant + 1):
            corpus.append(generate_procedure(spec, loc, part, proc))
    return corpus


def write_corpus(corpus, directory):
    os.makedirs(directory, exist_ok=True)
    for s in corpus:
        write_csv(s, os.path.join(directory, corpus_filename(s)))


def describe(corpus, window=64) -> dict:
    """Corpus statistics: windowed instance counts, class balance, breakdowns."""
    if not corpus:
        raise ValueError("empty corpus")
    total_samples = 0
    instances = 0
    class_counts = np.zeros(10, dtype=np.int64)
    by_location = {}
    by_participant = {}
    empty_gesture_procedures = []
    for s in corpus:
        n = len(s)
        total_samples += n
        instances += max(0, n - window + 1)
        class_counts += np.bincount(s.label, minlength=10)
        by_location[s.location_id] = by_location.get(s.location_id, 0) + 1
        key = f"{s.location_id}_{s.participant_id}"
        by_participant[key] = by_participant.get(key, 0) + 1
        if not (s.label > 0).any():
            empty_gesture_procedures.append(f"{key}_{s.procedure_id}")
    return {
        "series": len(corpus),
        "total_samples": total_samples,
        "stride1_instances": instances,
        "class_counts": class_counts.tolist(),
        "background_fraction": float(class_counts[0] / total_samples),
        "procedures_per_location": by_location,
        "procedures_per_participant": by_participant,
        "empty_gesture_procedures": empty_gesture_procedures,
    }
