"""Metrics and split protocols for corpus-level evaluation.

Covers global and per-participant sample accuracy, per-class
precision/recall/F1 with unweighted macro means, the 10x10 confusion
matrix, onset/offset detection errors, scoring errors, and the three
split protocols: user-dependent (all but the last procedure train, it tests),
leave-one-participant-out, and leave-one-location-out.

All mean/SD aggregates use the population SD (divide by n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .signal_data import NUM_CLASSES, WindowSet, corpus_filename, extract_windows
from .model import ArchConfig, GestureNet, TrainHyper, train
from .pipeline import (
    LabelTrack,
    detect_procedure,
    gesture_durations,
    infer_track,
    smooth,
)
from .scoring import score, score_error

SMOOTH_VARIANTS = ("raw", "mtv", "tmf", "mtv+tmf")


# -- metric kernels ----------------------------------------------------------

def accuracy_per_participant(prediction, ground_truth) -> float:
    prediction = np.asarray(prediction)
    ground_truth = np.asarray(ground_truth)
    if prediction.size == 0:
        raise ValueError("empty test series")
    if prediction.shape != ground_truth.shape:
        raise ValueError("prediction/ground-truth length mismatch")
    return float((prediction == ground_truth).mean())


def confusion_matrix(predictions, ground_truths) -> np.ndarray:
    """10x10 counts; rows are ground truth, columns are prediction."""
    cm = np.zeros(NUM_CLASSES * NUM_CLASSES, dtype=np.int64)
    for pred, truth in zip(predictions, ground_truths, strict=True):
        pred, truth = np.asarray(pred), np.asarray(truth)
        if pred.shape != truth.shape:
            raise ValueError("prediction/ground-truth length mismatch")
        cm += np.bincount((truth * NUM_CLASSES + pred).ravel(), minlength=cm.size)
    return cm.reshape(NUM_CLASSES, NUM_CLASSES)


def prf_confusion(predictions, ground_truths):
    """Confusion matrix plus per-class P/R/F1 and macro means.

    Classes never predicted or never present have a zero denominator; they
    score 0 and are listed in the ``degenerate`` set so macro means stay
    well-defined.
    """
    cm = confusion_matrix(predictions, ground_truths)
    tp = np.diag(cm).astype(np.float64)
    predicted = cm.sum(axis=0)
    actual = cm.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(NUM_CLASSES), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(NUM_CLASSES), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(NUM_CLASSES), where=both > 0)
    return {
        "confusion": cm,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "m_precision": float(precision.mean()),
        "m_recall": float(recall.mean()),
        "m_f1": float(f1.mean()),
        "degenerate_classes": np.flatnonzero((predicted == 0) | (actual == 0)).tolist(),
    }


def onset_offset_error(pred_span, true_span):
    """Absolute onset/offset differences in seconds, or None when either
    side detected no procedure (a detection failure, counted separately)."""
    if pred_span is None or true_span is None:
        return None
    return abs(pred_span[0] - true_span[0]), abs(pred_span[1] - true_span[1])


def mean_sd(values) -> tuple:
    """Population mean and SD (divide by n)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


# -- split protocols ---------------------------------------------------------

@dataclass
class SplitPlan:
    folds: list  # list of (name, train_series, test_series)

    def validate(self):
        for name, train_s, test_s in self.folds:
            if not train_s:
                raise ValueError(f"fold '{name}' has no training series")
            train_keys = {(s.location_id, s.participant_id, s.procedure_id) for s in train_s}
            test_keys = {(s.location_id, s.participant_id, s.procedure_id) for s in test_s}
            if train_keys & test_keys:
                raise ValueError(f"fold '{name}': train and test sets overlap")
        return self


def make_split(corpus, kind: str) -> SplitPlan:
    """Build a split plan over a list of SampleSeries.

    user-dependent: every participant has the same number of procedures, at
    least 2; per participant, all but the last train and the last one tests
    (one fold total). lopo: one fold per participant. lolo: one fold per
    location.
    """
    by_participant = {}
    for s in corpus:
        by_participant.setdefault((s.location_id, s.participant_id), []).append(s)
    for key in by_participant:
        by_participant[key].sort(key=lambda s: s.procedure_id)

    if kind == "user-dependent":
        counts = [len(v) for v in by_participant.values()]
        expected = max(counts, key=counts.count, default=2)  # most participants' count
        train_set, test_set = [], []
        for (loc, pid), series_list in sorted(by_participant.items()):
            if len(series_list) != expected or expected < 2:
                raise ValueError(
                    f"participant '{pid}' at '{loc}' has {len(series_list)} procedures, "
                    f"expected {expected if expected >= 2 else 'at least 2'}"
                )
            train_set.extend(series_list[:-1])
            test_set.append(series_list[-1])
        plan = SplitPlan([("user-dependent", train_set, test_set)])
    elif kind == "lopo":
        folds = []
        for (loc, pid), test_list in sorted(by_participant.items()):
            train_list = [s for s in corpus if (s.location_id, s.participant_id) != (loc, pid)]
            folds.append((f"lopo_{loc}_{pid}", train_list, test_list))
        plan = SplitPlan(folds)
    elif kind == "lolo":
        locations = sorted({s.location_id for s in corpus})
        folds = []
        for loc in locations:
            train_list = [s for s in corpus if s.location_id != loc]
            test_list = [s for s in corpus if s.location_id == loc]
            folds.append((f"lolo_{loc}", train_list, test_list))
        plan = SplitPlan(folds)
    else:
        raise ValueError(f"unknown split kind '{kind}'")
    return plan.validate()


# -- the evaluation harness --------------------------------------------------

@dataclass
class VariantMetrics:
    accuracy: float
    m_precision: float
    m_recall: float
    m_f1: float
    per_participant_accuracy: dict
    onset_mean: float
    onset_sd: float
    offset_mean: float
    offset_sd: float
    score_error_mean: float
    score_error_sd: float
    detection_failures: int
    confusion: np.ndarray

    def to_dict(self):
        """JSON-ready: a mean over no recordings (NaN, as when every one is a
        detection failure) becomes None, since JSON has no NaN."""
        d = {k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in self.__dict__.items() if k != "confusion"}
        d["confusion"] = self.confusion.tolist()
        return d


def evaluate_tracks(test_series, tracks) -> VariantMetrics:
    """Score one smoothing variant's tracks against their series labels."""
    preds = [t.labels for t in tracks]
    truths = [s.label for s in test_series]
    prf = prf_confusion(preds, truths)
    cm = prf["confusion"]
    per_participant = {}
    for s, t in zip(test_series, tracks):
        key = f"{s.location_id}_{s.participant_id}"
        per_participant.setdefault(key, []).append(accuracy_per_participant(t.labels, s.label))
    per_participant = {k: float(np.mean(v)) for k, v in per_participant.items()}

    onset_errs, offset_errs, score_errs = [], [], []
    failures = 0
    for s, t in zip(test_series, tracks):
        true_track = LabelTrack(labels=s.label)
        pred_span = detect_procedure(t, s.rate_hz)
        true_span = detect_procedure(true_track, s.rate_hz)
        err = onset_offset_error(pred_span, true_span)
        if err is None:
            failures += 1
        else:
            onset_errs.append(err[0])
            offset_errs.append(err[1])
        pred_score = score(gesture_durations(t, s.rate_hz))
        true_score = score(gesture_durations(true_track, s.rate_hz))
        score_errs.append(score_error(pred_score, true_score))

    onset_mean, onset_sd = mean_sd(onset_errs)
    offset_mean, offset_sd = mean_sd(offset_errs)
    se_mean, se_sd = mean_sd(score_errs)
    return VariantMetrics(
        # pooled over every recording: correct samples over all samples
        accuracy=int(np.trace(cm)) / int(cm.sum()),
        m_precision=prf["m_precision"],
        m_recall=prf["m_recall"],
        m_f1=prf["m_f1"],
        per_participant_accuracy=per_participant,
        onset_mean=onset_mean,
        onset_sd=onset_sd,
        offset_mean=offset_mean,
        offset_sd=offset_sd,
        score_error_mean=se_mean,
        score_error_sd=se_sd,
        detection_failures=failures,
        confusion=cm,
    )


def predict_variants(model, test_series, variants=SMOOTH_VARIANTS):
    """Each smoothing variant's tracks, per series, from one stride-1 pass
    (variant ``raw`` is smoothing method ``none``)."""
    out = {v: [] for v in variants}
    for s in test_series:
        track = infer_track(model, s, stride=1)
        for v in variants:
            out[v].append(smooth(track, "none" if v == "raw" else v))
    return out


def fold_windows(train_series, length, stride, max_windows=None, *, rng) -> WindowSet:
    """Pool every series' training windows into one ``WindowSet``, in series
    order; keep at most ``max_windows`` of them (None: all), drawn by ``rng``
    without replacement and left in that order."""
    if max_windows is not None and max_windows < 1:
        raise ValueError(f"max_windows must be at least 1, got {max_windows}")
    parts = []
    for s in train_series:
        if len(s) < length:
            raise ValueError(f"{corpus_filename(s)} has {len(s)} samples, "
                             f"fewer than the {length}-sample window")
        parts.append(extract_windows(s, length, stride))
    series_id = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    start = np.concatenate([p.start for p in parts]) if parts else series_id
    if max_windows is not None and start.size > max_windows:
        keep = np.sort(rng.choice(start.size, size=max_windows, replace=False))
        series_id, start = series_id[keep], start[keep]
    return WindowSet(tuple(p.series[0] for p in parts), series_id, start, length)


def run_evaluation(split: SplitPlan, hyper: TrainHyper, window_stride: int, max_windows,
                   verbose=False):
    """Train a model on every fold of a split plan and evaluate it.

    Returns {fold_name: {variant: VariantMetrics}} plus an "_aggregate"
    entry whose accuracy is the sample-weighted combination over folds.
    """
    arch = ArchConfig()
    hyper.validate()
    for _, _, test_series in split.folds:  # before any fold trains
        for s in test_series:
            if len(s) < arch.input_length:
                raise ValueError(f"{corpus_filename(s)} has {len(s)} samples, "
                                 f"fewer than the {arch.input_length}-sample model input")
    results = {}
    totals = {v: [0, 0] for v in SMOOTH_VARIANTS}  # correct, total
    for fold_name, train_series, test_series in split.folds:
        windows = fold_windows(train_series, arch.input_length, window_stride, max_windows,
                               rng=np.random.default_rng(hyper.seed))
        model = GestureNet(arch, seed=hyper.seed)
        train(model, windows, hyper, verbose=verbose)
        tracks = predict_variants(model, test_series)
        fold_metrics = {}
        for variant, variant_tracks in tracks.items():
            m = evaluate_tracks(test_series, variant_tracks)
            fold_metrics[variant] = m
            totals[variant][0] += int(np.trace(m.confusion))
            totals[variant][1] += int(m.confusion.sum())
        results[fold_name] = fold_metrics
        if verbose:
            acc = fold_metrics["mtv+tmf"].accuracy
            print(f"fold {fold_name}: mtv+tmf accuracy {acc:.4f}")
    results["_aggregate"] = {
        v: {"accuracy": c / t if t else None} for v, (c, t) in totals.items()
    }
    return results


def report_to_json(results) -> str:
    out = {}
    for fold, metrics in results.items():
        if fold == "_aggregate":
            out[fold] = metrics
        else:
            out[fold] = {v: m.to_dict() for v, m in metrics.items()}
    return json.dumps(out, indent=2, allow_nan=False)


def confusion_to_csv(cm: np.ndarray) -> str:
    lines = ["truth\\pred," + ",".join(str(c) for c in range(NUM_CLASSES))]
    for r in range(NUM_CLASSES):
        lines.append(f"{r}," + ",".join(str(int(v)) for v in cm[r]))
    return "\n".join(lines) + "\n"


def per_participant_csv(per_participant: dict) -> str:
    lines = ["participant,accuracy"]
    for key in sorted(per_participant):
        lines.append(f"{key},{per_participant[key]:.6f}")
    return "\n".join(lines) + "\n"
