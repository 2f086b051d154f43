import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from washseg.evaluation import (
    SMOOTH_VARIANTS,
    SplitPlan,
    accuracy_global,
    accuracy_per_participant,
    confusion_matrix,
    confusion_to_csv,
    evaluate_tracks,
    fold_windows,
    make_split,
    mean_sd,
    onset_offset_error,
    per_participant_csv,
    predict_variants,
    prf_confusion,
    run_evaluation,
)
from washseg.model import TrainHyper, windows_to_arrays
from washseg.pipeline import LabelTrack, infer_track, smooth
from washseg.signal_data import extract_windows
from washseg.synth import GenSpec, generate, generate_procedure
from conftest import make_series
import oracle


class TestAccuracy:
    def test_perfect(self):
        preds = [np.array([1, 2, 3]), np.array([0, 0])]
        assert accuracy_global(preds, preds) == 1.0

    def test_half_correct(self):
        pred = [np.array([1, 1, 2, 2])]
        truth = [np.array([1, 1, 0, 0])]
        assert accuracy_global(pred, truth) == 0.5

    def test_three_participant_fixture(self):
        # 3 participants x 10 samples, 25 correct by construction
        truth = [np.zeros(10, int) for _ in range(3)]
        preds = [np.zeros(10, int) for _ in range(3)]
        preds[0][:2] = 1
        preds[1][:3] = 1
        assert accuracy_global(preds, truth) == pytest.approx(25 / 30)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy_global([np.zeros(3, int)], [np.zeros(4, int)])

    def test_per_participant(self):
        assert accuracy_per_participant(np.array([1, 1, 2]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_per_participant_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_per_participant(np.array([], dtype=int), np.array([], dtype=int))


class TestPrfConfusion:
    def test_perfect_predictions(self, rng):
        truth = [rng.integers(0, 10, size=200)]
        out = prf_confusion(truth, truth)
        np.testing.assert_array_equal(out["precision"], np.ones(10))
        np.testing.assert_array_equal(out["recall"], np.ones(10))
        assert out["m_f1"] == 1.0
        cm = out["confusion"]
        assert (cm - np.diag(np.diag(cm)) == 0).all()

    def test_always_zero_on_balanced_data(self):
        truth = [np.repeat(np.arange(10), 5)]
        preds = [np.zeros(50, int)]
        out = prf_confusion(preds, truth)
        assert out["recall"][0] == 1.0
        assert out["precision"][0] == pytest.approx(0.1)
        assert set(out["degenerate_classes"]) == set(range(1, 10))

    def test_row_sums_equal_class_counts(self, rng):
        truth = rng.integers(0, 10, size=300)
        preds = rng.integers(0, 10, size=300)
        cm = confusion_matrix([preds], [truth])
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(truth, minlength=10))
        assert cm.sum() == 300

    def test_accuracy_equals_trace_over_total(self, rng):
        truth = rng.integers(0, 10, size=500)
        preds = rng.integers(0, 10, size=500)
        cm = confusion_matrix([preds], [truth])
        assert accuracy_global([preds], [truth]) == pytest.approx(np.trace(cm) / cm.sum())

    def test_macro_f1_is_mean_of_per_class(self, rng):
        truth = rng.integers(0, 10, size=400)
        preds = rng.integers(0, 10, size=400)
        out = prf_confusion([preds], [truth])
        assert out["m_f1"] == pytest.approx(out["f1"].mean())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
                    max_size=4))
    def test_matches_loop_oracle_bit_for_bit(self, series):
        # class subsets, empty series and classes never predicted or never
        # present all arise from these draws
        preds = [np.array([p for p, _ in s], dtype=np.int64) for s in series]
        truths = [np.array([t for _, t in s], dtype=np.int64) for s in series]
        out = prf_confusion(preds, truths)
        cm, precision, recall, f1, degenerate = oracle.prf_loops(preds, truths)
        np.testing.assert_array_equal(out["confusion"], cm)
        for name, ref in (("precision", precision), ("recall", recall), ("f1", f1)):
            assert out[name].tobytes() == ref.tobytes(), name
        assert out["degenerate_classes"] == degenerate
        if cm.sum():
            assert accuracy_global(preds, truths) == np.trace(cm) / cm.sum()


class TestOnsetOffsetError:
    def test_identical(self):
        assert onset_offset_error((2.0, 9.0), (2.0, 9.0)) == (0.0, 0.0)

    def test_simple_difference(self):
        err = onset_offset_error((2.10, 9.0), (2.00, 9.05))
        assert err[0] == pytest.approx(0.10)
        assert err[1] == pytest.approx(0.05)

    def test_detection_failure(self):
        assert onset_offset_error(None, (2.0, 9.0)) is None

    def test_evaluate_tracks_counts_a_detection_failure(self):
        # the all-background track detects no procedure: it is counted and
        # left out of the onset/offset means, which are the other track's
        labels = np.array([0] * 20 + [3] * 100 + [0] * 20)
        shown, missed = make_series(labels), make_series(labels, participant="p01")
        late = np.concatenate([np.zeros(5, int), labels[:-5]])  # every edge 5 samples late
        m = evaluate_tracks([shown, missed], [LabelTrack(late), LabelTrack(np.zeros(140, int))])
        assert m.detection_failures == 1
        assert m.onset_mean == pytest.approx(0.1) and m.offset_mean == pytest.approx(0.1)
        assert m.onset_sd == m.offset_sd == 0.0

    def test_mean_sd_population(self):
        mean, sd = mean_sd([1.0, 3.0])
        assert mean == 2.0
        assert sd == 1.0  # population SD divides by n


def small_corpus(participants=4, locations=2, seed=11):
    return generate(GenSpec(seed=seed, participants=participants, locations=locations))


class TestSplits:
    def test_user_dependent_ratio(self):
        corpus = small_corpus()
        plan = make_split(corpus, "user-dependent")
        name, train_s, test_s = plan.folds[0]
        assert len(train_s) == 4 * 4 and len(test_s) == 4
        for s in test_s:
            assert s.procedure_id == 5

    def test_user_dependent_wrong_procedure_count(self):
        corpus = small_corpus()[:-1]  # drop one procedure
        with pytest.raises(ValueError, match="p03"):
            make_split(corpus, "user-dependent")

    def test_user_dependent_takes_the_corpus_procedure_count(self):
        spec = GenSpec(seed=11, participants=2)
        corpus = generate(spec) + [generate_procedure(spec, 0, part, 6) for part in range(2)]
        _, train_s, test_s = make_split(corpus, "user-dependent").folds[0]
        assert len(train_s) == 2 * 5 and len(test_s) == 2
        assert {s.procedure_id for s in test_s} == {6}

    def test_user_dependent_needs_two_procedures(self):
        spec = GenSpec(seed=11, participants=2)
        corpus = [generate_procedure(spec, 0, part, 1) for part in range(2)]
        with pytest.raises(ValueError, match="at least 2"):
            make_split(corpus, "user-dependent")

    def test_lopo_fold_count(self):
        corpus = small_corpus()
        plan = make_split(corpus, "lopo")
        assert len(plan.folds) == 4
        for name, train_s, test_s in plan.folds:
            test_pid = {s.participant_id for s in test_s}
            assert len(test_pid) == 1
            assert test_pid.isdisjoint({s.participant_id for s in train_s})

    def test_lolo_disjoint_participants(self):
        corpus = small_corpus()
        plan = make_split(corpus, "lolo")
        assert len(plan.folds) == 2
        for name, train_s, test_s in plan.folds:
            train_locs = {s.location_id for s in train_s}
            test_locs = {s.location_id for s in test_s}
            assert train_locs.isdisjoint(test_locs)

    def test_overlap_detected(self):
        s = make_series(np.zeros(64, dtype=int))
        with pytest.raises(ValueError, match="overlap"):
            SplitPlan([("f", [s], [s])]).validate()

    def test_lolo_with_one_location_names_the_fold(self):
        with pytest.raises(ValueError, match="^fold 'lolo_loc0' has no training series$"):
            make_split(small_corpus(participants=2, locations=1), "lolo")

    def test_lopo_with_one_participant_names_the_fold(self):
        with pytest.raises(ValueError, match="^fold 'lopo_loc0_p00' has no training series$"):
            make_split(small_corpus(participants=1, locations=1), "lopo")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_split(small_corpus(), "bogus")


def test_run_evaluation_rejects_bad_hyper_before_training():
    plan = make_split(small_corpus(participants=1, locations=1), "user-dependent")
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1"):
        run_evaluation(plan, TrainHyper(seed=-1), window_stride=1, max_windows=None)


def test_run_evaluation_names_a_short_test_recording_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the test recordings were checked")

    monkeypatch.setattr("washseg.evaluation.train", no_training)
    full = [make_series(np.zeros(100, dtype=int), participant=f"p0{i}") for i in range(3)]
    short = make_series(np.zeros(50, dtype=int), participant="p09", procedure=5)
    plan = SplitPlan([("first", full[:1], full[1:2]), ("second", full[2:], [short])])
    with pytest.raises(ValueError, match="^loc0_p09_5.csv has 50 samples, "
                                         "fewer than the 64-sample model input$"):
        run_evaluation(plan, TrainHyper(), window_stride=1, max_windows=None)


@pytest.mark.parametrize("max_windows", [-5, 0])
def test_fold_windows_rejects_max_windows_below_one(max_windows):
    series = [make_series(np.zeros(100, dtype=int))]
    with pytest.raises(ValueError, match=f"^max_windows must be at least 1, got {max_windows}$"):
        fold_windows(series, 64, 1, max_windows, rng=np.random.default_rng(0))


def test_fold_windows_keeps_at_most_max_windows_and_none_keeps_all():
    series = [make_series(np.zeros(100, dtype=int))]  # 37 stride-1 windows
    kept = {m: len(fold_windows(series, 64, 1, m, rng=np.random.default_rng(0)))
            for m in (None, 37, 1, 100)}
    assert kept == {None: 37, 37: 37, 1: 1, 100: 37}


def test_fold_windows_names_a_recording_shorter_than_the_window(monkeypatch):
    calls = []
    monkeypatch.setattr("washseg.evaluation.extract_windows",
                        lambda s, *args: calls.append(len(s)) or extract_windows(s, *args))
    series = [make_series(np.zeros(100, dtype=int)),
              make_series(np.zeros(50, dtype=int), participant="p09")]
    with pytest.raises(ValueError, match="^loc0_p09_1.csv has 50 samples, "
                                         "fewer than the 64-sample window$"):
        fold_windows(series, 64, 1, rng=np.random.default_rng(0))
    assert calls == [100]  # checked before its own extract_windows call
    fold_windows(series[:1] + [make_series(np.zeros(64, dtype=int))], 64, 1,
                 rng=np.random.default_rng(0))
    assert calls == [100, 100, 64]  # one call per series, a full-length one included


@st.composite
def window_cases(draw):
    """1-5 series of 64-300 samples, a few of them holding a value beyond
    float32's range, a stride of 1-64 and a ``max_windows`` of None, 1, up to
    the window total, the exact total or above it."""
    series = []
    for p in range(draw(st.integers(1, 5))):
        s = make_series(np.arange(draw(st.integers(64, 300))) % 10, procedure=p, seed=p)
        if draw(st.booleans()):
            accel = s.accel.copy()
            accel[draw(st.integers(0, 2)), draw(st.integers(0, len(s) - 1))] = 1e39
            s = dataclasses.replace(s, accel=accel)
        series.append(s)
    stride = draw(st.integers(1, 64))
    total = len(oracle.fold_windows_list(series, 64, stride))
    max_windows = draw(st.sampled_from(
        [None, 1, draw(st.integers(1, total)), total, total + draw(st.integers(1, 50))]))
    return series, stride, max_windows, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(window_cases())
def test_fold_windows_and_arrays_match_the_window_list_oracle(case):
    series, stride, max_windows, seed = case
    got = fold_windows(series, 64, stride, max_windows, rng=np.random.default_rng(seed))
    want = oracle.fold_windows_list(series, 64, stride, max_windows,
                                    rng=np.random.default_rng(seed))
    assert [(got.series[i], start) for i, start in zip(got.series_id, got.start.tolist())] == [
        (w.source, w.start) for w in want]
    for g, w in zip(windows_to_arrays(got), oracle.windows_to_arrays_list(want), strict=True):
        g = g[np.arange(len(g))]  # accel and gyro are row sources; labels are a stack
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_fold_windows_holds_no_object_per_window():
    series = [make_series(np.zeros(2000, dtype=int), procedure=p, seed=p) for p in range(3)]
    rng = np.random.default_rng(0)
    fold_windows(series, 64, 1, rng=rng)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        windows = fold_windows(series, 64, 1, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 3 * (2000 - 63)
    # two int64 indices per window plus their build temporaries; a Python
    # object per window alone costs more
    assert peak / len(windows) < 64


def test_csv_report_helpers():
    cm = np.zeros((10, 10), dtype=np.int64)
    cm[0, 0] = 3
    text = confusion_to_csv(cm)
    assert text.splitlines()[1].startswith("0,3,0")
    pp = per_participant_csv({"loc0_p01": 0.5, "loc0_p00": 1.0})
    assert pp.splitlines()[1] == "loc0_p00,1.000000"


class SpyModel:
    """Stub model predicting from the sign of accel channel 0; records the
    number of windows in every forward call."""

    class _Cfg:
        input_length = 64

    config = _Cfg()

    def __init__(self):
        self.batches = []

    def forward(self, accel, gyro, mode="eval"):
        self.batches.append(accel.shape[0])
        logits = np.zeros((accel.shape[0], 10, accel.shape[2]))
        logits[:, 1] = accel[:, 0]
        return logits


def test_predict_variants_is_one_stride1_pass(monkeypatch):
    # one CPU, so infer_track forwards its batches of 128 in order in this thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    series = [make_series(np.zeros(n, dtype=int), seed=n) for n in (64, 100, 300)]
    spy = SpyModel()
    tracks = predict_variants(spy, series)
    assert spy.batches == [1, 37, 128, 109]  # 1, 37 and 237 stride-1 windows
    assert tuple(tracks) == SMOOTH_VARIANTS
    for i, s in enumerate(series):
        track = infer_track(SpyModel(), s, stride=1)
        for variant in SMOOTH_VARIANTS:
            expected = smooth(track, "none" if variant == "raw" else variant)
            np.testing.assert_array_equal(tracks[variant][i].labels, expected.labels)
