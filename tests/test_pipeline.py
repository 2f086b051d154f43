import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from washseg.model import GestureNet
from washseg.pipeline import (
    LabelTrack,
    detect_procedure,
    gesture_durations,
    infer_track,
    mode_filter,
    multiple_test_voting,
    smooth,
    export_track_csv,
    export_timeline_svg,
)
from washseg.signal_data import SampleSeries, window_starts
from washseg.synth import GenSpec, generate_procedure
import oracle
from conftest import cast_model, make_series


class PlantedModel:
    """Stub model: reads the label planted in accel channel 0 and returns
    confident logits for it. Lets pipeline tests run without training."""

    class _Cfg:
        input_length = 64

    config = _Cfg()

    def forward(self, accel, gyro, mode="eval"):
        labels = np.rint(accel[:, 0, :]).astype(np.int64)
        b, t = labels.shape
        logits = np.zeros((b, 10, t))
        logits[np.arange(b)[:, None], labels, np.arange(t)[None, :]] = 10.0
        return logits


class ConstantModel:
    class _Cfg:
        input_length = 64

    config = _Cfg()

    def __init__(self, label):
        self.label = label

    def forward(self, accel, gyro, mode="eval"):
        logits = np.zeros((accel.shape[0], 10, accel.shape[2]))
        logits[:, self.label, :] = 5.0
        return logits


class StartModel:
    """Stub model whose prediction at offset k of a window depends on the
    window's start (read from accel channel 0, which carries the sample
    index), so a label shows which window it was taken from."""

    class _Cfg:
        input_length = 64

    config = _Cfg()

    @staticmethod
    def label(start, k):
        return (7 * start + k // 5) % 10

    def forward(self, accel, gyro, mode="eval"):
        start = np.rint(accel[:, 0, :1]).astype(np.int64)
        b, t = accel.shape[0], accel.shape[2]
        labels = self.label(start, np.arange(t)[None, :])
        logits = np.zeros((b, 10, t))
        logits[np.arange(b)[:, None], labels, np.arange(t)[None, :]] = 10.0
        return logits


def tiling_oracle(n, length=64):
    """StartModel's labels from windows at 0, L, 2L, ... plus an end-aligned
    window that fills only the samples they leave."""
    starts = list(range(0, n - length + 1, length))
    if starts[-1] + length < n:
        starts.append(n - length)
    out = [None] * n
    for start in starts:
        for k in range(length):
            if out[start + k] is None:
                out[start + k] = StartModel.label(start, k)
    return out


def planted_series(labels, noisy_labels=None):
    """Series whose accel channel 0 carries the labels PlantedModel reads.

    ``noisy_labels`` (defaults to ``labels``) is what the stub model will
    predict; ``labels`` is the ground truth."""
    labels = np.asarray(labels, dtype=np.int64)
    planted = labels if noisy_labels is None else np.asarray(noisy_labels)
    n = labels.size
    accel = np.zeros((3, n))
    accel[0] = planted
    return SampleSeries(
        participant_id="p00",
        location_id="loc0",
        procedure_id=1,
        t=np.arange(n) / 50.0,
        accel=accel,
        gyro=np.zeros((3, n)),
        label=labels,
        rate_hz=50.0,
    )


class TestInferTrack:
    def test_constant_model_constant_track(self):
        series = planted_series(np.zeros(200, dtype=int))
        track = infer_track(ConstantModel(3), series, stride=64)
        assert (track.labels == 3).all()

    def test_single_window_series(self):
        labels = np.arange(64) % 10
        series = planted_series(labels)
        track = infer_track(PlantedModel(), series, stride=64)
        np.testing.assert_array_equal(track.labels, labels)

    def test_short_series_rejected(self):
        series = planted_series(np.zeros(32, dtype=int))
        with pytest.raises(ValueError):
            infer_track(PlantedModel(), series, stride=64)

    def test_stride1_interior_vote_counts(self):
        series = planted_series(np.zeros(200, dtype=int))
        track = infer_track(PlantedModel(), series, stride=1)
        totals = track.votes.sum(axis=1)
        np.testing.assert_array_equal(totals[63:137], 64)
        assert totals[0] == 1 and totals[-1] == 1

    def test_stride64_tail_fills_uncovered_suffix(self, rng):
        labels = rng.integers(0, 10, size=100)
        series = planted_series(labels)
        track = infer_track(PlantedModel(), series, stride=64)
        np.testing.assert_array_equal(track.labels, labels)


    @pytest.mark.parametrize("stride", [1, 2, 4, 8, 16, 32, 64])
    def test_labels_are_the_input_length_tiling(self, stride, rng):
        lengths = [64, 65, 100, 127, 128, 129, 192, 200, 256, 320, 383]
        lengths += rng.integers(64, 400, size=10).tolist()
        for n in lengths:
            series = planted_series(np.zeros(n, dtype=int), noisy_labels=np.arange(n))
            track = infer_track(StartModel(), series, stride=stride)
            assert track.labels.tolist() == tiling_oracle(n), (n, stride)

    @pytest.mark.parametrize("stride", [0, 3, 48, 65, 128])
    def test_stride_must_divide_input_length(self, stride):
        series = planted_series(np.zeros(200, dtype=int))
        with pytest.raises(ValueError, match=f"stride {stride} does not divide .*input_length 64"):
            infer_track(PlantedModel(), series, stride=stride)

    def test_pinned_checkpoint_stride1_labels_equal_stride64(self):
        # the held-out procedure 5 of the seed-42 user-dependent fold
        model = GestureNet.load(Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt")
        spec = GenSpec(seed=42)
        for part in range(spec.participants):
            series = generate_procedure(spec, part % spec.locations, part, 5)
            dense = infer_track(model, series, stride=1)
            tiled = infer_track(model, series, stride=64)
            np.testing.assert_array_equal(dense.labels, tiled.labels)

    def test_pinned_checkpoint_folded_argmax_equals_unfolded(self):
        # every stride-1 window of the held-out procedure 5 of the seed-42
        # user-dependent fold, through the folded eval stages and through
        # separate conv, batch-norm and activation passes
        model = GestureNet.load(Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt")
        spec = GenSpec(seed=42)
        for part in range(spec.participants):
            series = generate_procedure(spec, part % spec.locations, part, 5)
            starts = window_starts(len(series), 64, 1)
            for lo in range(0, starts.size, 512):
                rows = starts[lo : lo + 512]
                a = np.stack([series.accel[:, s : s + 64] for s in rows])
                g = np.stack([series.gyro[:, s : s + 64] for s in rows])
                folded = model.forward(a, g, mode="eval").argmax(axis=1)
                unfolded = oracle.unfolded_forward(model, a, g).argmax(axis=1)
                np.testing.assert_array_equal(folded, unfolded, err_msg=f"participant {part}")

    def test_pinned_checkpoint_float32_tracks_equal_float64(self):
        # float32 compute against the same checkpoint cast to float64, on the
        # held-out procedure 5 of the seed-42 user-dependent fold
        path = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"
        f32, f64 = GestureNet.load(path), cast_model(GestureNet.load(path), np.float64)
        spec = GenSpec(seed=42)
        for part in range(spec.participants):
            series = generate_procedure(spec, part % spec.locations, part, 5)
            t32, t64 = infer_track(f32, series, stride=1), infer_track(f64, series, stride=1)
            for method in ("none", "mtv+tmf"):
                np.testing.assert_array_equal(smooth(t32, method).labels,
                                              smooth(t64, method).labels, err_msg=method)


PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"


@pytest.fixture(scope="module")
def pinned_model():
    return GestureNet.load(PINNED)


def held_out_series(part):
    """Procedure 5 of participant ``part`` of the seed-42 user-dependent fold."""
    spec = GenSpec(seed=42)
    return generate_procedure(spec, part % spec.locations, part, 5)


def serial_track(model, series, length=64):
    """Stride-1 votes and labels from the serial batch-512 oracle's predictions."""
    preds = oracle.predict_windows_serial(model, series, length)
    n = len(series)
    votes = np.zeros((n, 10), dtype=np.int64)
    for start, row in enumerate(preds):
        votes[start + np.arange(length), row] += 1
    labels = np.empty(n, dtype=np.int64)
    # the end-aligned window first, so the tiles at 0, L, 2L, ... overwrite it
    for tile in [*range(0, n - length + 1, length), n - length][::-1]:
        labels[tile : tile + length] = preds[tile]
    return votes, labels


def set_cpus(monkeypatch, count):
    """Make this process appear to be allowed on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestThreadedInference:
    """``infer_track`` spreads its batches over one thread per usable CPU;
    batch-invariant eval keeps every output equal to the serial loop's."""

    @pytest.mark.parametrize("cpus", [None, 4])  # None: the host's own CPUs
    def test_pinned_checkpoint_tracks_equal_serial_batch_512(self, pinned_model, monkeypatch,
                                                             cpus):
        if cpus:
            set_cpus(monkeypatch, cpus)
        for part in range(3):
            series = held_out_series(part)
            track = infer_track(pinned_model, series, stride=1)
            votes, labels = serial_track(pinned_model, series)
            np.testing.assert_array_equal(track.votes, votes, err_msg=f"participant {part}")
            np.testing.assert_array_equal(track.labels, labels, err_msg=f"participant {part}")

    def test_concurrent_requests_on_one_model_equal_their_serial_results(self, pinned_model,
                                                                          monkeypatch):
        # two requests at once, each on four workers: more threads than cores
        set_cpus(monkeypatch, 4)
        series = [held_out_series(part) for part in (3, 4)]
        want = [serial_track(pinned_model, s) for s in series]
        got = [None, None]

        def request(i):
            got[i] = infer_track(pinned_model, series[i], stride=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=request, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, (votes, labels) in enumerate(want):
            np.testing.assert_array_equal(got[i].votes, votes, err_msg=f"request {i}")
            np.testing.assert_array_equal(got[i].labels, labels, err_msg=f"request {i}")

    def test_error_in_one_batch_reaches_the_caller(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        error = RuntimeError("batch 3 failed")

        class FailingModel(StartModel):
            def forward(self, accel, gyro, mode="eval"):
                if np.rint(accel[0, 0, 0]) == 2 * 128:  # the first window of batch 3
                    raise error
                return super().forward(accel, gyro, mode)

        n = 64 + 17 * 128 - 1  # 17 batches of 128 stride-1 windows
        series = planted_series(np.zeros(n, dtype=int), noisy_labels=np.arange(n))
        with pytest.raises(RuntimeError) as caught:
            infer_track(FailingModel(), series, stride=1)
        assert caught.value is error

    @pytest.mark.parametrize("batch, most", [(128, 512), (300, 300), (1024, 1024)])
    def test_workers_hold_512_windows_or_one_batch_in_flight(self, monkeypatch, batch, most):
        set_cpus(monkeypatch, 64)
        lock, flight = threading.Lock(), [0, 0]  # windows in flight now, and at the peak

        class CountingModel(StartModel):
            def forward(self, accel, gyro, mode="eval"):
                with lock:
                    flight[0] += accel.shape[0]
                    flight[1] = max(flight)
                time.sleep(0.05)  # hold the batch, so the workers overlap
                with lock:
                    flight[0] -= accel.shape[0]
                return super().forward(accel, gyro, mode)

        n = 64 + 17 * 128 - 1  # 2,176 stride-1 windows
        series = planted_series(np.zeros(n, dtype=int), noisy_labels=np.arange(n))
        got = infer_track(CountingModel(), series, stride=1, batch=batch)
        want = infer_track(StartModel(), series, stride=1, batch=n)
        np.testing.assert_array_equal(got.votes, want.votes)
        assert flight[1] == most

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_runs_in_the_calling_thread(self, pinned_model, monkeypatch, affinity):
        series = held_out_series(0)
        want = infer_track(pinned_model, series, stride=1)
        if affinity:
            set_cpus(monkeypatch, 1)
        else:  # where os.sched_getaffinity does not exist, os.cpu_count counts
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        got = infer_track(pinned_model, series, stride=1)
        np.testing.assert_array_equal(got.votes, want.votes)
        np.testing.assert_array_equal(got.labels, want.labels)


class TestMultipleTestVoting:
    def test_agreeing_windows_pass_through(self, rng):
        labels = np.repeat(rng.integers(0, 10, size=4), 70)
        series = planted_series(labels)
        voted = multiple_test_voting(infer_track(PlantedModel(), series, stride=1))
        np.testing.assert_array_equal(voted.labels, labels)

    def test_majority_vote(self):
        votes = np.zeros((1, 10), dtype=np.int64)
        votes[0, 3] = 40
        votes[0, 0] = 24
        track = LabelTrack(labels=np.zeros(1, dtype=int), votes=votes)
        assert multiple_test_voting(track).labels[0] == 3

    def test_tie_breaks_to_smallest(self):
        votes = np.zeros((1, 10), dtype=np.int64)
        votes[0, 2] = 32
        votes[0, 5] = 32
        track = LabelTrack(labels=np.zeros(1, dtype=int), votes=votes)
        assert multiple_test_voting(track).labels[0] == 2

    def test_needs_votes(self):
        with pytest.raises(ValueError):
            multiple_test_voting(LabelTrack(labels=np.zeros(5, dtype=int)))


class TestModeFilter:
    def test_constant_unchanged(self):
        track = LabelTrack(labels=np.full(300, 4, dtype=int))
        np.testing.assert_array_equal(mode_filter(track).labels, track.labels)

    def test_small_window_fixture(self):
        track = LabelTrack(labels=np.array([1, 1, 1, 2, 1, 1]))
        np.testing.assert_array_equal(mode_filter(track, 3).labels, [1, 1, 1, 1, 1, 1])

    def test_isolated_spike_removed_at_128(self, rng):
        for _ in range(10):
            base = int(rng.integers(0, 10))
            spike = int(rng.integers(0, 10))
            labels = np.full(200, base, dtype=int)
            labels[int(rng.integers(66, 134))] = spike
            out = mode_filter(LabelTrack(labels=labels), 128)
            assert (out.labels == base).all()

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 120))
            window = int(rng.integers(1, 20))
            labels = rng.integers(0, 10, size=n)
            out = mode_filter(LabelTrack(labels=labels), window)
            np.testing.assert_array_equal(out.labels, oracle.mode_filter_loops(labels, window))

    def test_idempotent_on_locally_constant(self):
        # idempotence holds where the track is constant across a full window
        labels = np.repeat([0, 3, 7], 150)
        once = mode_filter(LabelTrack(labels=labels), 128)
        twice = mode_filter(once, 128)
        for i in range(64, labels.size - 64):
            if (once.labels[i - 64 : i + 64] == once.labels[i]).all():
                assert twice.labels[i] == once.labels[i]

    def test_idempotent_on_fully_constant(self):
        labels = np.full(400, 6, dtype=int)
        once = mode_filter(LabelTrack(labels=labels), 128)
        np.testing.assert_array_equal(mode_filter(once, 128).labels, once.labels)

    def test_closure_under_window_contents(self, rng):
        labels = rng.integers(0, 3, size=500)
        out = mode_filter(LabelTrack(labels=labels), 128)
        assert set(np.unique(out.labels)) <= set(np.unique(labels))


class TestDetectProcedure:
    def test_standard_layout(self):
        labels = np.concatenate(
            [np.zeros(100, int)]
            + [np.full(150, g, dtype=int) for g in range(1, 10)]
            + [np.zeros(100, int)]
        )
        onset, offset = detect_procedure(LabelTrack(labels=labels), 50.0)
        assert onset == pytest.approx(2.0)
        assert offset == pytest.approx((labels.size - 100) / 50.0)

    def test_all_background_returns_none(self):
        assert detect_procedure(LabelTrack(labels=np.zeros(500, int)), 50.0) is None

    def test_small_gap_merged(self):
        labels = np.concatenate(
            [np.zeros(50, int), np.full(100, 1, int), np.zeros(10, int),
             np.full(100, 2, int), np.zeros(50, int)]
        )
        onset, offset = detect_procedure(LabelTrack(labels=labels), 50.0)
        assert onset == pytest.approx(1.0)
        assert offset == pytest.approx((50 + 100 + 10 + 100) / 50.0)

    def test_large_gap_keeps_longest_span(self):
        labels = np.concatenate(
            [np.full(50, 1, int), np.zeros(200, int), np.full(300, 2, int)]
        )
        onset, offset = detect_procedure(LabelTrack(labels=labels), 50.0)
        assert onset == pytest.approx(250 / 50.0)
        assert offset == pytest.approx(550 / 50.0)


class TestGestureDurations:
    def test_simple_count(self):
        labels = np.concatenate([np.zeros(20, int), np.full(245, 1, int), np.zeros(20, int)])
        d = gesture_durations(LabelTrack(labels=labels), 50.0)
        assert d[0] == pytest.approx(4.9)

    def test_absent_gesture_zero(self):
        labels = np.concatenate([np.zeros(10, int), np.full(50, 2, int)])
        d = gesture_durations(LabelTrack(labels=labels), 50.0)
        assert d[4] == 0.0

    def test_split_occurrences_sum(self):
        labels = np.concatenate(
            [np.full(100, 4, int), np.full(30, 5, int), np.full(50, 4, int)]
        )
        d = gesture_durations(LabelTrack(labels=labels), 50.0)
        assert d[3] == pytest.approx(3.0)

    def test_durations_plus_background_equal_series_duration(self, rng):
        labels = rng.integers(0, 10, size=400)
        labels[:5] = 1  # guarantee a detected procedure spanning everything
        labels[-5:] = 9
        track = LabelTrack(labels=labels)
        d = gesture_durations(track, 50.0, gap_merge=10**9)
        onset, offset = detect_procedure(track, 50.0, gap_merge=10**9)
        background_inside = (offset - onset) - d.sum()
        outside = labels.size / 50.0 - (offset - onset)
        assert d.sum() + background_inside + outside == pytest.approx(labels.size / 50.0)


@st.composite
def span_cases(draw):
    """Labels built from alternating background gaps and non-background runs,
    a merge gap and a rate. Gaps near the merge gap and short runs (so equal
    spans are common) are drawn often."""
    gap_merge = draw(st.sampled_from([1, 2, 10, 64, 10**9]) | st.integers(1, 80))
    gap = st.integers(0, 81)
    if gap_merge <= 80:
        gap |= st.sampled_from([gap_merge - 1, gap_merge, gap_merge + 1])
    labels = [0] * draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 6))):
        labels += draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
        labels += [0] * draw(gap)
    if not labels:
        labels = [draw(st.integers(0, 9))]
    rate_hz = draw(st.sampled_from([3.3, 7.0, 50.0, 100.0]) | st.floats(1e-3, 1e4))
    return labels, gap_merge, rate_hz


class TestProcedureSpanProperty:
    @settings(max_examples=400, deadline=None)
    @given(span_cases())
    @example(([0] * 7, 64, 50.0))  # all background
    @example(([3], 64, 50.0))  # one sample
    @example(([1] + [0] * 9 + [2], 10, 3.3))  # gap of gap_merge - 1 merges
    @example(([1] + [0] * 10 + [2, 2], 10, 3.3))  # gap of gap_merge splits
    @example(([1, 1] + [0] * 11 + [2], 10, 3.3))  # gap of gap_merge + 1 splits
    @example(([4, 4] + [0] * 3 + [5, 5] + [0], 3, 7.0))  # equal spans: the earliest wins
    @example(([1, 0, 2, 0, 0, 3], 1, 50.0))  # gap_merge 1: any gap splits
    @example(([1] + [0] * 500 + [9], 10**9, 3.3))  # gap_merge 10**9 merges everything
    def test_span_and_durations_match_loop_oracle(self, case):
        labels, gap_merge, rate_hz = case
        track = LabelTrack(labels=labels)
        span = oracle.procedure_span_loops(labels, gap_merge)
        detected = detect_procedure(track, rate_hz, gap_merge)
        durations = gesture_durations(track, rate_hz, gap_merge)
        assert durations.shape == (9,)
        if span is None:
            assert detected is None
            assert not durations.any()
            return
        first, end = span
        assert detected == (first / rate_hz, end / rate_hz)
        inside = labels[first:end]
        expected = np.array([inside.count(g) for g in range(1, 10)]) / rate_hz
        np.testing.assert_array_equal(durations, expected)


class TestSmoothAndExports:
    def test_smooth_composition_order(self, rng):
        labels = rng.integers(0, 10, size=300)
        series = planted_series(labels)
        track = infer_track(PlantedModel(), series, stride=1)
        combo = smooth(track, "mtv+tmf")
        manual = mode_filter(multiple_test_voting(track), 128)
        np.testing.assert_array_equal(combo.labels, manual.labels)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            smooth(LabelTrack(labels=np.zeros(3, int)), "median")

    def test_track_csv_export(self, tmp_path):
        series = planted_series(np.array([0, 1, 2] * 30))
        track = LabelTrack(labels=series.label.copy())
        path = tmp_path / "track.csv"
        export_track_csv(path, track, series)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,t,predicted,ground_truth"
        assert lines[1] == "0,0,0,0"
        assert len(lines) == 91

    def test_svg_export(self, tmp_path):
        track = LabelTrack(labels=np.repeat([0, 5, 0], 50))
        path = tmp_path / "timeline.svg"
        export_timeline_svg(path, track, 50.0)
        text = path.read_text()
        assert text.startswith("<svg") and text.count("<rect") == 3


def test_smoothing_improves_noisy_tracks_on_average(rng):
    # noisy planted predictions: smoothing should not hurt accuracy on average
    deltas = []
    for run in range(20):
        run_rng = np.random.default_rng(1000 + run)
        truth = np.repeat(run_rng.integers(0, 10, size=6), 100)
        noisy = truth.copy()
        flips = run_rng.random(truth.size) < 0.15
        noisy[flips] = run_rng.integers(0, 10, size=int(flips.sum()))
        series = planted_series(truth, noisy_labels=noisy)
        raw = infer_track(PlantedModel(), series, stride=64)
        voted = multiple_test_voting(infer_track(PlantedModel(), series, stride=1))
        smoothed = mode_filter(voted, 128)
        raw_acc = (raw.labels == truth).mean()
        smooth_acc = (smoothed.labels == truth).mean()
        deltas.append(smooth_acc - raw_acc)
    assert np.mean(deltas) >= 0
