"""The benchmark's three workloads, driven through washseg's public functions.

- ``train``: what ``washseg train`` does on the user-dependent fold of the
  pinned corpus (synthetic seed 42, 10 participants, procedures 1-4 train):
  read the 40 training CSVs, draw 12000 stride-1 windows, train at batch 256.
- ``score-stride1``: what ``washseg score --checkpoint --series`` does for a
  held-out recording: checkpoint load, CSV parse, stride-1 inference with
  per-sample votes, ``mtv+tmf`` smoothing, gesture durations, score report.
- ``screen-stride64``: the same request on the stride-64 path with ``tmf``.

The run seed is what ``--seed`` is to the CLI on ``train`` (model init,
window draw, shuffle). On the scoring workloads it picks a new procedure
of each pinned participant (procedure id 6 + seed), so every seed gives
recordings the checkpoint never saw. Those recordings use the corpus
generator's defaults except that gesture and background durations are
fixed at their means and no gesture is dropped, so every request does the
same work (2183 samples) whatever the seed.

Each runner returns a dict with the end-to-end metrics, the per-layer
metrics when traced, the operation counts and the failed checks.
"""

import gc
import hashlib
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from washseg import evaluation, pipeline, scoring, signal_data, synth
from washseg import model as wmodel
from washseg.model import ArchConfig, GestureNet, TrainHyper
from washseg.nn import adam as wadam
from washseg.nn import checkpoint as wckpt

import check

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "user_dep.ckpt"
CHECKPOINT_SHA256 = "6601cc3175d9285c07b32e7eb661552fd28bd64c29a0ee851ceb976a076ae460"
CORPUS_SEED = 42
PARTICIPANTS = 10
WINDOW = 64
TRAIN_WINDOWS = 12000
TRAIN_BATCH = 256
TRAIN_LR = 0.003
# Training runs a fixed number of epochs whatever --seconds is, so the loss and
# accuracy it reports compare between runs.
EPOCHS = 2
# Set-up runs this many times before the timed region and again after it:
# the host's fast and slow phases last seconds to minutes, so set-ups at both
# ends of a run sample it at two moments.
SETUP_REPEATS = 3

def named_layers(model):
    """The model's layer instances under their checkpoint-style names."""
    out = {}
    for branch in ("enc_a", "enc_g"):
        for i, stage in enumerate(getattr(model, branch)):
            for part in ("conv", "bn", "pool"):
                out[f"{branch}.{i}.{part}"] = getattr(stage, part)
    for name in ("se_a", "se_g", "ppm", "head"):
        out[name] = getattr(model, name)
    for i, stage in enumerate(model.dec):
        for part in ("conv", "bn"):
            out[f"dec.{i}.{part}"] = getattr(stage, part)
    return out


# -- statistics ------------------------------------------------------------------

def tail(values):
    """(value, percentile): the highest sample with at least 10 samples above
    it, or the maximum below 11 samples. Recorded in the run record only:
    between runs on a shared host it moved by up to 2x, beyond any bound."""
    s = sorted(values)
    rank = len(s) - 10 if len(s) > 10 else len(s)
    return s[rank - 1], 100.0 * rank / len(s)


def upper_quartile(values):
    """Q3 as ``statistics.quantiles(values, n=4)`` gives it.

    The reported statistic for times: this shared host alternates between a
    fast and a slow mode up to 1.8x apart, so a run's median lands in either
    mode, while its upper quartile sits in the slow one in almost every run.
    """
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing hooks -----------------------------------------------------------------

def _forward_span(accel, gyro, mode="eval"):
    return "model.forward_train" if mode == "train" else "model.forward_eval"


def hook_program(tracer):
    """Spans around the module-level entry points the workloads reach."""
    count = len
    tracer.hook(signal_data, "load_csv", "signal_data.load_csv")
    tracer.hook(wckpt, "load_checkpoint", "nn.checkpoint_load")
    tracer.hook(evaluation, "fold_windows", "evaluation.fold_windows", count)
    tracer.hook(evaluation, "extract_windows", "signal_data.extract_windows", count)
    tracer.hook(pipeline, "extract_windows", "signal_data.extract_windows", count)
    tracer.hook(wmodel, "windows_to_arrays", "model.windows_to_arrays")
    tracer.hook(pipeline, "windows_to_arrays", "model.windows_to_arrays")
    tracer.hook(pipeline, "infer_track", "pipeline.infer_track", count)
    tracer.hook(pipeline, "smooth", "pipeline.smooth")
    tracer.hook(pipeline, "gesture_durations", "pipeline.gesture_durations")
    tracer.hook(scoring, "score", "scoring.score")
    tracer.hook(wmodel, "softmax_cross_entropy", "nn.loss")
    tracer.hook(wadam.Adam, "step", "nn.adam_step")
    tracer.hook(wmodel, "train", "model.train")


def hook_model(tracer, model):
    """Spans around one model's forward/backward and each named layer's."""
    tracer.hook(model, "forward", _forward_span, count=lambda logits: logits.shape[0], undo=False)
    tracer.hook(model, "backward", "model.backward", undo=False)
    for name, layer in named_layers(model).items():
        tracer.hook(layer, "forward", f"nn.{name}.fwd", undo=False)
        tracer.hook(layer, "backward", f"nn.{name}.bwd", undo=False)


def layer_spans():
    """Span names of the named layers' forward and backward calls."""
    return {f"nn.{name}.{way}" for name in named_layers(GestureNet(ArchConfig()))
            for way in ("fwd", "bwd")}


def layer_metrics(tracer, train_loss=0.0):
    m = {}
    for name in named_layers(GestureNet(ArchConfig())):
        m[f"nn.{name}.fwd_ms"] = tracer.median_ms(f"nn.{name}.fwd")
        m[f"nn.{name}.bwd_ms"] = tracer.median_ms(f"nn.{name}.bwd")
    for span in ("model.forward_train", "nn.loss", "model.backward", "nn.adam_step",
                 "model.forward_eval", "pipeline.infer_track", "signal_data.extract_windows",
                 "model.windows_to_arrays", "signal_data.load_csv", "nn.checkpoint_load",
                 "evaluation.fold_windows", "pipeline.smooth", "pipeline.gesture_durations",
                 "scoring.score"):
        m[f"{span}_ms"] = tracer.median_ms(span)
    m["pipeline.infer_track_self_ms"] = tracer.median_self_ms("pipeline.infer_track")
    m["model.forward_eval_batches"] = tracer.median_children("pipeline.infer_track",
                                                             "model.forward_eval")
    m["pipeline.windows_forwarded"] = tracer.median_children(
        "pipeline.infer_track", "model.forward_eval", use_counts=True)
    m["pipeline.samples_labeled"] = tracer.median_count("pipeline.infer_track")
    m["evaluation.windows_built"] = tracer.median_children(
        "evaluation.fold_windows", "signal_data.extract_windows", use_counts=True)
    m["evaluation.windows_kept"] = tracer.median_count("evaluation.fold_windows")
    m["model.train_loss"] = train_loss
    return m


# -- train ---------------------------------------------------------------------------

def run_train(seed, seconds, tracer, quick, workdir):
    participants = 2 if quick else PARTICIPANTS
    max_windows = 512 if quick else TRAIN_WINDOWS
    corpus_dir = workdir / "corpus"

    # inputs: the training recordings of the user-dependent fold, as CSV
    corpus = synth.generate(synth.GenSpec(seed=CORPUS_SEED, participants=participants))
    _, train_series, _ = evaluation.make_split(corpus, "user-dependent").folds[0]
    synth.write_corpus(train_series, corpus_dir)
    del corpus, train_series

    # warm-up: one step of a throwaway model on windows of two recordings
    warm = [signal_data.load_csv(p) for p in sorted(corpus_dir.glob("*.csv"))[:2]]
    warm_windows = evaluation.fold_windows(warm, WINDOW, 1, max_windows=TRAIN_BATCH,
                                           rng=np.random.default_rng(seed))
    wmodel.train(GestureNet(ArchConfig(), seed=seed), warm_windows,
                 TrainHyper(lr=TRAIN_LR, batch=TRAIN_BATCH, epochs=1, seed=seed))
    del warm, warm_windows

    if tracer:
        hook_program(tracer)
    built = []
    extract = evaluation.extract_windows

    def counted_extract(*args, **kwargs):
        out = extract(*args, **kwargs)
        built.append(len(out))
        return out

    def setup():
        """Set-up as `washseg train` does it: ingest, model init, window draw, stacking."""
        gc.collect()  # every repeat starts from the same collector state
        t0 = time.perf_counter()
        series = signal_data.load_corpus(corpus_dir)
        model = GestureNet(ArchConfig(), seed=seed)
        windows = evaluation.fold_windows(series, WINDOW, 1, max_windows=max_windows,
                                          rng=np.random.default_rng(seed))
        arrays = wmodel.windows_to_arrays(windows)
        return time.perf_counter() - t0, model, windows, arrays

    repeats = 1 if quick else SETUP_REPEATS
    evaluation.extract_windows = counted_extract
    setup_times = []
    try:
        for _ in range(repeats):
            built.clear()
            model = windows = arrays = None
            took, model, windows, arrays = setup()
            setup_times.append(took)
    finally:
        evaluation.extract_windows = extract
    hyper = TrainHyper(lr=TRAIN_LR, batch=TRAIN_BATCH, epochs=EPOCHS, seed=seed)

    n = arrays[0].shape[0]
    steps_per_epoch = math.ceil(n / TRAIN_BATCH)
    attempted = EPOCHS * steps_per_epoch
    stamps = []
    zero_grad = model.zero_grad

    def stamped_zero_grad():
        stamps.append(time.perf_counter())
        zero_grad()

    model.zero_grad = stamped_zero_grad  # one timestamp at the start of each step
    if tracer:
        hook_model(tracer, model)
        tracer.op = 0
    failed = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        logs = wmodel.train(model, arrays, hyper)
    except Exception as exc:  # a failed run still reports what it attempted
        print(f"train failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        logs = []
        failed = attempted - max(0, len(stamps) - 1)  # the step that raised and all after
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer:
        tracer.restore()

    # full-batch steps: the interval from one step's start to the next's
    full = n // TRAIN_BATCH
    step_s = [stamps[e * steps_per_epoch + j + 1] - stamps[e * steps_per_epoch + j]
              for e in range(len(logs)) for j in range(full)
              if e * steps_per_epoch + j + 1 < len(stamps)]

    problems = []
    if not logs:
        problems.append("training raised")
    else:
        losses = [log.loss for log in logs]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite epoch loss {losses}")
        if not losses[-1] < losses[0]:
            problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
        if len(logs) != EPOCHS:
            problems.append(f"{len(logs)} epochs run, {EPOCHS} asked")
    recs = {p.name: check.Recording(p) for p in sorted(corpus_dir.glob("*.csv"))}
    expected_built = sum(len(r) - WINDOW + 1 for r in recs.values())
    if sum(built) != expected_built:
        problems.append(f"windows_built {sum(built)} != sum(n_i - 63) = {expected_built}")
    if n != min(max_windows, expected_built):
        problems.append(f"{n} windows kept, {min(max_windows, expected_built)} expected")
    labels = arrays[2]
    bad = 0
    for row, w in zip(labels, windows):
        src = w.source
        ref = recs[f"{src.location_id}_{src.participant_id}_{src.procedure_id}.csv"].labels
        if list(row) != ref[w.start_index : w.start_index + WINDOW]:
            bad += 1
    if bad:
        problems.append(f"{bad} kept windows carry labels other than the corpus's")
    del model, windows, arrays, labels
    setup_times += [setup()[0] for _ in range(repeats)]

    last = logs[-1] if logs else None
    p_tail, pct = tail(step_s) if step_s else (math.nan, math.nan)
    p50 = statistics.median(step_s) if step_s else math.nan
    metrics = {
        "setup_s": upper_quartile(setup_times),
        "latency_p75_s": upper_quartile(step_s) if step_s else math.nan,
        "accuracy": last.accuracy if last else math.nan,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"epochs": EPOCHS, "windows": n, "steps_timed": len(step_s), "latency_p50_s": p50,
            "windows_per_s": TRAIN_BATCH / p50, "latency_tail_s": p_tail, "tail_percentile": pct,
            "epoch_losses": [log.loss for log in logs], "wall_s": wall, "cpu_s": cpu,
            "step_s": step_s,
            "setup_times_s": setup_times}
    per_layer = None
    if tracer:
        per_layer = layer_metrics(tracer, train_loss=last.loss if last else math.nan)
        info["layer_share_of_train"] = tracer.share(layer_spans(), "model.train")
        info["traced_share_of_train"] = tracer.direct_share("model.train")
    return {"metrics": metrics, "per_layer": per_layer, "attempted": attempted,
            "failed": failed, "problems": problems, "info": info}


# -- score-stride1 and screen-stride64 ---------------------------------------------------

def held_out_recordings(seed, participants):
    """Procedure 6+seed of each pinned participant, at fixed gesture durations."""
    spec = synth.GenSpec(seed=CORPUS_SEED, duration_jitter=0.0, gesture_drop_prob=0.0,
                         background_range_s=(3.5, 3.5))
    return [synth.generate_procedure(spec, part % spec.locations, part, 6 + seed)
            for part in range(participants)]


def _request(path, stride, tracer):
    """One scoring request, the calls `washseg score` / `infer` make."""
    model = GestureNet.load(CHECKPOINT)
    if tracer:
        hook_model(tracer, model)
    series = signal_data.load_csv(path)
    raw = pipeline.infer_track(model, series, stride=stride)
    track = pipeline.smooth(raw, "mtv+tmf" if stride == 1 else "tmf")
    durations = pipeline.gesture_durations(track, series.rate_hz)
    report = scoring.score(durations)
    report.to_json()
    return raw, track, report


def run_score(seed, seconds, tracer, quick, workdir, stride):
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise RuntimeError(f"{CHECKPOINT.name} has sha256 {digest}, pinned {CHECKPOINT_SHA256}")
    recordings = held_out_recordings(seed, 3 if quick else PARTICIPANTS)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = [workdir / f"{s.location_id}_{s.participant_id}_{s.procedure_id}.csv"
             for s in recordings]

    for s, p in zip(recordings, paths):
        signal_data.write_csv(s, p)
    # warm-up: one untimed request
    _request(paths[0], stride, None)

    if tracer:
        hook_program(tracer)

    def setup():
        """What the request path reads before its first request: the
        checkpoint and the request recordings."""
        gc.collect()
        t0 = time.perf_counter()
        GestureNet.load(CHECKPOINT)
        for p in paths:
            signal_data.load_csv(p)
        return time.perf_counter() - t0

    repeats = 1 if quick else SETUP_REPEATS
    setup_times = [setup() for _ in range(repeats)]

    rng = np.random.default_rng(seed)
    request = tracer.wrap(_request, "op.request") if tracer else _request
    first = {}  # recording index -> outputs of its first request
    latencies = []
    attempted = failed = rounds = 0
    problems = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:  # whole rounds, one request per recording, overrunning by half a round at most
        rounds += 1
        for i in rng.permutation(len(paths)):
            attempted += 1
            if tracer:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                raw, track, report = request(paths[i], stride, tracer)
            except Exception as exc:  # count the request as failed and go on
                failed += 1
                print(f"request {paths[i].name} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            if i not in first:
                first[i] = (raw, track, report)
            elif not (np.array_equal(first[i][1].labels, track.labels)
                      and first[i][2].total == report.total):
                problems.append(f"{paths[i].name}: repeated request gave another result")
        if quick or (time.perf_counter() - wall0) * (rounds + 0.5) / rounds > seconds:
            break
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    setup_times += [setup() for _ in range(repeats)]
    per_layer = None
    if tracer:
        tracer.restore()
        per_layer = layer_metrics(tracer)

    refs = {i: check.Recording(paths[i]) for i in first}
    problems += _check_outputs(first, refs, stride)
    pooled = check.user_dependent_claims([first[i][1].labels.tolist() for i in first],
                                         [refs[i].labels for i in first])
    if stride == 1 and not check.claims_hold(pooled):
        problems.append(f"paper's user-dependent claims not met: {pooled}")

    windows = sum(len(check.window_starts(len(refs[i]), stride)) for i in first) / len(first)
    p_tail, pct = tail(latencies)
    p50 = statistics.median(latencies)
    metrics = {
        "setup_s": upper_quartile(setup_times),
        "latency_p75_s": upper_quartile(latencies),
        "accuracy": pooled["accuracy"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"requests": len(latencies), "rounds": rounds, "latency_p50_s": p50,
            "windows_per_s": windows / p50, "latency_tail_s": p_tail, "tail_percentile": pct,
            "windows_per_request": windows, "claims": pooled, "wall_s": wall, "cpu_s": cpu,
            "latencies_s": latencies,
            "setup_times_s": setup_times}
    if tracer:
        info["layer_share_of_request"] = tracer.share(layer_spans(), "op.request")
        info["traced_share_of_request"] = tracer.direct_share("op.request")
    return {"metrics": metrics, "per_layer": per_layer, "attempted": attempted,
            "failed": failed, "problems": problems, "info": info}


def _check_outputs(first, refs, stride):
    """Compare each recording's first outputs with the reference computations."""
    problems = []
    model = GestureNet.load(CHECKPOINT)  # for the stride-64 windows the checker cuts
    for i, (raw, track, report) in first.items():
        ref = refs[i]
        n = len(ref)
        name = f"recording {i}"
        if len(track.labels) != n:
            problems.append(f"{name}: track length {len(track.labels)} != {n}")
            continue
        if stride == 1:
            bad = check.vote_total_errors(raw.votes.tolist(), n)
            if bad:
                problems.append(f"{name}: vote totals wrong at {len(bad)} samples, first {bad[0]}")
            expected = check.mode_filter(check.vote_argmax(raw.votes.tolist()))
        else:
            starts = check.window_starts(n, stride)
            accel, gyro = check.slice_windows(ref, starts)
            preds = model.forward(accel, gyro, mode="eval").argmax(axis=1)
            raw_ref = check.stride64_labels(starts, preds, n)
            if raw.labels.tolist() != raw_ref:
                problems.append(f"{name}: stride-64 raw labels differ from the covering windows'")
            expected = check.mode_filter(raw_ref)
        if track.labels.tolist() != expected:
            problems.append(f"{name}: smoothed labels differ from the reference mode filter")
        total = check.score_total(check.durations(track.labels.tolist()))
        if abs(total - report.total) > 1e-9:
            problems.append(f"{name}: score {report.total} != reference {total}")
    return problems


RUNNERS = {
    "train": run_train,
    "score-stride1": lambda *a: run_score(*a, stride=1),
    "screen-stride64": lambda *a: run_score(*a, stride=64),
}
