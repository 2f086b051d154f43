"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live).

The end-to-end criteria train real models on synthetic corpora and take a
few minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

from washseg.cli import main as cli_main
from washseg.evaluation import (
    accuracy_global,
    confusion_matrix,
    evaluate_tracks,
    fold_windows,
    make_split,
    mean_sd,
    predict_variants,
    prf_confusion,
    run_evaluation,
)
from washseg.model import ArchConfig, GestureNet, TrainHyper, train
from washseg.nn import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    LeakyReLU,
    Linear,
    MaxPool1d,
    PPMBlock,
    SEBlock,
    Sigmoid,
    Upsample1d,
    grad_check,
    softmax_cross_entropy,
)
from washseg.pipeline import LabelTrack, mode_filter, multiple_test_voting
from washseg.scoring import PROFESSIONAL_DURATIONS, score, trimmed_average
from washseg.synth import GenSpec, generate
from conftest import cast_model
import oracle


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- shared heavy fixtures ---------------------------------------------------

@pytest.fixture(scope="module")
def user_dep_run():
    """Train on the pinned 10-participant corpus, user-dependent split."""
    corpus = generate(GenSpec(seed=42))
    split = make_split(corpus, "user-dependent")
    _, train_series, test_series = split.folds[0]
    model = GestureNet(ArchConfig(), seed=0)
    windows = fold_windows(train_series, 64, 1, max_windows=12000,
                           rng=np.random.default_rng(0))
    hyper = TrainHyper(lr=0.003, batch=256, epochs=25, seed=0,
                       plateau_patience=20, plateau_rel_change=0.001)
    train(model, windows, hyper)
    tracks = predict_variants(model, test_series)
    metrics = {v: evaluate_tracks(test_series, t) for v, t in tracks.items()}
    return metrics


@pytest.fixture(scope="module")
def lopo_run():
    """LOPO vs user-dependent on a reduced 5-participant corpus."""
    corpus = generate(GenSpec(seed=42, participants=5))
    hyper = TrainHyper(lr=0.003, batch=256, epochs=6, seed=0)
    out = {}
    for kind in ("user-dependent", "lopo"):
        split = make_split(corpus, kind)
        res = run_evaluation(split, hyper=hyper, window_stride=1, max_windows=6000)
        accs = []
        for fold, metrics in res.items():
            if fold == "_aggregate":
                continue
            accs.extend(metrics["mtv+tmf"].per_participant_accuracy.values())
        out[kind] = float(np.mean(accs))
    return out


# -- criteria ----------------------------------------------------------------

def test_criterion_1_gradient_fidelity(rng):
    t0 = time.perf_counter()

    def check_params(layer, x, **kw):
        probes = {}

        def loss_fn(compute):
            out = layer.forward(x, **kw)
            if "p" not in probes:
                probes["p"] = np.random.default_rng(7).standard_normal(out.shape)
            if compute:
                layer.backward(probes["p"])
            return float((out * probes["p"]).sum())

        return grad_check(loss_fn, layer.params(), h=1e-5, tolerance=1e-6).max_error

    def check_input(layer, x, **kw):
        probes = np.random.default_rng(7).standard_normal(layer.forward(x, **kw).shape)
        layer.forward(x, **kw)
        gx = layer.backward(probes)
        worst = 0.0
        flat = x.reshape(-1)
        h = 1e-5
        for i in np.random.default_rng(3).choice(flat.size, min(30, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = float((layer.forward(x, **kw) * probes).sum())
            flat[i] = orig - h
            lm = float((layer.forward(x, **kw) * probes).sum())
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            a = gx.reshape(-1)[i]
            if abs(a - fd) > 1e-9:
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        return worst

    errs = {}
    errs["conv1d"] = check_params(Conv1d(3, 4, 3, stride=2, pad=1, rng=rng),
                                  rng.standard_normal((2, 3, 12)))
    errs["batchnorm1d"] = check_params(BatchNorm1d(3), rng.standard_normal((4, 3, 8)),
                                       mode="train")
    errs["linear"] = check_params(Linear(5, 4, rng=rng), rng.standard_normal((3, 5)))
    errs["se_block"] = check_params(SEBlock(8, 4, rng=rng), rng.standard_normal((2, 8, 16)))
    errs["ppm_block"] = check_params(PPMBlock(8, 4, rng=rng), rng.standard_normal((2, 8, 8)))
    errs["leaky_relu"] = check_input(LeakyReLU(0.01), rng.standard_normal((2, 3, 8)) + 0.05)
    errs["sigmoid"] = check_input(Sigmoid(), rng.standard_normal((2, 3, 8)))
    errs["maxpool1d"] = check_input(MaxPool1d(2, 2), rng.standard_normal((2, 3, 8)))
    errs["avgpool1d"] = check_input(AvgPool1d(3, 2), rng.standard_normal((2, 3, 9)))
    errs["upsample1d"] = check_input(Upsample1d(2), rng.standard_normal((2, 3, 4)))

    # softmax cross-entropy: analytic grad vs central differences
    logits = rng.standard_normal((2, 10, 4))
    labels = rng.integers(0, 10, size=(2, 4))
    _, grad = softmax_cross_entropy(logits, labels)
    worst = 0.0
    h = 1e-5
    flat = logits.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = softmax_cross_entropy(logits, labels)
        flat[i] = orig - h
        lm, _ = softmax_cross_entropy(logits, labels)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        a = grad.reshape(-1)[i]
        if abs(a - fd) > 1e-9:
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    errs["softmax_ce"] = worst

    layer_worst = max(errs.values())

    model = cast_model(GestureNet(ArchConfig(), seed=3), np.float64)
    a = rng.standard_normal((2, 3, 64))
    g = rng.standard_normal((2, 3, 64))
    y = rng.integers(0, 10, size=(2, 64))

    def model_loss(compute):
        logits = model.forward(a, g, mode="train")
        loss, grad_l = softmax_cross_entropy(logits, y)
        if compute:
            model.backward(grad_l)
        return loss

    full = grad_check(model_loss, model.params(), h=1e-5, tolerance=1e-4,
                      max_coords_per_slot=6, rng=np.random.default_rng(11))
    elapsed = time.perf_counter() - t0
    ok = layer_worst < 1e-6 and full.max_error < 1e-4 and elapsed < 120
    report(1, ok, f"per-layer max {layer_worst:.2e}, full-model max "
                  f"{full.max_error:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(rng):
    t0 = time.perf_counter()
    worst = 0.0
    shapes = 0
    for _ in range(40):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        stride, pad = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        t = int(rng.integers(k, 16))
        conv = Conv1d(cin, cout, k, stride=stride, pad=pad, rng=rng)
        x = rng.standard_normal((2, cin, t))
        ref = oracle.conv1d_loops(x, conv.w.value, conv.b.value, stride, pad)
        worst = max(worst, float(np.abs(conv.forward(x) - ref).max()))
        shapes += 1
    for pool_cls, ref_fn in ((MaxPool1d, oracle.maxpool1d_loops),
                             (AvgPool1d, oracle.avgpool1d_loops)):
        for _ in range(25):
            window = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 4))
            t = int(rng.integers(window, 20))
            x = rng.standard_normal((2, 2, t))
            out = pool_cls(window, stride).forward(x)
            worst = max(worst, float(np.abs(out - ref_fn(x, window, stride)).max()))
            shapes += 1
    for _ in range(15):
        factor = int(rng.integers(1, 6))
        t = int(rng.integers(1, 10))
        x = rng.standard_normal((2, 2, t))
        out = Upsample1d(factor).forward(x)
        worst = max(worst, float(np.abs(out - oracle.upsample1d_loops(x, factor)).max()))
        shapes += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and shapes >= 100 and elapsed < 60
    report(2, ok, f"{shapes} shapes, max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_shape_contract(rng):
    model = GestureNet(ArchConfig(), seed=0)
    out = model.forward(rng.standard_normal((3, 3, 64)), rng.standard_normal((3, 3, 64)))
    shapes = {"logits": out.shape}
    orig = model.ppm.forward

    def spy(x, mode="train"):
        shapes["pre_ppm"] = x.shape
        result = orig(x, mode)
        shapes["post_ppm"] = result.shape
        return result

    model.ppm.forward = spy
    model.forward(rng.standard_normal((3, 3, 64)), rng.standard_normal((3, 3, 64)))
    ok = (
        shapes["logits"] == (3, 10, 64)
        and shapes["pre_ppm"] == (3, 64, 8)
        and shapes["post_ppm"] == (3, 112, 8)
    )
    report(3, ok, f"{shapes}")


def test_criterion_4_scoring_exactness():
    perfect = score(PROFESSIONAL_DURATIONS).total
    zero = score(np.zeros(9)).total
    half = PROFESSIONAL_DURATIONS.copy()
    half[0] = 2.45
    half_total = score(half).total
    rows = {
        1: ([3, 4, 4, 4, 5, 6, 4, 5, 3, 9, 7, 7], 4.9),
        2: ([1.5, 3.5, 3, 4.5, 3, 3.5, 4.5, 3.5, 3.5, 6.5, 4.5, 3], 3.65),
        3: ([1.5, 3.5, 3, 4.5, 3, 3.5, 4.5, 3.5, 3.5, 6.5, 4.5, 3], 3.65),
        4: ([4, 4, 3, 5, 6, 5, 6, 6, 11, 10, 5, 2], 5.4),
        5: ([2, 4, 3, 5, 5.5, 3.5, 5, 3.5, 3.5, 8.5, 4, 3], 4.0),
        6: ([2, 3, 2, 5.5, 4.5, 2.5, 4, 3.5, 3.5, 4, 5, 2.5], 3.45),
        7: ([2, 3, 2, 5.5, 4.5, 2.5, 4, 3.5, 3.5, 4, 5, 2.5], 3.45),
        8: ([3, 3, 2.5, 4.5, 5.5, 3.5, 6.5, 3, 4, 6, 5, 3.5], 4.1),
        9: ([3, 3, 2.5, 4.5, 5.5, 3.5, 6.5, 3, 4, 6, 5, 3.5], 4.1),
    }
    trims_ok = all(
        abs(trimmed_average(row) - avg) < 1e-9 for row, avg in rows.values()
    )
    ok = (
        abs(perfect - 100.0) < 1e-9
        and zero == 0.0
        and abs(half_total - (100.0 / 9.0) * 8.5) < 1e-9
        and trims_ok
    )
    report(4, ok, f"perfect {perfect:.9f}, half-G1 {half_total:.9f}, trims {trims_ok}")


def test_criterion_5_smoothing_correctness(rng):
    mismatches = 0
    tracks = 0
    for _ in range(600):
        n = int(rng.integers(1, 90))
        window = int(rng.integers(1, 16))
        labels = rng.integers(0, 10, size=n)
        ours = mode_filter(LabelTrack(labels=labels), window).labels
        ref = oracle.mode_filter_loops(labels, window)
        mismatches += int((ours != ref).sum())
        tracks += 1
    for _ in range(400):
        n = int(rng.integers(1, 60))
        votes = rng.integers(0, 20, size=(n, 10))
        ours = multiple_test_voting(
            LabelTrack(labels=np.zeros(n, dtype=int), votes=votes)
        ).labels
        ref = np.array([oracle.mode_smallest(np.repeat(np.arange(10), v)) for v in votes])
        mismatches += int((ours != ref).sum())
        tracks += 1
    # tie-break fixture and constant-track idempotence
    votes = np.zeros((1, 10), dtype=np.int64)
    votes[0, 2] = votes[0, 5] = 32
    tie_ok = multiple_test_voting(LabelTrack(labels=np.zeros(1, int), votes=votes)).labels[0] == 2
    const = LabelTrack(labels=np.full(300, 4, dtype=int))
    idem_ok = (mode_filter(mode_filter(const, 128), 128).labels == 4).all()
    ok = mismatches == 0 and tracks >= 1000 and tie_ok and idem_ok
    report(5, ok, f"{tracks} tracks, {mismatches} mismatches, tie {tie_ok}, idem {idem_ok}")


def test_criterion_6_user_dependent_accuracy(user_dep_run):
    raw_acc = user_dep_run["raw"].accuracy
    smooth_acc = user_dep_run["mtv+tmf"].accuracy
    ok = smooth_acc >= 0.90 and smooth_acc >= raw_acc
    report(6, ok, f"mtv+tmf {smooth_acc:.4f}, raw {raw_acc:.4f}")


def test_criterion_7_onset_offset_errors(user_dep_run):
    m = user_dep_run["mtv+tmf"]
    ok = m.onset_mean < 0.5 and m.offset_mean < 0.5 and m.detection_failures == 0
    report(7, ok, f"onset {m.onset_mean:.3f}s (SD {m.onset_sd:.3f}), "
                  f"offset {m.offset_mean:.3f}s (SD {m.offset_sd:.3f})")


def test_criterion_8_score_error(user_dep_run):
    m = user_dep_run["mtv+tmf"]
    ok = m.score_error_mean < 5.0
    report(8, ok, f"mean score error {m.score_error_mean:.2f} pts (SD {m.score_error_sd:.2f})")


def test_criterion_9_cross_participant_degradation(lopo_run):
    ud = lopo_run["user-dependent"]
    lopo = lopo_run["lopo"]
    ok = lopo < ud and lopo >= 0.60
    report(9, ok, f"user-dependent {ud:.4f} vs LOPO {lopo:.4f}")


def test_criterion_10_checkpoint(tmp_path, rng):
    model = GestureNet(ArchConfig(), seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save(p1)
    a = rng.standard_normal((2, 3, 64))
    g = rng.standard_normal((2, 3, 64))
    before = model.forward(a, g, mode="eval")
    loaded = GestureNet.load(p1)
    loaded.save(p2)
    byte_ok = p1.read_bytes() == p2.read_bytes()
    pred_ok = np.array_equal(before, loaded.forward(a, g, mode="eval"))
    kbits = model.size_report()["total_kbits"]
    import pathlib

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    readme_ok = "Kbit" in readme
    ok = byte_ok and pred_ok and readme_ok
    report(10, ok, f"round-trip byte-identical {byte_ok}, predictions {pred_ok}, "
                   f"size {kbits:.1f} Kbit, documented {readme_ok}")


def test_criterion_11_metric_kernels(rng):
    truth3 = [np.zeros(10, int) for _ in range(3)]
    preds3 = [np.zeros(10, int) for _ in range(3)]
    preds3[0][:2] = 1
    preds3[1][:3] = 1
    fixture_ok = abs(accuracy_global(preds3, truth3) - 25 / 30) < 1e-15

    truth = [np.repeat(np.arange(10), 5)]
    preds = [np.zeros(50, int)]
    out = prf_confusion(preds, truth)
    prf_ok = out["recall"][0] == 1.0 and abs(out["precision"][0] - 0.1) < 1e-15

    trace_ok = True
    for _ in range(10):
        p = rng.integers(0, 10, size=300)
        t = rng.integers(0, 10, size=300)
        cm = confusion_matrix([p], [t])
        if abs(accuracy_global([p], [t]) - np.trace(cm) / cm.sum()) > 1e-15:
            trace_ok = False

    mean, sd = mean_sd([1.0, 3.0])
    sd_ok = mean == 2.0 and sd == 1.0  # population SD
    ok = fixture_ok and prf_ok and trace_ok and sd_ok
    report(11, ok, f"fixtures {fixture_ok}, prf {prf_ok}, trace {trace_ok}, popSD {sd_ok}")


def test_criterion_12_cli_determinism(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        d = tmp_path / f"synth_{tag}"
        assert cli_main(["synth", "--seed", "9", "--participants", "1", "--out", str(d)]) == 0
        dirs.append(d)
    synth_ok = all(
        (dirs[0] / n.name).read_bytes() == (dirs[1] / n.name).read_bytes()
        for n in dirs[0].iterdir()
    )
    ckpts = []
    for tag in ("a", "b"):
        p = tmp_path / f"model_{tag}.ckpt"
        rc = cli_main([
            "train", "--data", str(dirs[0]), "--seed", "3", "--out", str(p),
            "--epochs", "1", "--stride", "32", "--quiet",
        ])
        assert rc == 0
        ckpts.append(p.read_bytes())
    train_ok = ckpts[0] == ckpts[1]
    report(12, synth_ok and train_ok, f"synth {synth_ok}, train {train_ok}")
