import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from washseg.cli import main
from washseg.model import ArchConfig, GestureNet
from washseg.pipeline import LabelTrack, gesture_durations, infer_track, smooth as smooth_track
from washseg.scoring import PROFESSIONAL_DURATIONS, score
from washseg.signal_data import load_csv, write_csv
from washseg.synth import GenSpec, generate_procedure
from conftest import make_series


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--seed", "5", "--participants", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("model") / "model.ckpt"
    rc = main([
        "train", "--data", str(corpus_dir), "--seed", "0", "--out", str(path),
        "--epochs", "2", "--batch", "256", "--stride", "16", "--quiet",
    ])
    assert rc == 0
    return path


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--seed", "9", "--participants", "1", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "9", "--participants", "1", "--out", str(b)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synth_spec_file_matches_flags(tmp_path):
    spec = tmp_path / "small.spec"
    spec.write_text("# one participant, two locations\nparticipants=1\nlocations=2\nseed=9\n")
    via_file, via_flags = tmp_path / "file", tmp_path / "flags"
    assert main(["synth", "--seed", "9", "--spec", str(spec), "--out", str(via_file)]) == 0
    assert main(["synth", "--seed", "9", "--participants", "1", "--locations", "2",
                 "--out", str(via_flags)]) == 0
    assert _csv_bytes(via_file) == _csv_bytes(via_flags)
    # --seed overrides the file's seed
    reseeded, reseeded_flags = tmp_path / "reseeded", tmp_path / "reseeded_flags"
    assert main(["synth", "--seed", "10", "--spec", str(spec), "--out", str(reseeded)]) == 0
    assert main(["synth", "--seed", "10", "--participants", "1", "--locations", "2",
                 "--out", str(reseeded_flags)]) == 0
    assert _csv_bytes(reseeded) == _csv_bytes(reseeded_flags) != _csv_bytes(via_file)


def test_synth_spec_unknown_key_fails(capsys, tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("participants=1\nbogus=1\n")
    assert main(["synth", "--seed", "9", "--spec", str(spec), "--out", str(tmp_path / "c")]) != 0
    assert capsys.readouterr().err.strip() == "error: ValueError: unknown generator key 'bogus'"


def test_synth_zero_participants_fails(capsys, tmp_path):
    assert main(["synth", "--seed", "9", "--participants", "0", "--out", str(tmp_path)]) != 0
    assert "participants must be at least 1" in capsys.readouterr().err


def test_train_is_deterministic(tmp_path, corpus_dir):
    outs = []
    for tag in ("x", "y"):
        path = tmp_path / f"{tag}.ckpt"
        rc = main([
            "train", "--data", str(corpus_dir), "--seed", "3", "--out", str(path),
            "--epochs", "1", "--stride", "32", "--quiet",
        ])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,value", [
    ("--batch", "0"), ("--epochs", "0"), ("--lr", "nan"), ("--lr", "-1"), ("--seed", "-1"),
])
def test_train_rejects_bad_hyper_naming_flag(capsys, tmp_path, corpus_dir, flag, value):
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(corpus_dir), "--seed", "0", "--out", str(out),
               "--stride", "32", "--quiet", flag, value])
    assert rc != 0
    assert f"error: ValueError: {flag[2:]} must" in capsys.readouterr().err
    assert not out.exists()


def test_infer_writes_track_and_svg(tmp_path, checkpoint):
    series = generate_procedure(GenSpec(seed=5, participants=2), 0, 0, 5)
    csv_path = tmp_path / "series.csv"
    write_csv(series, csv_path)
    out = tmp_path / "track.csv"
    rc = main([
        "infer", "--checkpoint", str(checkpoint), "--series", str(csv_path),
        "--smooth", "mtv+tmf", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists() and (tmp_path / "track.svg").exists()
    header = out.read_text().splitlines()[0]
    assert header == "index,t,predicted,ground_truth"


@pytest.mark.parametrize("smooth", ["none", "tmf"])
def test_infer_strides_by_the_model_input(tmp_path, smooth):
    # a 32-sample model: a 64-sample stride would leave samples uncovered
    ckpt_path = tmp_path / "short.ckpt"
    arch = ArchConfig(input_length=32, encoder_channels=(8, 16), bottleneck_channels=32,
                      decoder_channels=(16, 16))
    model = GestureNet(arch, seed=1)
    model.save(ckpt_path)
    series = generate_procedure(GenSpec(seed=5, participants=2), 0, 0, 5)
    csv_path = tmp_path / "series.csv"
    write_csv(series, csv_path)
    out = tmp_path / "track.csv"
    rc = main(["infer", "--checkpoint", str(ckpt_path), "--series", str(csv_path),
               "--smooth", smooth, "--out", str(out)])
    assert rc == 0
    predicted = np.genfromtxt(out, delimiter=",", names=True)["predicted"].astype(int)
    loaded = GestureNet.load(ckpt_path)
    expected = smooth_track(infer_track(loaded, load_csv(csv_path), stride=1), smooth)
    np.testing.assert_array_equal(predicted, expected.labels)


def test_score_on_perfect_track(tmp_path):
    # durations all meet the targets -> total 100
    labels = np.concatenate(
        [np.zeros(100, int)]
        + [np.full(int(round(d * 50)) + 10, g + 1, dtype=int) for g, d in enumerate(PROFESSIONAL_DURATIONS)]
        + [np.zeros(100, int)]
    )
    track_path = tmp_path / "track.csv"
    with open(track_path, "w") as f:
        f.write("index,t,predicted,ground_truth\n")
        for i, lab in enumerate(labels):
            f.write(f"{i},{i / 50.0},{lab},{lab}\n")
    out = tmp_path / "score.json"
    rc = main(["score", "--track", str(track_path), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["total"] == pytest.approx(100.0)


def _write_track(path, predicted):
    with open(path, "w") as f:
        f.write("index,t,predicted,ground_truth\n")
        for i, lab in enumerate(predicted):
            f.write(f"{i},{i / 50.0},{lab},0\n")


def test_score_rejects_a_non_integer_label_naming_the_line(capsys, tmp_path):
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["0", "1.7", "2"])
    assert main(["score", "--track", str(track_path)]) != 0
    err = capsys.readouterr().err
    assert f"{track_path}:3:" in err and "1.7" in err


def test_score_on_a_one_row_track(capsys, tmp_path):
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["3"])
    assert main(["score", "--track", str(track_path)]) == 0
    expected = score(gesture_durations(LabelTrack(labels=[3]), 50.0))
    assert json.loads(capsys.readouterr().out)["total"] == expected.total > 0


@pytest.mark.parametrize("rate", ["0", "nan", "inf", "-50"])
def test_score_rejects_a_bad_rate_naming_it(capsys, tmp_path, rate):
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["0", "3", "3", "0"])
    assert main(["score", "--track", str(track_path), "--rate-hz", rate]) != 0
    assert capsys.readouterr().err == (
        f"error: ValueError: rate_hz must be finite and positive, got {float(rate)}\n")


def test_score_with_a_rate_so_small_durations_overflow_fails_in_one_line(capsys, tmp_path):
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["0", "3", "3", "0"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["score", "--track", str(track_path), "--rate-hz", "1e-310"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: gesture 3 duration inf is not finite\n"


def test_eval_lolo_on_one_location_names_the_empty_fold(capsys, tmp_path, corpus_dir):
    rc = main(["eval", "--data", str(corpus_dir), "--split", "lolo", "--seed", "0",
               "--out", str(tmp_path / "report"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: fold 'lolo_loc0' has no training series\n")


def test_train_names_a_recording_shorter_than_the_window(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    labels = np.zeros(100, dtype=int)
    write_csv(make_series(labels, participant="p00"), corpus / "loc0_p00_1.csv")
    write_csv(make_series(labels[:50], participant="p09"), corpus / "loc0_p09_1.csv")
    rc = main(["train", "--data", str(corpus), "--seed", "0", "--out", str(tmp_path / "m.ckpt"),
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: loc0_p09_1.csv has 50 samples, fewer than the 64-sample window\n")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", ["-5", "0"])
def test_max_windows_below_one_rejected_naming_it(
        capsys, monkeypatch, tmp_path, corpus_dir, command, value):
    # the check runs before any model is built
    def no_model(*args, **kwargs):
        raise AssertionError("model built before max_windows was checked")

    monkeypatch.setattr("washseg.cli.GestureNet", no_model)
    monkeypatch.setattr("washseg.evaluation.GestureNet", no_model)
    out = tmp_path / "out"
    rc = main([command, "--data", str(corpus_dir), "--seed", "0", "--out", str(out),
               "--stride", "32", "--quiet", "--max-windows", value])
    assert rc != 0
    assert capsys.readouterr().err == (
        f"error: ValueError: max_windows must be at least 1, got {value}\n")
    assert not out.exists()


def test_inspect_reports_size(capsys, checkpoint):
    assert main(["inspect", "--checkpoint", str(checkpoint)]) == 0
    out = capsys.readouterr().out
    assert "serialized size" in out
    model = GestureNet.load(checkpoint)
    kbits = model.size_report()["total_kbits"]
    assert f"{kbits:.3f} Kbit" in out


def test_inspect_counts_parameters_apart_from_batchnorm_statistics(capsys):
    pinned = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"
    assert main(["inspect", "--checkpoint", str(pinned)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "parameters: 30410" in lines
    assert "stored values (parameters and batch-norm statistics): 30762" in lines


def test_eval_emits_reports(tmp_path, corpus_dir):
    out = tmp_path / "eval"
    rc = main([
        "eval", "--data", str(corpus_dir), "--split", "user-dep", "--seed", "0",
        "--out", str(out), "--epochs", "1", "--stride", "32", "--quiet",
    ])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    fold = metrics["user-dependent"]
    assert set(fold) == {"raw", "mtv", "tmf", "mtv+tmf"}
    for variant, entry in metrics["_aggregate"].items():
        cms = [np.array(m[variant]["confusion"]) for f, m in metrics.items() if f != "_aggregate"]
        assert entry["accuracy"] == sum(np.trace(c) for c in cms) / sum(c.sum() for c in cms)
    assert (out / "user-dependent_confusion.csv").exists()
    assert (out / "user-dependent_participants.csv").exists()


def test_missing_input_fails_cleanly(capsys, tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope"), "--seed", "0",
               "--out", str(tmp_path / "m.ckpt"), "--quiet"])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_bad_checkpoint_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    rc = main(["inspect", "--checkpoint", str(bad)])
    assert rc != 0
    assert "error: BadMagicError" in capsys.readouterr().err


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("synth", "train", "infer", "score", "eval", "inspect"):
        assert cmd in out
