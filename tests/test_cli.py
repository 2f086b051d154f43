import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import washseg
from washseg.cli import main
from washseg.evaluation import SMOOTH_VARIANTS
from washseg.model import ArchConfig, GestureNet
from washseg.pipeline import LabelTrack, gesture_durations, infer_track, smooth as smooth_track
from washseg.scoring import PROFESSIONAL_DURATIONS, score
from washseg.signal_data import CSV_HEADER, load_csv, write_csv
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
    for out in (a, b):
        assert main(["synth", "--seed", "9", "--participants", "2", "--locations", "2",
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    assert {name.split("_")[0] for name in files} == {"loc0", "loc1"}
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synth_refuses_an_out_directory_holding_a_corpus(capsys, tmp_path):
    # written beside the first, seed 2's p00 would load with seed 1's p01 as one corpus
    out = tmp_path / "mix"
    assert main(["synth", "--seed", "1", "--participants", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    before = _csv_bytes(out)
    assert main(["synth", "--seed", "2", "--participants", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: synth: --out {out} already holds corpus CSV "
                                       "files; give an empty or new directory\n")
    assert _csv_bytes(out) == before


@pytest.mark.parametrize("argv", [["synth", "--spec", "s.txt", "--out", "c"],
                                  ["train", "--arch-config", "a.txt", "--data", "c",
                                   "--out", "m.ckpt"]], ids=["synth", "train"])
def test_config_file_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "0"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {argv[1]} {argv[2]}\n")


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


def test_infer_refuses_an_out_path_the_svg_would_overwrite(capsys, tmp_path):
    # before, the track CSV was written and then overwritten by the SVG, exit 0;
    # the refusal comes before the checkpoint or the series is read
    out = tmp_path / "x.svg"
    rc = main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--series", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: infer: --out {out} is where the timeline SVG "
                                       "goes; give the track CSV another extension\n")
    assert not out.exists()


def _inputs(tmp_path, checkpoint_name, series_name):
    """A saved fresh model and a recording under the given names, and their bytes."""
    checkpoint, series = tmp_path / checkpoint_name, tmp_path / series_name
    GestureNet(ArchConfig(), seed=0).save(checkpoint)
    write_csv(generate_procedure(GenSpec(seed=5, participants=2), 0, 0, 5), series)
    return checkpoint, series, {p: p.read_bytes() for p in (checkpoint, series)}


@pytest.mark.parametrize("out_name,checkpoint_name,series_name,output,flag", [
    ("rec.csv", "m.ckpt", "rec.csv", "--out", "--series"),
    ("m.ckpt", "m.ckpt", "rec.csv", "--out", "--checkpoint"),
    ("rec.csv", "m.ckpt", "rec.svg", "--out's timeline SVG", "--series"),
    ("m.csv", "m.svg", "rec.csv", "--out's timeline SVG", "--checkpoint"),
], ids=["csv-series", "csv-checkpoint", "svg-series", "svg-checkpoint"])
def test_infer_refuses_to_write_over_an_input(capsys, tmp_path, out_name, checkpoint_name,
                                              series_name, output, flag):
    # before, the inputs were read and then one of them overwritten, exit 0
    checkpoint, series, before = _inputs(tmp_path, checkpoint_name, series_name)
    out = tmp_path / "." / out_name  # another spelling of the path
    written = {"--out": out, "--out's timeline SVG": out.with_suffix(".svg")}[output]
    assert main(["infer", "--checkpoint", str(checkpoint), "--series", str(series),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: infer: {output} {written} is the {flag} input; "
                                       "give the output another path\n")
    assert {p: p.read_bytes() for p in before} == before


@pytest.mark.parametrize("flag", ["--track", "--series", "--checkpoint"])
def test_score_refuses_to_write_over_an_input(capsys, tmp_path, flag):
    # before, the inputs were read and then one of them overwritten, exit 0
    checkpoint, series, before = _inputs(tmp_path, "m.ckpt", "rec.csv")
    track = tmp_path / "track.csv"
    _write_track(track, ["3"])
    before[track] = track.read_bytes()
    argv = (["--track", str(track)] if flag == "--track"
            else ["--checkpoint", str(checkpoint), "--series", str(series)])
    out = {"--track": track, "--series": series, "--checkpoint": checkpoint}[flag]
    assert main(["score", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: score: --out {out} is the {flag} input; "
                                       "give the output another path\n")
    assert {p: p.read_bytes() for p in before} == before


def _own_corpus(tmp_path):
    """A one-participant corpus of its own, and its files' bytes."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--seed", "5", "--participants", "1", "--out", str(corpus)]) == 0
    return corpus, _csv_bytes(corpus)


def test_train_refuses_to_write_its_log_into_its_corpus(capsys, tmp_path):
    # before, the model was trained and m.ckpt.log.csv written into the
    # corpus, exit 0, and the next train on the corpus failed on that name
    corpus, before = _own_corpus(tmp_path)
    assert main(["train", "--data", str(corpus), "--seed", "0", "--epochs", "1",
                 "--max-windows", "64", "--quiet", "--out", str(corpus / "m.ckpt")]) == 1
    assert capsys.readouterr().err == (f"error: train: --out's directory {corpus} is the --data "
                                       "input; give the output another path\n")
    assert _csv_bytes(corpus) == before


def test_eval_refuses_to_write_its_reports_into_its_corpus(capsys, tmp_path):
    # before, the fold was trained and scored and its confusion and
    # participant CSVs written into the corpus, exit 0, and the next load of
    # the corpus failed on their names
    corpus, before = _own_corpus(tmp_path)
    out = corpus / "."  # another spelling of the path
    assert main(["eval", "--data", str(corpus), "--seed", "0", "--epochs", "1",
                 "--max-windows", "64", "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: eval: --out {out} is the --data input; "
                                       "give the output another path\n")
    assert _csv_bytes(corpus) == before


@pytest.mark.parametrize("smooth", ["none", "tmf"])
def test_infer_strides_by_the_model_input(tmp_path, monkeypatch, smooth):
    # without voting, infer strides by the 64-sample model input, and its
    # labels are the stride-1 pass's
    ckpt_path = tmp_path / "model.ckpt"
    GestureNet(ArchConfig(), seed=1).save(ckpt_path)
    series = generate_procedure(GenSpec(seed=5, participants=2), 0, 0, 5)
    csv_path = tmp_path / "series.csv"
    write_csv(series, csv_path)
    out = tmp_path / "track.csv"
    strides = []

    def spy(m, s, stride):
        strides.append(stride)
        return infer_track(m, s, stride=stride)

    monkeypatch.setattr("washseg.pipeline.infer_track", spy)
    rc = main(["infer", "--checkpoint", str(ckpt_path), "--series", str(csv_path),
               "--smooth", smooth, "--out", str(out)])
    assert rc == 0 and strides == [64]
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


@pytest.mark.parametrize("extra", [["--checkpoint"], ["--series"], ["--checkpoint", "--series"]],
                         ids=["checkpoint", "series", "both"])
def test_score_refuses_a_track_with_checkpoint_or_series(capsys, tmp_path, extra):
    # before, the track was scored and the other flags ignored, even naming no file
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["3"])
    argv = ["score", "--track", str(track_path), "--out", str(tmp_path / "score.json")]
    for flag in extra:
        argv += [flag, str(tmp_path / f"missing{flag[2:]}")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: score: --track does not combine with --checkpoint or --series\n")
    assert not (tmp_path / "score.json").exists()


@pytest.mark.parametrize("given", [[], ["--checkpoint"], ["--series"]],
                         ids=["neither", "checkpoint", "series"])
def test_score_without_a_track_needs_checkpoint_and_series(capsys, tmp_path, given):
    argv = ["score"]
    for flag in given:
        argv += [flag, str(tmp_path / f"missing{flag[2:]}")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: score: need either --track or --checkpoint with --series\n"


def test_score_on_a_one_row_track(capsys, tmp_path):
    track_path = tmp_path / "track.csv"
    _write_track(track_path, ["3"])
    assert main(["score", "--track", str(track_path)]) == 0
    expected = score(gesture_durations(LabelTrack(labels=[3]), 50.0))
    assert json.loads(capsys.readouterr().out)["total"] == expected.total > 0


@pytest.mark.parametrize("text,message", [
    ("index,t,predicted,ground_truth\n0,0,0,0\n1,0.02,10,0\n", "{path}:3: label 10 outside 0..9"),
    ("index,t,ground_truth\n0,0,0\n", "{path}: header has no 'predicted' column"),
    ("index,t,predicted,ground_truth\n", "{path}: empty track (no data rows)"),
    ("", "{path}: empty track (no data rows)"),
    ("index,t,predicted,ground_truth\n0,0,-1,0\n", "{path}:2: label -1 outside 0..9"),
])
def test_score_rejects_a_bad_track_naming_the_file(capsys, tmp_path, text, message):
    track_path = tmp_path / "track.csv"
    track_path.write_text(text, encoding="utf-8")
    assert main(["score", "--track", str(track_path)]) == 1
    assert capsys.readouterr().err == f"error: ValueError: {message.format(path=track_path)}\n"


@pytest.mark.parametrize("col,value,shown", [("ax", "1e300", "1e+300"),
                                              ("gz", "-3.5e38", "-3.5e+38")])
def test_score_rejects_a_sensor_value_beyond_float32_naming_line_and_column(
        capsys, tmp_path, corpus_dir, col, value, shown):
    # before, the recording loaded and forward failed: accel input contains NaN/Inf
    lines = sorted(corpus_dir.glob("*.csv"))[0].read_text(encoding="utf-8").splitlines()
    fields = lines[4].split(",")
    fields[CSV_HEADER.split(",").index(col)] = value
    lines[4] = ",".join(fields)
    series_path = tmp_path / "huge.csv"
    series_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pinned = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"
    assert main(["score", "--checkpoint", str(pinned), "--series", str(series_path)]) == 1
    assert capsys.readouterr().err == (f"error: SeriesFormatError: {series_path}: line 5: "
                                       f"{col} value {shown} beyond float32's finite range\n")


# the track-level conversions still take a rate, since a LabelTrack carries none
@pytest.mark.parametrize("rate", ["0", "nan", "inf", "-50"])
def test_score_rejects_a_bad_rate_naming_it(rate):
    track = LabelTrack(labels=[0, 3, 3, 0])
    with pytest.raises(ValueError) as info:
        score(gesture_durations(track, float(rate)))
    assert str(info.value) == f"rate_hz must be finite and positive, got {float(rate)}"


def test_score_with_a_rate_so_small_durations_overflow_fails_in_one_line():
    track = LabelTrack(labels=[0, 3, 3, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            score(gesture_durations(track, 1e-310))
    assert str(info.value) == "gesture 3 duration inf is not finite"


def test_commands_open_every_text_file_as_utf8(tmp_path, corpus_dir):
    # a text-mode open without an encoding warns under -X warn_default_encoding
    def run(*argv):
        cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
               "-m", "washseg.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    env = {**os.environ, "PYTHONPATH": str(Path(washseg.__file__).parents[1])}
    ckpt = tmp_path / "m.ckpt"
    series = sorted(corpus_dir.glob("*.csv"))[0]
    for argv in (
        ["synth", "--seed", "1", "--participants", "1", "--out", str(tmp_path / "d")],
        ["train", "--data", str(corpus_dir), "--seed", "0", "--epochs", "1", "--stride", "32",
         "--max-windows", "256", "--quiet", "--out", str(ckpt)],
        ["score", "--checkpoint", str(ckpt), "--series", str(series),
         "--out", str(tmp_path / "score.json")],
    ):
        result = run(*argv)
        assert result.returncode == 0, result.stderr


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


def test_eval_names_a_short_test_recording_before_training(capsys, monkeypatch, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the test recordings were checked")

    monkeypatch.setattr("washseg.evaluation.train", no_training)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    labels = np.zeros(100, dtype=int)
    for participant, last in (("p00", labels), ("p09", labels[:50])):
        write_csv(make_series(labels, participant=participant), corpus / f"loc0_{participant}_1.csv")
        write_csv(make_series(last, participant=participant, procedure=5),
                  corpus / f"loc0_{participant}_5.csv")
    out = tmp_path / "report"
    rc = main(["eval", "--data", str(corpus), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: loc0_p09_5.csv has 50 samples, fewer than the 64-sample model input\n")
    assert not out.exists()


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


def test_eval_writes_strict_json_when_every_recording_fails_detection(tmp_path, corpus_dir,
                                                                       monkeypatch):
    # all-background tracks detect no procedure, so the onset and offset means
    # and SDs are over no recording and have no value, which JSON cannot spell as NaN
    def all_background(model, test_series):
        return {v: [LabelTrack(np.zeros(len(s), int)) for s in test_series]
                for v in SMOOTH_VARIANTS}

    monkeypatch.setattr("washseg.evaluation.predict_variants", all_background)
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(corpus_dir), "--seed", "0", "--epochs", "1",
                 "--stride", "32", "--max-windows", "64", "--quiet", "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"metrics.json holds {token}, which JSON forbids")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=refuse)
    for entry in metrics["user-dependent"].values():
        assert entry["detection_failures"] == len(entry["per_participant_accuracy"]) > 0
        undefined = ("onset_mean", "onset_sd", "offset_mean", "offset_sd")
        assert [entry[k] for k in undefined] == [None] * 4
        assert entry["score_error_mean"] > 0


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
