"""Command-line entry point: synth, train, infer, score, eval, inspect.

Every command exits 0 on success; failures print a single
``error: <origin>: <message>`` line to stderr and exit nonzero. Seeds are
mandatory for synth/train so reruns are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluation, pipeline, scoring, synth
from .model import ArchConfig, GestureNet, TrainHyper, train
from .signal_data import RATE_HZ, load_corpus, load_csv


def _fail(origin: str, message: str) -> int:
    print(f"error: {origin}: {message}", file=sys.stderr)
    return 1


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _overwrite(command, outputs, inputs):
    """The failure for the first output that is an existing input file or
    directory, naming both; None when no output is. Outputs are (name, path),
    inputs (flag, path); a path of None is a flag not given."""
    for name, out in outputs:
        for flag, path in inputs:
            both = out and path and os.path.exists(out) and os.path.exists(path)
            if both and os.path.samefile(out, path):
                return _fail(command, f"{name} {out} is the {flag} input; "
                                      "give the output another path")
    return None


def _hyper(args) -> TrainHyper:
    return TrainHyper(lr=args.lr, batch=args.batch, epochs=args.epochs, seed=args.seed)


def cmd_synth(args) -> int:
    if os.path.isdir(args.out) and any(name.endswith(".csv") for name in os.listdir(args.out)):
        # a second corpus written beside the first would load as one mixed corpus
        return _fail("synth", f"--out {args.out} already holds corpus CSV files; "
                              "give an empty or new directory")
    spec = synth.GenSpec(seed=args.seed, participants=args.participants,
                         locations=args.locations)
    corpus = synth.generate(spec)
    synth.write_corpus(corpus, args.out)
    stats = synth.describe(corpus)
    print(json.dumps(stats, indent=2))
    return 0


def cmd_train(args) -> int:
    log_path = args.out + ".log.csv"
    # the log is a CSV, so in the corpus directory it would break the next load
    refused = _overwrite("train", [("--out", args.out), ("--out's log", log_path),
                                   ("--out's directory", os.path.dirname(args.out) or ".")],
                         [("--data", args.data)])
    if refused:
        return refused
    hyper = _hyper(args).validate()
    corpus = load_corpus(args.data)
    arch = ArchConfig()
    windows = evaluation.fold_windows(
        corpus, arch.input_length, args.stride,
        max_windows=args.max_windows, rng=np.random.default_rng(hyper.seed),
    )
    model = GestureNet(arch, seed=hyper.seed)
    logs = train(model, windows, hyper, verbose=not args.quiet)
    bits = model.save(args.out)
    _write_text(log_path, "epoch,loss,accuracy\n" + "".join(
        f"{entry.epoch},{entry.loss:.9g},{entry.accuracy:.9g}\n" for entry in logs))
    print(f"saved {args.out} ({bits / 1000.0:.1f} Kbit), log at {log_path}")
    return 0


def cmd_infer(args) -> int:
    svg_path = os.path.splitext(args.out)[0] + ".svg"
    if svg_path == args.out:
        return _fail("infer", f"--out {args.out} is where the timeline SVG goes; "
                              "give the track CSV another extension")
    refused = _overwrite("infer", [("--out", args.out), ("--out's timeline SVG", svg_path)],
                         [("--series", args.series), ("--checkpoint", args.checkpoint)])
    if refused:
        return refused
    model = GestureNet.load(args.checkpoint)
    series = load_csv(args.series)
    stride = 1 if args.smooth in ("mtv", "mtv+tmf") else model.config.input_length
    track = pipeline.smooth(pipeline.infer_track(model, series, stride=stride), args.smooth)
    pipeline.export_track_csv(args.out, track, series)
    pipeline.export_timeline_svg(svg_path, track, RATE_HZ)
    print(f"wrote {args.out} and {svg_path}")
    return 0


def cmd_score(args) -> int:
    if args.track and (args.checkpoint or args.series):
        return _fail("score", "--track does not combine with --checkpoint or --series")
    if not (args.track or (args.checkpoint and args.series)):
        return _fail("score", "need either --track or --checkpoint with --series")
    refused = _overwrite("score", [("--out", args.out)], [
        ("--track", args.track), ("--series", args.series), ("--checkpoint", args.checkpoint)])
    if refused:
        return refused
    if args.track:
        track = pipeline.load_track_csv(args.track)
    else:
        model = GestureNet.load(args.checkpoint)
        series = load_csv(args.series)
        raw = pipeline.infer_track(model, series, stride=1)
        track = pipeline.smooth(raw, "mtv+tmf")
    durations = pipeline.gesture_durations(track, RATE_HZ)
    report = scoring.score(durations)
    text = report.to_json()
    if args.out:
        _write_text(args.out, text + "\n")
    print(text)
    return 0


def cmd_eval(args) -> int:
    # the reports include CSVs, which would break the next load of the corpus
    refused = _overwrite("eval", [("--out", args.out)], [("--data", args.data)])
    if refused:
        return refused
    corpus = load_corpus(args.data)
    kind = {"user-dep": "user-dependent", "lopo": "lopo", "lolo": "lolo"}[args.split]
    split = evaluation.make_split(corpus, kind)
    results = evaluation.run_evaluation(
        split,
        hyper=_hyper(args),
        window_stride=args.stride,
        max_windows=args.max_windows,
        verbose=not args.quiet,
    )
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "metrics.json"), evaluation.report_to_json(results) + "\n")
    for fold, metrics in results.items():
        if fold == "_aggregate":
            continue
        m = metrics["mtv+tmf"]
        _write_text(os.path.join(args.out, f"{fold}_confusion.csv"),
                    evaluation.confusion_to_csv(m.confusion))
        _write_text(os.path.join(args.out, f"{fold}_participants.csv"),
                    evaluation.per_participant_csv(m.per_participant_accuracy))
    print(json.dumps(results["_aggregate"], indent=2))
    return 0


def cmd_inspect(args) -> int:
    model = GestureNet.load(args.checkpoint)
    report = model.size_report()
    print(model.config.to_text().strip())
    print(f"parameters: {model.parameter_count()}")
    print(f"stored values (parameters and batch-norm statistics): {report['parameter_count']}")
    print(f"payload bits: {report['payload_bits']}")
    print(f"serialized size: {report['total_kbits']:.3f} Kbit")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="washseg")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True, help="output corpus directory")
    sp.add_argument("--participants", type=int, default=synth.GenSpec.participants)
    sp.add_argument("--locations", type=int, default=synth.GenSpec.locations)
    sp.set_defaults(func=cmd_synth)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--data", required=True, help="corpus directory")
    fit.add_argument("--seed", type=int, required=True)
    fit.add_argument("--epochs", type=int, default=TrainHyper.epochs)
    fit.add_argument("--lr", type=float, default=TrainHyper.lr)
    fit.add_argument("--batch", type=int, default=TrainHyper.batch)
    fit.add_argument("--stride", type=int, default=1, help="training window stride")
    fit.add_argument("--max-windows", type=int, default=None)
    fit.add_argument("--quiet", action="store_true")

    tp = sub.add_parser("train", parents=[fit], help="train a model on a corpus directory")
    tp.add_argument("--out", required=True, help="output checkpoint path")
    tp.set_defaults(func=cmd_train)

    ip = sub.add_parser("infer", help="label one series with a trained model")
    ip.add_argument("--checkpoint", required=True)
    ip.add_argument("--series", required=True)
    ip.add_argument("--smooth", choices=["none", "mtv", "tmf", "mtv+tmf"], default="mtv+tmf")
    ip.add_argument("--out", required=True, help="label-track CSV path")
    ip.set_defaults(func=cmd_infer)

    scp = sub.add_parser("score", help="score a label track or a series")
    scp.add_argument("--track", help="label-track CSV from `infer`, one row per 20 ms sample")
    scp.add_argument("--checkpoint")
    scp.add_argument("--series")
    scp.add_argument("--out")
    scp.set_defaults(func=cmd_score)

    ep = sub.add_parser("eval", parents=[fit], help="train+evaluate under a split protocol")
    ep.add_argument("--split", choices=["user-dep", "lopo", "lolo"], default="user-dep")
    ep.add_argument("--out", required=True, help="output report directory")
    ep.set_defaults(func=cmd_eval)

    np_ = sub.add_parser("inspect", help="dump a checkpoint's architecture and size")
    np_.add_argument("--checkpoint", required=True)
    np_.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module errors with their origin
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
