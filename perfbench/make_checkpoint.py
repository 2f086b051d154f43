"""Rebuild the checkpoint that the score-stride1 and screen-stride64 workloads load.

Recipe (the acceptance user-dependent fixture): synthetic corpus seed 42
with 10 participants; procedures 1-4 of each participant train, procedure 5
is held out; 12000 stride-1 windows drawn with seed 0; batch 256, 25 epochs,
lr 0.003, model and shuffle seed 0. The held-out procedures then have to meet
the paper's user-dependent claims under ``mtv+tmf`` smoothing: sample
accuracy >= 0.90, mean onset and offset error < 0.5 s, mean score error < 5
points, and no detection failure. Training takes about six minutes on one
core.

    python3 perfbench/make_checkpoint.py [--out perfbench/user_dep.ckpt]

Prints the SHA-256 of the written file; ``run.py`` refuses a checkpoint
whose digest differs from ``CHECKPOINT_SHA256`` there.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

from washseg.evaluation import evaluate_tracks, fold_windows, make_split, predict_variants
from washseg.model import ArchConfig, GestureNet, TrainHyper, train
from washseg.synth import GenSpec, generate

PAPER_CLAIMS = "accuracy >= 0.90, onset/offset error < 0.5 s, score error < 5 points"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "user_dep.ckpt"))
    args = ap.parse_args(argv)

    corpus = generate(GenSpec(seed=42))
    _, train_series, test_series = make_split(corpus, "user-dependent").folds[0]
    model = GestureNet(ArchConfig(), seed=0)
    windows = fold_windows(train_series, 64, 1, max_windows=12000, rng=np.random.default_rng(0))
    hyper = TrainHyper(lr=0.003, batch=256, epochs=25, seed=0)
    logs = train(model, windows, hyper)
    model.save(args.out)

    loaded = GestureNet.load(args.out)
    m = evaluate_tracks(test_series, predict_variants(loaded, test_series, ("mtv+tmf",))["mtv+tmf"])
    ok = (m.accuracy >= 0.90 and m.onset_mean < 0.5 and m.offset_mean < 0.5
          and m.score_error_mean < 5.0 and m.detection_failures == 0)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"epochs {len(logs)}, final loss {logs[-1].loss:.5f}")
    print(f"held-out mtv+tmf: accuracy {m.accuracy:.4f}, onset {m.onset_mean:.3f} s, "
          f"offset {m.offset_mean:.3f} s, score error {m.score_error_mean:.2f} pts, "
          f"detection failures {m.detection_failures}")
    print(f"paper claims ({PAPER_CLAIMS}): {'met' if ok else 'NOT MET'}")
    print(f"sha256 {digest}  {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
