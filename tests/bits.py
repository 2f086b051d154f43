"""Print one JSON object of named sha256s and traced-memory figures of the
model's outputs: what a change that claims unchanged numerics compares
between its parent and itself. Run it from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bits.py

Nothing is asserted. float32 BLAS kernels differ by CPU, so two outputs
compare only when one machine made both. The keys:

- ``mem_*``: a batch-256 train step's saved activations and traced peak, a
  43,660-sample stride-1 ``infer_track``'s traced peak per sample,
  ``windows_to_arrays``' traced peak per window, and the memory its arrays of
  every stride-1 window of the seed-42 corpus hold. The ``infer_track`` figure
  moves by a few bytes between runs, as its inference threads interleave;
- ``pinned_eval_logits``: the pinned checkpoint's eval logits on 300 seeded
  windows;
- ``step_*``: the gradients and batch-norm running statistics of one train
  step from a seed-0 model at batch 256, at batch 256 in float64 and at
  batch 37;
- ``adam3_*``: the logits and gradients of 3 Adam steps at lr 0.003 and the
  batch-norm running statistics after them, at batches 256, 37 and 2, in
  float32 and float64;
- ``track_*``: stride-1 votes and labels and stride-64 labels of the pinned
  checkpoint on procedure 5 of seed-42 participants 0 and 1, hashed as int64
  values;
- ``cli_*``: the ``synth --seed 42 --participants 2`` corpus (its CSVs in
  name order), the 3-epoch recipe checkpoint and its log, a 1-epoch
  user-dependent ``eval`` report, ``infer`` at each ``--smooth``, ``score``
  and the ``inspect`` report, all of the pinned checkpoint on that corpus's
  ``loc0_p00_5.csv``.

Each group draws from its own generators, so a key added to one moves no
other.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from helpers import cached_bytes, cast_model, traced
from washseg.cli import main as cli_main
from washseg.evaluation import fold_windows
from washseg.model import ArchConfig, GestureNet, windows_to_arrays
from washseg.nn import Adam, softmax_cross_entropy
from washseg.pipeline import infer_track
from washseg.signal_data import SampleSeries
from washseg.synth import GenSpec, generate, generate_procedure

PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "user_dep.ckpt"
# name, batch and dtype of each one-step gradient, in draw order
STEPS = (("b256", 256, np.float32), ("b256_float64", 256, np.float64), ("b37", 37, np.float32))


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def grads(model) -> str:
    return sha256(p.grad for p in model.params().values())


def bn_stats(model) -> str:
    return sha256(t for name, t in model.named_tensors().items() if name.startswith("bn_stats."))


def memory() -> dict:
    rng = np.random.default_rng(0)
    model = GestureNet(ArchConfig(), seed=0)
    a, g = rng.standard_normal((2, 256, 3, 64)).astype(np.float32)
    y = rng.integers(0, 10, (256, 64))

    def step():
        model.zero_grad()
        logits = model.forward(a, g, mode="train")
        saved = cached_bytes(model)
        grad = softmax_cross_entropy(logits, y)[1]
        del logits
        model.backward(grad)
        return saved

    step()  # first-call allocations out of the measurement
    saved, _, step_peak = traced(step)
    n = 43_660
    series = SampleSeries("p00", "loc0", 1, t=np.arange(n) / 50.0,
                          accel=rng.standard_normal((3, n)),
                          gyro=rng.standard_normal((3, n)), label=np.zeros(n, np.int64))
    pinned = GestureNet.load(PINNED)
    infer_peak = traced(lambda: infer_track(pinned, series, stride=1))[2]
    spec = GenSpec(seed=5, participants=2)
    windows = fold_windows([generate_procedure(spec, p, 0, k) for p in range(2) for k in (1, 2, 3)],
                           64, 1, rng=rng)
    windows_to_arrays(windows)  # first-call allocations out of the measurement
    stack_peak = traced(lambda: windows_to_arrays(windows))[2]
    corpus = fold_windows(generate(GenSpec(seed=42, participants=2)), 64, 1, rng=rng)
    held = traced(lambda: windows_to_arrays(corpus))[1]
    return {
        "mem_train_step_b256_saved_mb": round(saved / 1e6, 1),
        "mem_train_step_b256_peak_mb": round(step_peak / 1e6, 1),
        f"mem_infer_stride1_{n}_bytes_per_sample": round(infer_peak / n),
        f"mem_windows_to_arrays_{len(windows)}_bytes_per_window": round(stack_peak / len(windows)),
        f"mem_windows_to_arrays_seed42_{len(corpus)}_held_mb": round(held / 1e6, 2),
    }


def seeded_inputs():
    """The pinned eval input and the ``STEPS`` batches, drawn in that order
    from one generator."""
    rng = np.random.default_rng(0)
    eval_input = rng.standard_normal((2, 300, 3, 64)).astype(np.float32)
    batches = {}
    for name, batch, dtype in STEPS:
        a, g = rng.standard_normal((2, batch, 3, 64)).astype(dtype)
        batches[name] = a, g, rng.integers(0, 10, (batch, 64))
    return eval_input, batches


def eval_logits(eval_input) -> str:
    return sha256([GestureNet.load(PINNED).forward(*eval_input, mode="eval")])


def one_step(a, g, y):
    """A seed-0 model after one train step on a batch, in the batch's dtype."""
    model = GestureNet(ArchConfig(), seed=0)
    if a.dtype != np.float32:
        cast_model(model, a.dtype)
    model.backward(softmax_cross_entropy(model.forward(a, g, mode="train"), y)[1])
    return model


def adam_steps(batch, dtype) -> tuple:
    """sha256s of the logits and gradients of 3 Adam steps from a seed-0
    model, and of its batch-norm running statistics after them."""
    model = GestureNet(ArchConfig(), seed=0)
    if dtype != np.float32:
        cast_model(model, dtype)
    opt = Adam(model.params().values(), lr=0.003)
    rng = np.random.default_rng(1)
    logits_seen, grads_seen = [], []
    for _ in range(3):
        a, g = rng.standard_normal((2, batch, 3, 64)).astype(dtype)
        y = rng.integers(0, 10, (batch, 64))
        model.zero_grad()
        logits = model.forward(a, g, mode="train")
        model.backward(softmax_cross_entropy(logits, y)[1])
        logits_seen.append(logits)
        grads_seen.extend(p.grad.copy() for p in model.params().values())
        opt.step()
    return sha256(logits_seen), sha256(grads_seen), bn_stats(model)


def tracks() -> dict:
    pinned, spec, keys = GestureNet.load(PINNED), GenSpec(seed=42, participants=2), {}
    for part in (0, 1):
        series = generate_procedure(spec, 0, part, 5)
        dense = infer_track(pinned, series, stride=1)
        keys[f"track_p{part:02d}_5_stride1_votes"] = sha256([dense.votes.astype(np.int64)])
        keys[f"track_p{part:02d}_5_stride1_labels"] = sha256([dense.labels.astype(np.int64)])
        coarse = infer_track(pinned, series, stride=64)
        keys[f"track_p{part:02d}_5_stride64_labels"] = sha256([coarse.labels.astype(np.int64)])
    return keys


def cli(*argv) -> bytes:
    """``washseg`` run in this process; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(arg) for arg in argv])
    if code:
        raise SystemExit(f"washseg {argv[0]} exited {code}")
    return out.getvalue().encode()


def cli_outputs(tmp: Path) -> dict:
    def file_sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    corpus = tmp / "corpus42"
    cli("synth", "--seed", 42, "--participants", 2, "--out", corpus)
    keys = {"cli_corpus_seed42": hashlib.sha256(b"".join(
        (corpus / name).read_bytes() for name in sorted(p.name for p in corpus.glob("*.csv")))
    ).hexdigest()}
    recipe = tmp / "recipe.ckpt"
    cli("train", "--data", corpus, "--seed", 0, "--epochs", 3, "--lr", 0.003, "--batch", 256,
        "--stride", 4, "--max-windows", 1024, "--quiet", "--out", recipe)
    keys["cli_recipe_ckpt"] = file_sha(recipe)
    keys["cli_recipe_log_csv"] = file_sha(tmp / "recipe.ckpt.log.csv")
    cli("eval", "--data", corpus, "--seed", 0, "--epochs", 1, "--stride", 4,
        "--max-windows", 512, "--quiet", "--out", tmp / "eval42")
    keys["cli_eval_metrics_json"] = file_sha(tmp / "eval42" / "metrics.json")
    series = corpus / "loc0_p00_5.csv"
    for smooth in ("mtv+tmf", "tmf", "none"):
        out = tmp / f"infer-{smooth}.csv"
        cli("infer", "--checkpoint", PINNED, "--series", series, "--smooth", smooth, "--out", out)
        keys[f"cli_infer_{smooth}_csv"] = file_sha(out)
        keys[f"cli_infer_{smooth}_svg"] = file_sha(out.with_suffix(".svg"))
    cli("score", "--checkpoint", PINNED, "--series", series, "--out", tmp / "score.json")
    keys["cli_score_json"] = file_sha(tmp / "score.json")
    keys["cli_inspect_stdout"] = hashlib.sha256(cli("inspect", "--checkpoint", PINNED)).hexdigest()
    return keys


def main():
    keys = memory()  # first, so that its peaks see a process that has run nothing else
    eval_input, batches = seeded_inputs()
    keys["pinned_eval_logits"] = eval_logits(eval_input)
    for name, batch in batches.items():
        model = one_step(*batch)
        keys[f"step_{name}_grads"], keys[f"step_{name}_bn_stats"] = grads(model), bn_stats(model)
    for batch in (256, 37, 2):
        for dtype in (np.float32, np.float64):
            tag = f"adam3_b{batch}_{np.dtype(dtype).name}"
            keys[f"{tag}_logits"], keys[f"{tag}_grads"], keys[f"{tag}_bn_stats"] = (
                adam_steps(batch, dtype))
    keys.update(tracks())
    with tempfile.TemporaryDirectory() as tmp:
        keys.update(cli_outputs(Path(tmp)))
    print(json.dumps(keys, indent=1))


if __name__ == "__main__":
    main()
