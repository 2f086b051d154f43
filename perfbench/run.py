"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload {train,score-stride1,screen-stride64}
        --seed N --seconds S --trace {0,1} [--quick]

Run from the root of a washseg checkout; the package is imported from its
``src/`` directory and nothing is installed. ``--trace 0`` reports the
end-to-end metrics listed in ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones, from spans recorded around the program's calls (written to
``perfbench/traces/``). ``--quick`` shrinks every workload to a few seconds
for the smoke test. The full record of a run (metrics, checks, versions,
thread settings, CPU and wall time) goes to ``perfbench/results/``.
"""

import os

# one thread for BLAS and OpenMP, set before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "score-stride1", "screen-stride64")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="washseg benchmark: one workload per process")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="a few seconds per workload")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "washseg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a washseg checkout; {SRC / 'washseg'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    spec = json.loads(spec_path.read_text())
    tracer = Tracer() if args.trace else None
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        out = workloads.RUNNERS[args.workload](args.seed, args.seconds, tracer, args.quick,
                                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out["per_layer"] if args.trace else out["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not out["problems"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace, quick=args.quick,
                  environment=environment(args.seed), problems=out["problems"], info=out["info"],
                  end_to_end=out["metrics"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.dump(HERE / "traces" / f"{tag}.jsonl")

    for problem in out["problems"]:
        print(f"check failed: {problem}")
    print("environment " + json.dumps(record["environment"]))
    print("info " + json.dumps(out["info"]))
    if args.trace:
        print("end-to-end while traced " + json.dumps(out["metrics"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
