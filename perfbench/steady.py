"""Steadiness check: repeat each workload and summarise every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

``--runs 1`` is the one command that runs every workload once and prints
each end-to-end metric by name and unit, with the operations attempted
and failed.

Each run is ``run.py --trace 0`` for every workload in ``BENCHMARK.json``
at its ``run_seconds``, in its own process with its own seed (set k, run r
uses seed 1 + k*runs + r; workloads take turns so drift on the machine
spreads over all of them). For every workload and
metric it prints the median, the quartiles and the spread (Q3 - Q1) /
median next to the bound in ``BENCHMARK.json``, and a suggested bound of
three times the widest spread seen. With two sets it also prints how much
worse the second median is than the first, and whether the share of failed
operations is the same. A summary goes to ``perfbench/results/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)

    results = {(k, w): [] for k in range(args.sets) for w in names}
    for k in range(args.sets):
        for r in range(args.runs):
            for w in names:
                seed = 1 + k * args.runs + r
                res = run_once(w, seed, spec["run_seconds"])
                results[(k, w)].append(res)
                print(f"set {k + 1} {w} seed {seed}: correct {res['correct']}, "
                      f"{res['failed']}/{res['attempted']} failed, {res['wall_s']:.1f} s wall",
                      flush=True)

    summary = {}
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'unit':<10}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'suggest':>9}{'worse':>8}")
        for m in spec["end_to_end"]:
            sets = [summarise([r["metrics"][m["name"]]["value"] for r in results[(k, w)]])
                    for k in range(args.sets)]
            suggest = min(0.25, 3 * max(s["spread"] for s in sets))
            for k, s in enumerate(sets):
                worse = f"{worse_by(sets[0]['median'], s['median'], m['better']):8.3f}" if k else ""
                print(f"  {m['name']:<16}{m['unit']:<10}{k + 1:>4}{s['median']:>14.6g}"
                      f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['spread']:>9.4f}{m['bound']:>7.2f}"
                      f"{suggest:>9.3f}{worse}")
            summary[f"{w}/{m['name']}"] = {"sets": sets, "bound": m["bound"], "suggest": suggest}
        shares = [sum(r["failed"] for r in results[(k, w)])
                  / sum(r["attempted"] for r in results[(k, w)]) for k in range(args.sets)]
        correct = all(r["correct"] for k in range(args.sets) for r in results[(k, w)])
        walls = [r["wall_s"] for k in range(args.sets) for r in results[(k, w)]]
        print(f"  all correct: {correct}; failed share per set: {shares}; "
              f"run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        summary[f"{w}/failed_share"] = shares
        summary[f"{w}/correct"] = correct
        summary[f"{w}/wall_s"] = walls

    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"args": vars(args), "summary": summary}, indent=1) + "\n")
    print(f"\nsummary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
