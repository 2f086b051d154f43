"""Smoke test of the benchmark: every workload's quick mode runs, passes its
output checks and reports exactly the metrics BENCHMARK.json declares; a
tree without the washseg sources is refused without a result."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode(workload, trace):
    proc = _run(ROOT, workload, trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_refused_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "traces", ".work", "__pycache__"))
    proc = _run(tmp_path, "screen-stride64", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
