"""Smoke test of the benchmark itself.

The tiny-2bus variant of every workload runs in seconds, passes its
output checks, emits every metric BENCHMARK.json names, and repeats its
counts exactly when run twice with the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("milp.nodes", "milp.simplex_iters", "feeder.bfm_sweeps", "tso.pf_iters",
          "dso_dispatch.stage_builds")


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["dispatch-milp", "stage1-budget", "dispatch-lp"])
def test_smoke_workload(workload):
    timed = run(workload, trace=0)
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    first, second = run(workload, trace=1), run(workload, trace=1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
