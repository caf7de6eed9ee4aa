"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs to its end with tracing off and on; its checks pass, it
prints every metric that BENCHMARK.json names, and the traced run sees spans
from every layer the workload is meant to exercise.  Without ``src/stochlp``
the benchmark must fail fast and print no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be non-zero on each workload's traced run.
LAYERS = {
    "farmer-multicut": [
        "kernel.lp_calls", "kernel.lp_s", "kernel.lp_pivots", "lshaped.iterations",
        "lshaped.master_solves", "lshaped.master_s", "lshaped.master_self_s",
        "lshaped.master_pivots", "lshaped.master_rows", "lshaped.subproblem_solves",
        "lshaped.subproblem_s", "lshaped.subproblem_self_s", "lshaped.cut_s",
        "execution.waves", "execution.wave_s", "serialize.load_s"],
    "farmer-partial-sync2": [
        "kernel.lp_calls", "kernel.lp_pivots", "lshaped.iterations", "lshaped.master_s",
        "lshaped.subproblem_solves", "lshaped.subproblem_s", "lshaped.subproblem_self_s",
        "lshaped.subproblem_pivots", "lshaped.cut_s", "execution.waves",
        "execution.wave_s", "execution.worker_busy_s", "execution.parallel_efficiency",
        "smps.read_s"],
    "farmer-ph": [
        "kernel.qp_calls", "kernel.qp_s", "kernel.qp_ipm_iterations", "kernel.lp_calls",
        "phedging.iterations", "phedging.subproblem_s", "phedging.subproblem_self_s",
        "phedging.final_eval_s", "serialize.load_s"],
    "simple-saa": [
        "kernel.lp_calls", "kernel.lp_s", "model.dep_builds", "model.dep_build_s",
        "sampling.draws", "sampling.draw_s", "sampling.eval_s", "analysis.ews_s",
        "analysis.ev_s"],
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_workload_has_layers():
    assert sorted(LAYERS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(LAYERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for name in LAYERS[workload]:
            assert result["metrics"][name]["value"] > 0, name
        detail = json.loads((BENCH / "results" / f"{workload}-seed3-trace1.json").read_text())
        assert 0.95 <= detail["self_time_sum_over_solve_wall"] <= 1.05
    else:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = run(["--workload", "farmer-multicut", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
