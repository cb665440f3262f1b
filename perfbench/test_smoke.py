"""Smoke test of the benchmark harness at a tiny size (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Checks the result line against BENCHMARK.json, the predicted zero counts of
the traced run, and that the harness refuses to run without the source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result(workload: str, trace: int) -> dict:
    code, lines = bench(ROOT, workload, trace)
    assert code == 0, lines
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    return {k: v["value"] for k, v in out["metrics"].items()}


def test_end_to_end_metrics():
    metrics = result("exact_contraction", 0)
    assert all(v > 0 for v in metrics.values())


def test_traced_exact_contraction_skips_criteria_and_dense_operators():
    metrics = result("exact_contraction", 1)
    assert metrics["exact.sign_minus_exp_calls"] > 0
    assert metrics["criteria.delta_pairs"] == 0
    assert metrics["operators.dense_entries"] == 0


def test_traced_cli_sweep_makes_no_exact_predicate_calls():
    metrics = result("cli_sweep", 1)
    assert metrics["exact.sign_minus_exp_calls"] == 0
    assert metrics["criteria.delta_pairs"] > 0
    assert metrics["operators.dense_entries"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(tmp_path, "exact_contraction", 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
