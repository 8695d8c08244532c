"""Smoke test of the benchmark itself at tiny input sizes.

Runs each workload untraced and traced for a fraction of a second and checks
the result line against BENCHMARK.json; then checks that a checkout path
with config-special characters does not reach the inputs, and that the
benchmark refuses to run where the jetcool sources are missing.
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


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--size", "tiny",
         "--seconds", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_do_not_depend_on_the_checkout_path(tmp_path):
    # jetcool reads '%' in a config value as interpolation
    checkout = tmp_path / "co%1 #x"
    checkout.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(checkout, "--workload", "hotspot", "--seed", "2",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "oneshot", "--seed", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
