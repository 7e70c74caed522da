"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced on small phantoms and checks that the
result line names exactly the metrics of BENCHMARK.json; checks that two runs
with the same seed repeat their guards and counts exactly, and that the
benchmark fails without printing a result when the sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the per-workload timings behind op_s and cli_s, and the accuracy guards
DETAILS = {"register": {"register_s", "cli_register_s", "setup_s"},
           "train": {"train_step_s", "cli_train_s", "setup_s"},
           "baselines": {"icp_s", "ransac_icp_s", "cli_icp_s", "setup_s"}}
GUARDS = {"register": set(), "train": {"train_loss"},
          "baselines": {"icp_tre_mm", "ransac_icp_tre_mm"}}


def bench(tmp_path: Path, workload: str, trace: int, run_py: Path = HERE / "run.py"):
    out = tmp_path / f"{workload}-{trace}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    return proc, out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(tmp_path, workload, trace):
    proc, out = bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    record = json.loads(out.read_text())
    assert record["result"] == result
    assert record["provenance"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert set(record["details"]) == DETAILS[workload]
        assert set(record["guards"]) == GUARDS[workload]
        if workload == "register":
            assert set(record["diagnostics"][0]) >= {
                "tre_mm", "n_coarse", "n_fine", "inliers", "path", "mask_mean"}


def test_same_seed_repeats_guards_and_counts(tmp_path):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        proc, out = bench(tmp_path / sub, "train", 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(out.read_text()))
    a, b = (r["result"]["metrics"] for r in runs)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert runs[0]["guards"] == runs[1]["guards"] and runs[0]["guards"]["train_loss"] > 0
    compare = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(tmp_path / "a" / "train-1.jsonl"), str(tmp_path / "b" / "train-1.jsonl")],
        capture_output=True, text=True, timeout=60)
    assert compare.returncode == 0, compare.stdout + compare.stderr
    assert "autodiff.tape_nodes" in compare.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(tmp_path, "register", 0, run_py=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
