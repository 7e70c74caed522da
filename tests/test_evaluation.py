"""Evaluation statistics: parity of the Wilcoxon test with scipy, the CLI
starting without scipy.stats, and the ablation's one paired case per sample."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import wilcoxon

import segreg
from segreg.cli import main
from segreg.evaluation import tre, wilcoxon_signed_rank
from segreg.fileio import load_sample, save_pose
from segreg.geometry import random_rigid


def test_wilcoxon_matches_scipy_normal_approximation_with_ties():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(8, 40))
        a = rng.integers(0, 20, size=n).astype(float)
        b = a + rng.integers(-6, 8, size=n)       # small integers: ties and zeros
        n_nonzero = int(np.sum(a != b))
        if n_nonzero < 6:
            continue
        ref = wilcoxon(a, b, method="approx", correction=True)
        p, r = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)
        assert r == pytest.approx(abs(ref.zstatistic) / np.sqrt(n_nonzero), rel=1e-12)
        checked += 1
    assert checked > 250


def test_wilcoxon_statistic_at_its_mean_has_no_effect():
    """W+ = W- = n(n+1)/4: the continuity correction does not push Z off 0."""
    a = np.zeros(6)
    p, r = wilcoxon_signed_rank(a, np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]))
    assert (p, r) == (1.0, 0.0)


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes longer to import than the whole CLI, so only the
    Wilcoxon test loads it."""
    src = str(Path(segreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, segreg.cli; "
             "print([m for m in sys.modules if m.startswith('scipy.stats')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_ablate_pairs_one_median_per_sample(tmp_path):
    """Six samples of six landmarks each are six paired cases, not 36."""
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--n-samples", "6", "--n-vertebrae", "2",
                 "--points-pre", "1024", "--points-intra", "512"]) == 0
    rng = np.random.default_rng(0)
    medians = {"a": [], "b": []}
    for method in medians:
        (tmp_path / method).mkdir()
    for i in range(6):
        sample = load_sample(data / f"sample_{i:04d}")
        for method, size in (("a", 0.01), ("b", 0.03)):
            pose = random_rigid(size, 2.0, rng).compose(sample.T_gt)
            save_pose(pose, tmp_path / method / f"sample_{i:04d}.pose.json")
            medians[method].append(float(np.median(tre(sample.landmarks, pose, sample.T_gt,
                                                       sample.scale)["mm"])))
    out = tmp_path / "ablate"
    assert main(["ablate", "--dataset", str(data), "--out", str(out),
                 "--pred-a", str(tmp_path / "a"), "--pred-b", str(tmp_path / "b")]) == 0
    report = (out / "ablation_report.txt").read_text().splitlines()
    assert "per-sample median" in report[0]
    assert report[1].endswith("(n=6)") and report[2].endswith("(n=6)")
    p, r = wilcoxon_signed_rank(medians["a"], medians["b"])
    assert report[3] == f"Wilcoxon signed-rank: p = {p:.6g}, effect size r = {r:.3f}"
