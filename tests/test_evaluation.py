"""Evaluation statistics: the summary's quartiles, sd and outlier fence, RMSE
and pose errors of known poses, one record row per landmark, parity of the
Wilcoxon test with scipy, the CLI starting without scipy.stats, and the
ablation's one paired case per sample."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation
from scipy.stats import wilcoxon

import segreg
from segreg.cli import main
from segreg.evaluation import (
    EvalRecord,
    pose_errors,
    rmse,
    summarize,
    tre,
    wilcoxon_signed_rank,
    write_records,
)
from segreg.fileio import load_sample, save_pose
from segreg.geometry import PointCloud, RigidTransform, random_rigid


def test_summarize_quartiles_sd_and_an_upper_only_outlier_fence():
    """Quartiles interpolate linearly; 50 lies above Q3 + 1.5 IQR and counts,
    -40 lies as far below Q1 - 1.5 IQR and does not."""
    errors = [3.0, -40.0, 2.0, 50.0, 1.0, 4.0, 2.5]
    stats = summarize(errors)
    q1, median, q3 = np.percentile(errors, [25, 50, 75])
    assert (stats["q1"], stats["median"], stats["q3"]) == (q1, median, q3) == (1.5, 2.5, 3.5)
    assert stats["mean"] == np.mean(errors)
    assert stats["sd"] == np.std(errors, ddof=1)
    assert stats["n"] == 7
    assert stats["outlier_rate"] == 1 / 7


def test_summarize_one_error_has_zero_sd_and_no_outliers():
    stats = summarize([2.0])
    assert stats == {"n": 1, "median": 2.0, "q1": 2.0, "q3": 2.0, "mean": 2.0,
                     "sd": 0.0, "outlier_rate": 0.0}


def test_summarize_rejects_an_empty_list():
    with pytest.raises(ValueError, match="empty"):
        summarize([])


def test_rmse_of_a_pure_translation_is_its_length():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(50, 3)))
    T_gt = random_rigid(0.3, 40.0, rng)
    shift = np.array([0.03, -0.04, 0.12])          # length 0.13
    T_pred = RigidTransform(np.eye(3), shift).compose(T_gt)
    got = rmse(cloud, T_pred, T_gt, scale_m_per_unit=0.08)
    assert got["units"] == pytest.approx(0.13, rel=1e-12)
    assert got["mm"] == pytest.approx(0.13 * 0.08 * 1000.0, rel=1e-12)


def test_pose_errors_of_a_known_axis_angle_rotation():
    rng = np.random.default_rng(1)
    T_gt = random_rigid(0.3, 40.0, rng)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    turn = RigidTransform(Rotation.from_rotvec(np.deg2rad(30.0) * axis).as_matrix(),
                          np.array([0.0, 0.05, 0.0]))
    T_pred = turn.compose(T_gt)
    got = pose_errors(T_pred, T_gt)
    assert got["rotation_deg"] == pytest.approx(30.0, rel=1e-9)
    assert got["translation_units"] == pytest.approx(
        np.linalg.norm(T_pred.translation - T_gt.translation), rel=1e-12)


def test_write_records_writes_one_row_per_landmark_sorted_by_sample_and_method(tmp_path):
    records = [EvalRecord("s1", "icp", [0.1], [1.0], 0.2, 2.0, 3.0, 0.4, 5.0),
               EvalRecord("s0", "model", [0.3, 0.5], [3.0, 5.0]),
               EvalRecord("s0", "icp", [0.7, 0.9, 1.1], [7.0, 9.0, 11.0])]
    write_records(records, tmp_path / "records.csv")
    with open(tmp_path / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["sample_id"], r["method"], r["landmark"]) for r in rows] == [
        ("s0", "icp", "0"), ("s0", "icp", "1"), ("s0", "icp", "2"),
        ("s0", "model", "0"), ("s0", "model", "1"), ("s1", "icp", "0")]
    assert [float(r["tre_mm"]) for r in rows] == [7.0, 9.0, 11.0, 3.0, 5.0, 1.0]
    assert [float(rows[-1][k]) for k in ("tre_units", "rmse_units", "rmse_mm", "rotation_deg",
                                         "translation_units", "wall_time_s")] == [
        0.1, 0.2, 2.0, 3.0, 0.4, 5.0]


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
