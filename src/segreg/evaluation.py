"""Evaluation metrics and statistics: TRE, RMSE, summaries, Wilcoxon test.

Errors are reported both in unit-sphere units and in millimeters via the
per-sample normalization scale.  The Wilcoxon signed-rank test is two-sided
with average ranks for ties, tie-corrected normal-approximation variance,
continuity correction, and effect size r = |Z| / sqrt(n).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segreg.geometry import PointCloud, RigidTransform, rotation_angle_deg

__all__ = [
    "tre",
    "rmse",
    "pose_errors",
    "summarize",
    "wilcoxon_signed_rank",
    "EvalRecord",
    "write_records",
    "format_summary",
]


def units_to_mm(err_units, scale_m_per_unit: float):
    return np.asarray(err_units) * scale_m_per_unit * 1000.0


def tre(landmarks: np.ndarray, T_pred: RigidTransform, T_gt: RigidTransform,
        scale_m_per_unit: float) -> dict:
    """Per-landmark distance between predicted and true placements."""
    moved_pred = T_pred.apply_points(landmarks)
    moved_gt = T_gt.apply_points(landmarks)
    err = np.linalg.norm(moved_pred - moved_gt, axis=1)
    return {"units": err, "mm": units_to_mm(err, scale_m_per_unit)}


def rmse(cloud: PointCloud | np.ndarray, T_pred: RigidTransform,
         T_gt: RigidTransform, scale_m_per_unit: float) -> dict:
    """Root-mean-square displacement of the preoperative points."""
    pts = cloud.positions if isinstance(cloud, PointCloud) else np.asarray(cloud)
    diff = T_pred.apply_points(pts) - T_gt.apply_points(pts)
    val = float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))
    return {"units": val, "mm": float(units_to_mm(val, scale_m_per_unit))}


def pose_errors(T_pred: RigidTransform, T_gt: RigidTransform) -> dict:
    """Rotation angle (degrees) and translation distance between poses."""
    delta = T_pred.compose(T_gt.invert())
    return {
        "rotation_deg": rotation_angle_deg(delta.rotation),
        "translation_units": float(np.linalg.norm(T_pred.translation - T_gt.translation)),
    }


def summarize(errors) -> dict:
    """Median/quartiles (linear interpolation), mean, sd, Tukey outlier rate."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise ValueError("cannot summarize an empty error list")
    q1, med, q3 = np.percentile(e, [25, 50, 75])
    iqr = q3 - q1
    outliers = float(np.mean(e > q3 + 1.5 * iqr))
    return {
        "n": int(e.size),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "mean": float(e.mean()),
        "sd": float(e.std(ddof=1)) if e.size > 1 else 0.0,
        "outlier_rate": outliers,
    }


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; |differences| are ranked with average ranks
    for ties; the test statistic W = min(W+, W-) is compared against the
    tie-corrected normal approximation with continuity correction.  Returns
    (p_value, effect size r = |Z| / sqrt(n)).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be paired 1-D arrays of equal length")
    d = b - a
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValueError("all differences are zero; the test is undefined")
    if n < 6:
        raise ValueError(f"need at least 6 non-zero differences, got {n}")
    ranks = _rankdata_average(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    mean_w = n * (n + 1) / 4.0
    var_w = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: subtract sum(t^3 - t) / 48 over tie groups
    _, counts = np.unique(np.abs(d), return_counts=True)
    var_w -= float(np.sum(counts ** 3 - counts)) / 48.0
    if var_w <= 0:
        raise ValueError("tie-corrected variance is zero; the test is undefined")
    z = (w - mean_w + 0.5) / np.sqrt(var_w)   # continuity-corrected toward the mean
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))   # 2 * Phi(z)
    r = float(abs(z) / np.sqrt(n))
    return p, r


def _rankdata_average(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class EvalRecord:
    sample_id: str
    method: str
    tre_units: list = field(default_factory=list)
    tre_mm: list = field(default_factory=list)
    rmse_units: float = 0.0
    rmse_mm: float = 0.0
    rotation_deg: float = 0.0
    translation_units: float = 0.0
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.rmse_units < 0 or any(v < 0 for v in self.tre_units):
            raise ValueError("errors must be non-negative")


def evaluate_pose(sample_id: str, method: str, sample, T_pred: RigidTransform,
                  wall_time_s: float = 0.0) -> EvalRecord:
    t = tre(sample.landmarks, T_pred, sample.T_gt, sample.scale)
    r = rmse(sample.preoperative, T_pred, sample.T_gt, sample.scale)
    p = pose_errors(T_pred, sample.T_gt)
    return EvalRecord(sample_id, method, list(t["units"]), list(t["mm"]),
                      r["units"], r["mm"], p["rotation_deg"],
                      p["translation_units"], wall_time_s)


def write_records(records: list[EvalRecord], path: str | Path) -> None:
    rows = sorted(records, key=lambda r: (r.sample_id, r.method))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "method", "landmark", "tre_units", "tre_mm",
                    "rmse_units", "rmse_mm", "rotation_deg",
                    "translation_units", "wall_time_s"])
        for r in rows:
            for i, (tu, tm) in enumerate(zip(r.tre_units, r.tre_mm)):
                w.writerow([r.sample_id, r.method, i, repr(tu), repr(tm),
                            repr(r.rmse_units), repr(r.rmse_mm),
                            repr(r.rotation_deg), repr(r.translation_units),
                            repr(r.wall_time_s)])


def format_summary(title: str, stats: dict, unit: str = "mm") -> str:
    return (
        f"{title}: median {stats['median']:.3f} [{stats['q1']:.3f}, "
        f"{stats['q3']:.3f}] {unit}, mean {stats['mean']:.3f} "
        f"(+/-{stats['sd']:.3f}) {unit}, outliers {100 * stats['outlier_rate']:.1f}% "
        f"(n={stats['n']})"
    )
