"""Classical registration baselines: trimmed ICP and RANSAC + ICP.

Trimmed ICP alternates exact nearest-neighbor correspondence with a
Procrustes solve, discarding the worst fraction of correspondences by
distance each round; the trimmed RMS is non-increasing.  RANSAC matches
hand-crafted local descriptors (distance + normal-angle histograms over
radius neighborhoods) mutually, samples 3-point hypotheses, scores them by
inlier count, and refines the winner with ICP.  Both are deterministic
given their inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from segreg.geometry import PointCloud, RigidTransform
from segreg.kpconv import local_reference_frames
from segreg.matching import MatchSet, weighted_procrustes

__all__ = ["ICPReport", "icp", "ransac_icp", "estimate_normals", "local_descriptors"]


@dataclass
class ICPReport:
    transform: RigidTransform
    iterations_used: int
    final_rms: float
    converged: bool


def icp(source: PointCloud, target: PointCloud,
        init: RigidTransform | None = None, max_iter: int = 100,
        tol: float = 1e-6, trim_fraction: float = 0.1) -> ICPReport:
    """Trimmed point-to-point ICP from ``source`` onto ``target``.

    Stops when the trimmed RMS improves less than ``tol`` or the iteration
    budget runs out.  ``trim_fraction`` = 0 reproduces vanilla ICP.
    """
    if len(source) < 3 or len(target) < 3:
        raise ValueError("ICP needs at least 3 points per cloud")
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError("trim_fraction must lie in [0, 1)")
    T = RigidTransform.identity() if init is None else init
    tree = cKDTree(target.positions)
    src = source.positions
    keep = max(3, int(np.ceil(len(source) * (1.0 - trim_fraction))))
    prev_rms = np.inf
    rms = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        moved = T.apply_points(src)
        dists, nn = tree.query(moved)
        order = np.argsort(dists, kind="stable")[:keep]
        rms = float(np.sqrt(np.mean(dists[order] ** 2)))
        # fixed trim count makes the trimmed RMS provably non-increasing
        assert rms <= prev_rms + 1e-9, "trimmed RMS increased"
        if prev_rms - rms < tol:
            converged = True
            break
        prev_rms = rms
        matches = MatchSet(order, nn[order], np.ones(keep))
        try:
            T = weighted_procrustes(matches, src, target.positions)
        except ValueError:
            return ICPReport(T, it, rms, False)
    return ICPReport(T, it, rms, converged)


def estimate_normals(cloud: PointCloud, k: int = 12) -> np.ndarray:
    """Unoriented unit normals from the smallest local covariance direction."""
    tree = cKDTree(cloud.positions)
    k = min(k, len(cloud))
    _, nn = tree.query(cloud.positions, k=k)
    if k == 1:
        nn = nn[:, None]
    return local_reference_frames(cloud.positions, nn, min_neighbors=0)[:, 2]


def local_descriptors(cloud: PointCloud, radius: float, bins: int = 8,
                      k_normals: int = 12) -> np.ndarray:
    """Distance + normal-angle histogram signatures over radius neighborhoods."""
    normals = estimate_normals(cloud, k_normals)
    tree = cKDTree(cloud.positions)
    neighborhoods = tree.query_ball_point(cloud.positions, radius)
    desc = np.zeros((len(cloud), 2 * bins))
    d_edges = np.linspace(0.0, radius, bins + 1)
    a_edges = np.linspace(0.0, 1.0, bins + 1)
    for i, idx in enumerate(neighborhoods):
        idx = [j for j in idx if j != i]
        if not idx:
            continue
        rel = cloud.positions[idx] - cloud.positions[i]
        d = np.linalg.norm(rel, axis=1)
        hist_d, _ = np.histogram(np.clip(d, 0, radius - 1e-12), bins=d_edges)
        # unoriented normals: use |cos| of the angle between neighbor normals
        cos = np.abs(normals[idx] @ normals[i])
        hist_a, _ = np.histogram(np.clip(cos, 0, 1 - 1e-12), bins=a_edges)
        v = np.concatenate([hist_d, hist_a]).astype(np.float64)
        norm = np.linalg.norm(v)
        if norm > 0:
            desc[i] = v / norm
    return desc


def ransac_icp(source: PointCloud, target: PointCloud, rng: np.random.Generator,
               n_iter: int = 5000, inlier_radius: float = 0.05,
               descriptor_radius: float = 0.15, max_candidates: int = 600
               ) -> ICPReport:
    """Descriptor-matched RANSAC alignment refined by trimmed ICP."""
    if len(source) < 10 or len(target) < 10:
        raise ValueError("RANSAC needs at least 10 points per cloud")
    src_desc = local_descriptors(source, descriptor_radius)
    tgt_desc = local_descriptors(target, descriptor_radius)
    sim = src_desc @ tgt_desc.T
    fwd = np.argmax(sim, axis=1)
    bwd = np.argmax(sim, axis=0)
    mutual = np.flatnonzero(bwd[fwd] == np.arange(len(source)))
    if mutual.size < 3:
        raise ValueError("no mutual descriptor matches between the clouds")
    if mutual.size > max_candidates:
        strength = sim[mutual, fwd[mutual]]
        mutual = mutual[np.argsort(-strength, kind="stable")[:max_candidates]]
    cand_src = source.positions[mutual]
    cand_tgt = target.positions[fwd[mutual]]

    best_T: RigidTransform | None = None
    best_count = -1
    m = mutual.size
    ones3 = np.ones(3)
    for _ in range(n_iter):
        pick = rng.choice(m, size=3, replace=False)
        try:
            T = weighted_procrustes(
                MatchSet(pick, pick, ones3), cand_src, cand_tgt)
        except ValueError:
            continue
        residuals = np.linalg.norm(T.apply_points(cand_src) - cand_tgt, axis=1)
        count = int(np.sum(residuals <= inlier_radius))
        if count > best_count:
            best_count = count
            best_T = T
    if best_T is None:
        raise ValueError("RANSAC found no valid hypothesis")
    report = icp(source, target, init=best_T)
    return ICPReport(report.transform, report.iterations_used,
                     report.final_rms, report.converged)
