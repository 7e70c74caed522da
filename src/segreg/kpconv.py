"""Kernel-point convolution and multi-resolution point pyramids.

The convolution at a query point sums, over its radius neighborhood, each
neighbor's feature vector weighted by a linear-correlation kernel evaluated
at the neighbor's offset: g(y) = sum_k max(0, 1 - |y - p_k| / sigma) W_k.
Shadow neighbors (padding) contribute nothing.  The operation is fused into
a single tape node with a hand-written backward for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segreg.autodiff import Tensor, accumulate_grad, record_custom
from segreg.geometry import PointCloud, knn, radius_neighbors, voxel_grid_subsample

__all__ = [
    "KernelDisposition",
    "kernel_disposition",
    "conv_influence",
    "local_reference_frames",
    "kpconv_apply",
    "kpconv",
    "PointPyramid",
    "SparseCloudError",
    "build_pyramid",
]

SIGMA_RATIO = 1.5  # kernel influence extent = layer radius / SIGMA_RATIO

_DISPOSITION_CACHE: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class KernelDisposition:
    """Kernel point layout inside the unit ball, scaled per layer by callers."""

    points: np.ndarray
    radius: float = 1.0

    def scaled(self, radius: float) -> "KernelDisposition":
        return KernelDisposition(self.points * radius, radius)


def kernel_disposition(k: int, seed: int = 0) -> KernelDisposition:
    """Deterministic repulsion layout of k kernel points in the unit ball.

    One point is pinned at the origin; the others descend 1000 steps on the
    inverse-distance energy sum(1/d_ij) with projection back into the ball.
    Results are cached per (k, seed) and reused bit-identically.
    """
    if k < 1:
        raise ValueError("kernel size must be at least 1")
    key = (k, seed)
    if key not in _DISPOSITION_CACHE:
        _DISPOSITION_CACHE[key] = _repulse(k, seed)
    return KernelDisposition(_DISPOSITION_CACHE[key].copy())


def _repulse(k: int, seed: int, steps: int = 1000, lr: float = 0.01) -> np.ndarray:
    if k == 1:
        return np.zeros((1, 3))
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(k - 1, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = direction * rng.uniform(0.3, 1.0, size=(k - 1, 1)) ** (1.0 / 3.0)
    pts = np.vstack([np.zeros(3), pts])
    for _ in range(steps):
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, 1.0)
        # gradient of sum_{i<j} 1/d_ij w.r.t. point i
        grad = -np.sum(diff / (d2[:, :, None] ** 1.5), axis=1)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        grad = grad / np.maximum(norms, 1.0) * np.minimum(norms, 10.0)
        pts[1:] -= lr * grad[1:]
        r = np.linalg.norm(pts[1:], axis=1, keepdims=True)
        pts[1:] /= np.maximum(r, 1.0)
    return pts


def conv_influence(query: np.ndarray, support: np.ndarray, neighbors: np.ndarray,
                   kernel: KernelDisposition, sigma: float,
                   frames: np.ndarray | None = None) -> np.ndarray:
    """Correlation weights (Nq, K, H) of each kernel point on each neighbor.

    Shadow slots (index == len(support)) get all-zero influence.  With
    ``frames`` (Nq, 3, 3), neighbor offsets are expressed in each query's
    local reference frame before kernel correlation, which makes the
    convolution rotation-invariant.  Stored as float32: influence is frozen
    geometry, and the compact dtype keeps cached tables small; accumulation
    happens in float64.  The squared distances are summed one axis at a
    time directly in the (Nq, K, H) layout.
    """
    ns = support.shape[0]
    valid = neighbors < ns
    safe = np.where(valid, neighbors, 0)
    rel = support[safe] - query[:, None, :]          # (Nq, H, 3)
    if frames is not None:
        rel = np.einsum("qij,qhj->qhi", frames, rel)
    d2 = np.zeros((rel.shape[0], kernel.points.shape[0], rel.shape[1]))
    for j in range(3):
        d2 += (rel[:, None, :, j] - kernel.points[None, :, j, None]) ** 2
    infl = np.maximum(0.0, 1.0 - np.sqrt(d2) / sigma)
    infl *= valid[:, None, :]
    return infl.astype(np.float32)


def local_reference_frames(points: np.ndarray, neighbors: np.ndarray,
                           min_neighbors: int = 3) -> np.ndarray:
    """Deterministic per-point local frames from neighborhood covariance.

    Rows of each 3x3 frame are the covariance eigenvectors ordered largest to
    smallest spread.  The smallest axis (surface normal) is oriented away
    from the local centroid, the largest by third-moment skew, and the middle
    completes a right-handed basis.  Points with fewer than ``min_neighbors``
    real neighbors keep the identity frame.  Frames co-rotate with the cloud,
    so frame-relative offsets are rotation-invariant.
    """
    n = points.shape[0]
    valid = neighbors < n
    safe = np.where(valid, neighbors, 0)
    rel = (points[safe] - points[:, None, :]) * valid[:, :, None]
    counts = valid.sum(axis=1)
    denom = np.maximum(counts, 1)[:, None]
    mean = rel.sum(axis=1) / denom
    centered = (rel - mean[:, None, :]) * valid[:, :, None]
    cov = np.einsum("qhi,qhj->qij", centered, centered) / denom[:, :, None]
    _, vecs = np.linalg.eigh(cov)                    # ascending eigenvalues
    normal = vecs[:, :, 0]
    major = vecs[:, :, 2]
    # orient the normal away from the local centroid (outward for surfaces)
    flip_n = np.einsum("qi,qi->q", normal, mean) > 0
    normal[flip_n] *= -1.0
    # orient the major axis by the sign of the third moment along it
    skew = np.einsum("qhi,qi->qh", rel, major) ** 3
    flip_m = (skew * valid).sum(axis=1) < 0
    major[flip_m] *= -1.0
    middle = np.cross(normal, major)
    frames = np.stack([major, middle, normal], axis=1)
    frames[counts < min_neighbors] = np.eye(3)
    return frames


def kpconv_apply(influence: np.ndarray, neighbors: np.ndarray, ns: int,
                 feats: Tensor, weights: Tensor) -> Tensor:
    """Apply the convolution given precomputed influence weights.

    ``influence`` is (Nq, K, H) from :func:`conv_influence`; ``feats`` is
    (Ns, Cin); ``weights`` is (K, Cin, Cout).  Differentiable in feats and
    weights; the influence table is geometry and carries no gradient.
    """
    nq, k, h = influence.shape
    cin = feats.data.shape[1]
    if weights.data.ndim != 3 or weights.data.shape[:2] != (k, cin):
        raise ValueError(
            f"weights {weights.data.shape} incompatible with kernel size {k} "
            f"and {cin} input channels"
        )
    if feats.data.shape[0] != ns:
        raise ValueError("feats rows must match the support size")
    cout = weights.data.shape[2]
    valid = neighbors < ns
    safe = np.where(valid, neighbors, 0)
    gathered = feats.data[safe] * valid[:, :, None]   # (Nq, H, Cin)
    infl64 = influence.astype(np.float64)
    mixed = np.matmul(infl64, gathered)               # (Nq, K, Cin)
    w_flat = weights.data.reshape(k * cin, cout)
    out = mixed.reshape(nq, k * cin) @ w_flat
    requires = feats.requires_grad or weights.requires_grad

    def bwd(g):
        if weights.requires_grad:
            gw = mixed.reshape(nq, k * cin).T @ g
            accumulate_grad(weights, gw.reshape(k, cin, cout))
        if feats.requires_grad:
            g_mixed = (g @ w_flat.T).reshape(nq, k, cin)
            g_gathered = np.matmul(infl64.transpose(0, 2, 1), g_mixed)
            gf = np.zeros_like(feats.data)
            np.add.at(gf, neighbors[valid], g_gathered[valid])
            accumulate_grad(feats, gf)

    return record_custom(out, requires, bwd)


def kpconv(query: PointCloud, support: PointCloud, feats: Tensor,
           neighbors: np.ndarray, kernel: KernelDisposition,
           weights: Tensor, sigma: float | None = None) -> Tensor:
    """Convenience wrapper computing influence and applying the convolution."""
    if sigma is None:
        sigma = kernel.radius / SIGMA_RATIO
    infl = conv_influence(query.positions, support.positions, neighbors, kernel, sigma)
    return kpconv_apply(infl, neighbors, len(support), feats, weights)


# ---------------------------------------------------------------------------
# point pyramids
# ---------------------------------------------------------------------------

@dataclass
class PointPyramid:
    """Doubling-voxel resolution hierarchy with precomputed index tables.

    ``neighbors[l]`` is the within-level radius table at level l;
    ``pools[l]`` maps level-l points to their level-(l+1) voxel (provenance);
    ``ups[l]`` maps level-l points to their nearest level-(l+1) point (1-NN);
    ``input_to_level0`` maps raw input points onto level 0.
    """

    levels: list[PointCloud]
    voxel_sizes: list[float]
    radii: list[float]
    neighbors: list[np.ndarray]
    pools: list[np.ndarray]
    ups: list[np.ndarray]
    input_to_level0: np.ndarray
    input_cloud: PointCloud

    @property
    def stages(self) -> int:
        return len(self.levels)

    def fine_to_level(self, level: int) -> np.ndarray:
        """Compose pooling provenance: level-0 index -> level-`level` index."""
        assign = np.arange(len(self.levels[0]))
        for l in range(level):
            assign = self.pools[l][assign]
        return assign


class SparseCloudError(ValueError):
    """The input cloud is too sparse for the configured pyramid depth."""


def build_pyramid(cloud: PointCloud, stages: int, initial_voxel: float,
                  base_radius_mult: float, max_neighbors: int = 30,
                  min_points: int = 4) -> PointPyramid:
    """Build the resolution hierarchy used by every convolution network."""
    if stages < 2:
        raise ValueError("a pyramid needs at least 2 stages")
    level0, input_prov = voxel_grid_subsample(cloud, initial_voxel)
    levels = [level0]
    voxels = [initial_voxel]
    pools: list[np.ndarray] = []
    ups: list[np.ndarray] = []
    for l in range(1, stages):
        voxel = initial_voxel * (2.0 ** l)
        nxt, prov = voxel_grid_subsample(levels[-1], voxel)
        if len(nxt) < min_points:
            raise SparseCloudError(
                f"cloud too sparse: level {l} collapsed to {len(nxt)} points "
                f"(minimum {min_points})"
            )
        pools.append(prov)
        ups.append(knn(levels[-1], nxt, 1)[:, 0])
        levels.append(nxt)
        voxels.append(voxel)
    radii = [base_radius_mult * v for v in voxels]
    neighbors = [
        radius_neighbors(lvl, lvl, r, max_neighbors)
        for lvl, r in zip(levels, radii)
    ]
    return PointPyramid(levels, voxels, radii, neighbors, pools, ups,
                        input_prov, cloud)
