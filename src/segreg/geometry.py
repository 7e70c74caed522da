"""Point-cloud containers, SE(3) transforms, and exact neighborhood queries.

Coordinates are float64 throughout.  Neighbor queries are exact: one k-d
tree query per table fetches a few more candidates per row than are kept,
and the candidates are re-ranked on exact squared distances.  A row whose
candidate list may have left out a point that belongs in it (a tie shell
cut by the list's end) is recomputed by an exact per-row query.  Ties are
always broken toward the lower support index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "RigidTransform",
    "normalize_unit_sphere",
    "denormalize",
    "random_rigid",
    "voxel_grid_subsample",
    "radius_neighbors",
    "knn",
    "rotation_angle_deg",
]

_ORTHO_TOL = 1e-9
# Extra tree candidates fetched per row beyond the ``k`` that are kept.
_SLACK = 8
# Tree distances and exact distances differ by rounding (~1e-16 relative);
# a candidate list is trusted only when its farthest tree distance clears
# the k-th kept distance by this relative margin.
_TIE_MARGIN = 1e-9


@dataclass
class PointCloud:
    """Positions with optional per-point colors and binary labels."""

    positions: np.ndarray
    colors: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be N x 3, got {self.positions.shape}")
        if self.positions.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        n = self.positions.shape[0]
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64)
            if self.colors.shape != (n, 3):
                raise ValueError("colors must be N x 3")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ValueError("labels must have length N")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class RigidTransform:
    """An SE(3) element: ``x -> R @ x + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        _check_rotation(R)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, cloud: PointCloud) -> PointCloud:
        """Transform positions; colors and labels are carried through."""
        pos = cloud.positions @ self.rotation.T + self.translation
        return PointCloud(pos, colors=cloud.colors, labels=cloud.labels)

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def invert(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


def _check_rotation(R: np.ndarray, tol: float = _ORTHO_TOL) -> None:
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3 x 3, got {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("rotation determinant must be +1")


def rotation_angle_deg(R: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in degrees."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def normalize_unit_sphere(cloud: PointCloud) -> tuple[PointCloud, np.ndarray, float]:
    """Center at the centroid and scale so the farthest point has norm 1.

    Returns the normalized cloud plus (center, scale) for the round trip.
    Rejects degenerate clouds where every point coincides.
    """
    center = cloud.positions.mean(axis=0)
    shifted = cloud.positions - center
    scale = float(np.max(np.linalg.norm(shifted, axis=1)))
    if scale == 0.0:
        raise ValueError("degenerate cloud: all points identical, cannot normalize")
    out = PointCloud(shifted / scale, colors=cloud.colors, labels=cloud.labels)
    return out, center, scale


def denormalize(cloud: PointCloud, center: np.ndarray, scale: float) -> PointCloud:
    return PointCloud(cloud.positions * scale + center,
                      colors=cloud.colors, labels=cloud.labels)


def random_rigid(max_translation: float, max_rotation_deg: float,
                 rng: np.random.Generator) -> RigidTransform:
    """Sample a bounded rigid transform.

    The rotation axis is uniform on the sphere and the angle uniform in
    [0, max_rotation_deg]; the translation is uniform in the ball of radius
    ``max_translation``.
    """
    if max_translation < 0 or max_rotation_deg < 0:
        raise ValueError("bounds must be non-negative")
    axis = rng.normal(size=3)
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 0 else np.array([1.0, 0.0, 0.0])
    angle = np.radians(rng.uniform(0.0, max_rotation_deg))
    R = _axis_angle(axis, angle)
    direction = rng.normal(size=3)
    dnorm = np.linalg.norm(direction)
    direction = direction / dnorm if dnorm > 0 else np.array([1.0, 0.0, 0.0])
    radius = max_translation * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    return RigidTransform(R, radius * direction)


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    ux, uy, uz = axis
    K = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
    # Re-orthonormalize so compose/invert chains stay inside tolerance.
    u, _, vt = np.linalg.svd(R)
    return u @ vt


def voxel_grid_subsample(cloud: PointCloud, voxel_size: float
                         ) -> tuple[PointCloud, np.ndarray]:
    """One centroid per occupied voxel, plus input->output provenance.

    Colors are averaged, labels merged by majority with ties resolved to 1.
    Output voxels are ordered by their (ix, iy, iz) key so results are
    deterministic.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    keys = np.floor(cloud.positions / voxel_size).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    m = first_idx.shape[0]
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    pos = np.zeros((m, 3))
    np.add.at(pos, inverse, cloud.positions)
    pos /= counts[:, None]
    colors = None
    if cloud.colors is not None:
        colors = np.zeros((m, 3))
        np.add.at(colors, inverse, cloud.colors)
        colors /= counts[:, None]
    labels = None
    if cloud.labels is not None:
        ones = np.bincount(inverse, weights=cloud.labels.astype(np.float64),
                           minlength=m)
        labels = (2.0 * ones >= counts).astype(np.int64)
    return PointCloud(pos, colors=colors, labels=labels), inverse


def radius_neighbors(query: PointCloud, support: PointCloud, radius: float,
                     max_neighbors: int) -> np.ndarray:
    """Exact fixed-radius neighbor table, nearest-first, shadow-padded.

    Row i holds the indices of support points with ||s - q_i|| <= radius,
    sorted by (distance, index) and truncated at ``max_neighbors``; unused
    slots hold the shadow index len(support).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_neighbors < 1:
        raise ValueError("max_neighbors must be at least 1")
    ns = len(support)
    q, s = query.positions, support.positions
    tree = cKDTree(s)
    ranked, unsure = _tree_ranked(tree, q, s, max_neighbors, radius)
    table = np.full((len(query), max_neighbors), ns, dtype=np.int64)
    table[:, :ranked.shape[1]] = ranked
    rows = np.flatnonzero(unsure)
    for i, cand in zip(rows, tree.query_ball_point(q[rows], radius + 1e-12)):
        row = _exact_row(q[i], s, np.asarray(cand, dtype=np.int64),
                         max_neighbors, radius * radius)
        table[i] = ns
        table[i, :row.size] = row
    return table


def knn(query: PointCloud, support: PointCloud, k: int) -> np.ndarray:
    """Exact k nearest support indices per query, distance-ascending.

    Ties are broken toward the lower index.  Needs k <= len(support).
    """
    ns = len(support)
    if k > ns:
        raise ValueError(f"k={k} exceeds support size {ns}")
    if k < 1:
        raise ValueError("k must be at least 1")
    q, s = query.positions, support.positions
    out, unsure = _tree_ranked(cKDTree(s), q, s, k)
    every = np.arange(ns)
    for i in np.flatnonzero(unsure):
        out[i] = _exact_row(q[i], s, every, k)
    return out


def _tree_ranked(tree: cKDTree, q: np.ndarray, s: np.ndarray, k: int,
                 radius: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """First k support indices within ``radius`` per row, by exact (d2, index).

    One tree query fetches k + _SLACK candidates per row; they are filtered
    and ranked on exact squared distances.  Returns the (Nq, min(k, kq))
    table, shadow-padded, and a mask of rows that must be recomputed: the
    tree filled the list, and its last candidate does not clearly lie beyond
    the k-th kept one, so a point left out of the list may rank within k.
    """
    ns = s.shape[0]
    kq = min(k + _SLACK, ns)
    dist, idx = tree.query(q, k=kq, distance_upper_bound=radius + 1e-12)
    dist, idx = dist.reshape(-1, kq), idx.reshape(-1, kq)
    found = idx < ns
    diff = s[np.where(found, idx, 0)] - q[:, None, :]
    d2 = np.einsum("qkj,qkj->qk", diff, diff)
    keep = found & (d2 <= radius * radius)
    d2 = np.where(keep, d2, np.inf)
    idx = np.where(keep, idx, ns)
    order = np.lexsort((idx, d2), axis=1)[:, :k]
    ranked = np.take_along_axis(idx, order, axis=1)
    if kq == ns:
        return ranked, np.zeros(q.shape[0], dtype=bool)
    last = np.sqrt(np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0])
    unsure = found[:, -1] & ~(dist[:, -1] > last * (1.0 + _TIE_MARGIN))
    return ranked, unsure


def _exact_row(point: np.ndarray, s: np.ndarray, idx: np.ndarray, k: int,
               r2: float = np.inf) -> np.ndarray:
    """First k of the candidate indices within sqrt(r2), by exact (d2, index)."""
    diff = s[idx] - point
    d2 = np.einsum("ij,ij->i", diff, diff)
    keep = d2 <= r2
    idx, d2 = idx[keep], d2[keep]
    return idx[np.lexsort((idx, d2))[:k]]
