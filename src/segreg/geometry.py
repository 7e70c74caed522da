"""Point-cloud containers, SE(3) transforms, and exact neighborhood queries.

Coordinates are float64 throughout.  A radius table pairs one pyramid
level with itself; ``knn`` maps the points of a level onto the next.
Neighbor queries are exact: one k-d tree query per table fetches one more
candidate per row than are kept, and the candidates are re-ranked on exact
squared distances (only rows the tree did not already return in that order
are sorted).  A row whose candidate list may have left out a point that
belongs in it (a tie shell cut by the list's end, which the extra candidate
detects) is recomputed by an exact per-row query.  Ties are always broken
toward the lower index so results are reproducible.
``rotation_defects`` is the one rotation test, for every tolerance and stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from segreg.autodiff import scatter_add_rows

__all__ = [
    "PointCloud",
    "RigidTransform",
    "rotation_defects",
    "random_rigid",
    "voxel_grid_subsample",
    "radius_neighbors",
    "knn",
    "rotation_angle_deg",
]

_ORTHO_TOL = 1e-9
# Extra tree candidates fetched per row beyond the ``k`` that are kept: one
# is enough to tell whether the list's end cut a tie shell.
_SLACK = 1
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
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3 x 3, got {R.shape}")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        not_orthonormal, not_proper = rotation_defects(R)
        if not_orthonormal:
            raise ValueError("rotation is not orthonormal")
        if not_proper:
            raise ValueError("rotation determinant must be +1")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def invert(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


def rotation_defects(R: np.ndarray, tol: float = _ORTHO_TOL
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked (..., 3, 3) matrix: (not max |R^T R - I| <= tol,
    not |det R - 1| <= tol); a non-finite matrix fails both."""
    ortho_err = np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)), axis=(-2, -1))
    with np.errstate(invalid="ignore"):     # the determinant of a NaN matrix
        det_err = np.abs(np.linalg.det(R) - 1.0)
    return ~(ortho_err <= tol), ~(det_err <= tol)


def rotation_angle_deg(R: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in degrees."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


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

    The output holds positions only, as pyramid levels do: the networks
    pool features themselves through the provenance.  Output voxels are
    ordered by their (ix, iy, iz) key so results are deterministic.
    Points are grouped by a stable lexicographic sort of their integer
    (ix, iy, iz) keys, and a new voxel starts wherever the sorted key
    changes: the order and the first-occurrence rule of
    ``np.unique(keys, axis=0)``, at a fraction of its cost.  The three keys
    stay separate, since packing them into one int64 could overflow on
    large extents.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    keys = np.floor(cloud.positions / voxel_size).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ranked = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    m = int(starts.sum())
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    pos = scatter_add_rows(inverse, cloud.positions, m) / counts[:, None]
    return PointCloud(pos), inverse


def radius_neighbors(cloud: PointCloud, radius: float, max_neighbors: int) -> np.ndarray:
    """Exact fixed-radius table of a cloud against itself, shadow-padded.

    Row i holds the indices of points p with ||p - p_i|| <= radius, sorted
    by (distance, index) and truncated at ``max_neighbors``; unused slots
    hold the shadow index len(cloud).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_neighbors < 1:
        raise ValueError("max_neighbors must be at least 1")
    n = len(cloud)
    pts = cloud.positions
    tree = cKDTree(pts)
    ranked, unsure = _tree_ranked(tree, pts, pts, max_neighbors, radius)
    table = np.full((n, max_neighbors), n, dtype=np.int64)
    table[:, :ranked.shape[1]] = ranked
    rows = np.flatnonzero(unsure)
    for i, cand in zip(rows, tree.query_ball_point(pts[rows], radius + 1e-12)):
        row = _exact_row(pts[i], pts, np.asarray(cand, dtype=np.int64),
                         max_neighbors, radius * radius)
        table[i] = n
        table[i, :row.size] = row
    return table


def knn(query: PointCloud, support: PointCloud) -> np.ndarray:
    """Exact nearest support index per query point, (Nq,).

    Ties are broken toward the lower index.
    """
    q, s = query.positions, support.positions
    out, unsure = _tree_ranked(cKDTree(s), q, s, 1)
    every = np.arange(len(support))
    for i in np.flatnonzero(unsure):
        out[i] = _exact_row(q[i], s, every, 1)
    return out[:, 0]


def _tree_ranked(tree: cKDTree, q: np.ndarray, s: np.ndarray, k: int,
                 radius: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """First k support indices within ``radius`` per row, by exact (d2, index).

    One tree query fetches k + _SLACK candidates per row; they are filtered
    and ranked on exact squared distances.  The tree returns most rows
    already in (d2, index) order, so only the others are sorted.  Returns
    the (Nq, min(k, kq)) table, shadow-padded, and a mask of rows that must
    be recomputed: the tree filled the list, and its last candidate does not
    clearly lie beyond the k-th kept one, so a point left out of the list
    may rank within k.
    """
    ns = s.shape[0]
    kq = min(k + _SLACK, ns)
    dist, idx = tree.query(q, k=kq, distance_upper_bound=radius + 1e-12)
    dist, idx = dist.reshape(-1, kq), idx.reshape(-1, kq)
    found = idx < ns
    diff = np.take(s, idx, axis=0, mode="clip")      # a miss (ns) reads row ns - 1
    diff -= q[:, None, :]
    d2 = np.einsum("qkj,qkj->qk", diff, diff)
    keep = found & (d2 <= radius * radius)
    d2 = np.where(keep, d2, np.inf)
    idx = np.where(keep, idx, ns)
    d2_here, d2_next = d2[:, :-1], d2[:, 1:]
    in_order = (d2_here < d2_next) | ((d2_here == d2_next) & (idx[:, :-1] <= idx[:, 1:]))
    rows = np.flatnonzero(~in_order.all(axis=1))
    if rows.size:
        order = np.lexsort((idx[rows], d2[rows]), axis=1)
        idx[rows] = np.take_along_axis(idx[rows], order, axis=1)
        d2[rows] = np.take_along_axis(d2[rows], order, axis=1)
    ranked = idx[:, :k]
    if kq == ns:
        return ranked, np.zeros(q.shape[0], dtype=bool)
    last = np.sqrt(d2[:, ranked.shape[1] - 1])
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
