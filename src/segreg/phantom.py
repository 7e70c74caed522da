"""Synthetic spine phantoms: analytic vertebra chains, posterior exposure,
soft-tissue clutter, noise, occlusions, and exact ground truth.

A phantom is a chain of superellipsoid vertebral bodies, each carrying a
posterior spinous spike and two lateral transverse spikes; landmarks sit at
the three spike tips.  The preoperative cloud samples the full bone surface.
The intraoperative cloud freshly samples the bone, keeps the posterior
exposed part (half-space plus outward-normal test), thins it by the exposure
fraction, deletes spherical occlusion patches (budgeted under 50% of the
exposed bone), surrounds it with a smooth perturbed soft-tissue sheet, and
adds Gaussian position noise.  Bone points are colored bone-white, tissue
reddish.

Both clouds are normalized jointly (centroid/scale of their union in the
aligned frame) so the ground-truth pose stays exactly rigid; the stored
preoperative cloud is the aligned model moved by the inverse of a random
bounded pose, making T_gt(pre) the exact alignment.  Ground truth is exact
by construction: every downstream metric is an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from segreg.geometry import PointCloud, RigidTransform, random_rigid

__all__ = [
    "PhantomConfig",
    "RegistrationSample",
    "generate_phantom",
    "weak_labels",
    "mm_to_units",
    "OVERLAP_RADIUS",
    "OVERLAP_MIN_FRACTION",
]

OVERLAP_RADIUS = 0.05          # unit-sphere distance for the overlap guarantee
OVERLAP_MIN_FRACTION = 0.30
_MAX_RETRIES = 20

BONE_COLOR = np.array([0.93, 0.89, 0.80])
TISSUE_COLOR = np.array([0.62, 0.19, 0.18])


@dataclass(frozen=True)
class PhantomConfig:
    """Generator knobs; lengths are meters in the world frame."""

    n_vertebrae: int = 5
    points_pre: int = 8192
    points_intra: int = 2048
    exposure_fraction: float = 0.85
    clutter_fraction: float = 0.35
    noise_sigma: float = 0.0008
    occlusion_patches: int = 2
    pose_max_translation: float = 0.1     # unit-sphere units
    pose_max_rotation_deg: float = 45.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.exposure_fraction <= 1.0
                and 0.0 <= self.clutter_fraction <= 1.0):
            raise ValueError("fractions must lie in [0, 1]")
        if self.points_pre < 100 or self.points_intra < 100:
            raise ValueError("point counts must be at least 100")
        if self.n_vertebrae < 1:
            raise ValueError("need at least one vertebra")


@dataclass
class RegistrationSample:
    """One paired preoperative/intraoperative case with exact ground truth."""

    preoperative: PointCloud
    intraoperative: PointCloud
    T_gt: RigidTransform
    landmarks: np.ndarray          # (3 * n_vertebrae, 3), preoperative frame
    gt_mask: np.ndarray            # (N_intra,), 1 = bone
    scale: float                   # meters per unit-sphere unit
    center: np.ndarray             # world centroid removed at normalization
    config: PhantomConfig
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# analytic geometry
# ---------------------------------------------------------------------------

def _superellipsoid_points(rng, n, semi, exponent, center):
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = np.sum(np.abs(u / semi) ** exponent, axis=1) ** (-1.0 / exponent)
    pts = u * t[:, None]
    # outward normal from the implicit-surface gradient
    grad = exponent * np.abs(pts / semi) ** (exponent - 1) * np.sign(pts) / semi
    grad /= np.linalg.norm(grad, axis=1, keepdims=True)
    return pts + center, grad


def _part_area(semi, p=1.6):
    a, b, c = semi
    return 4 * np.pi * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3) ** (1 / p)


@dataclass
class _SpineParts:
    parts: list[tuple[np.ndarray, np.ndarray, float]]   # (center, semi, exponent)
    landmarks: np.ndarray
    plane_y: float


def _spine_layout(cfg: PhantomConfig, rng: np.random.Generator) -> _SpineParts:
    n = cfg.n_vertebrae
    spacing = 0.036
    parts = []
    landmarks = []
    centers_y = []
    for k in range(n):
        z = (k - (n - 1) / 2.0) * spacing
        lordosis = 0.008 * np.sin(np.pi * (k / max(n - 1, 1)))
        c = np.array([0.0, lordosis, z]) + rng.normal(scale=0.0012, size=3)
        centers_y.append(c[1])
        body = c, np.array([0.023, 0.016, 0.0145]) * rng.uniform(0.9, 1.1, 3), 2.6
        parts.append(body)
        b_semi = body[1]
        # spinous process: posterior spike
        ls = 0.030 * rng.uniform(0.85, 1.15)
        sp_center = c + np.array([0.0, b_semi[1] * 0.75 + ls / 2, 0.0])
        parts.append((sp_center, np.array([0.005, ls / 2, 0.0045]), 2.0))
        landmarks.append(sp_center + np.array([0.0, ls / 2, 0.0]))
        # transverse processes: lateral spikes
        lt = 0.024 * rng.uniform(0.85, 1.15)
        for side in (-1.0, 1.0):
            tp_center = c + np.array([side * (b_semi[0] * 0.75 + lt / 2),
                                      b_semi[1] * 0.30, 0.0])
            parts.append((tp_center, np.array([lt / 2, 0.0045, 0.004]), 2.0))
            landmarks.append(tp_center + np.array([side * lt / 2, 0.0, 0.0]))
    return _SpineParts(parts, np.asarray(landmarks), float(np.mean(centers_y)))


def _sample_bone(layout: _SpineParts, n_points: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    areas = np.array([_part_area(semi) for _, semi, _ in layout.parts])
    counts = np.maximum(1, np.round(n_points * areas / areas.sum()).astype(int))
    pts, nrm = [], []
    for (center, semi, p), c in zip(layout.parts, counts):
        a, g = _superellipsoid_points(rng, c, semi, p, center)
        pts.append(a)
        nrm.append(g)
    pts = np.vstack(pts)
    nrm = np.vstack(nrm)
    if pts.shape[0] > n_points:
        pick = rng.choice(pts.shape[0], size=n_points, replace=False)
        pts, nrm = pts[pick], nrm[pick]
    return pts, nrm


def _tissue_sheet(layout: _SpineParts, bone: np.ndarray, n_points: int,
                  rng: np.random.Generator) -> np.ndarray:
    if n_points == 0:
        return np.zeros((0, 3))
    x_max = np.abs(bone[:, 0]).max() * 1.5
    z_lo, z_hi = bone[:, 2].min() - 0.02, bone[:, 2].max() + 0.02
    hole = np.abs(bone[:, 0]).max() * rng.uniform(0.55, 0.75)
    base_y = layout.plane_y + 0.012
    waves = [(rng.uniform(0.003, 0.008), rng.normal(size=2) * 30, rng.uniform(0, 2 * np.pi))
             for _ in range(4)]
    pts = np.zeros((n_points, 3))
    count = 0
    while count < n_points:
        m = (n_points - count) * 2
        x = rng.uniform(-x_max, x_max, size=m)
        z = rng.uniform(z_lo, z_hi, size=m)
        keep = np.abs(x) > hole
        x, z = x[keep], z[keep]
        y = np.full(x.shape, base_y)
        for amp, freq, phase in waves:
            y = y + amp * np.sin(freq[0] * x + freq[1] * z + phase)
        take = min(x.size, n_points - count)
        pts[count: count + take] = np.stack([x[:take], y[:take], z[:take]], axis=1)
        count += take
    return pts


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_phantom(cfg: PhantomConfig) -> RegistrationSample:
    """Generate one registration sample; deterministic per config/seed.

    Regenerates with the next sub-seed (bounded retries) if the overlap
    guarantee fails after occlusion.
    """
    last_error = None
    for attempt in range(_MAX_RETRIES):
        sample = _generate_once(cfg, attempt)
        if sample is not None:
            sample.meta["attempt"] = attempt
            return sample
        last_error = f"overlap guarantee failed (attempt {attempt})"
    raise RuntimeError(f"phantom generation failed after {_MAX_RETRIES} tries: {last_error}")


def _generate_once(cfg: PhantomConfig, attempt: int) -> RegistrationSample | None:
    rng = np.random.default_rng([cfg.seed, attempt])
    layout = _spine_layout(cfg, rng)

    pre_pts, _ = _sample_bone(layout, cfg.points_pre, rng)

    n_clutter = int(round(cfg.clutter_fraction * cfg.points_intra))
    n_bone_target = cfg.points_intra - n_clutter
    raw_pts, raw_nrm = _sample_bone(layout, 3 * n_bone_target, rng)

    visible = (raw_nrm[:, 1] > 0.12) & (raw_pts[:, 1] > layout.plane_y)
    exposed = np.flatnonzero(visible)
    if cfg.exposure_fraction < 1.0 and exposed.size:
        keep_n = int(round(exposed.size * cfg.exposure_fraction))
        exposed = rng.choice(exposed, size=keep_n, replace=False)
        exposed.sort()
    exposed_pts = raw_pts[exposed]
    n_exposed = exposed_pts.shape[0]
    if n_exposed < 50:
        return None

    # spherical occlusions, deleting under half of the exposed bone
    removed = np.zeros(n_exposed, dtype=bool)
    for _ in range(cfg.occlusion_patches):
        for _try in range(5):
            center = exposed_pts[rng.integers(0, n_exposed)]
            radius = rng.uniform(0.008, 0.018)
            hit = np.linalg.norm(exposed_pts - center, axis=1) <= radius
            if (removed | hit).sum() < 0.5 * n_exposed:
                removed |= hit
                break
    occlusion_fraction = float(removed.mean())
    bone_pts = exposed_pts[~removed]
    if bone_pts.shape[0] > n_bone_target:
        pick = rng.choice(bone_pts.shape[0], size=n_bone_target, replace=False)
        pick.sort()
        bone_pts = bone_pts[pick]

    tissue_pts = _tissue_sheet(layout, raw_pts, n_clutter, rng)
    intra_pts = np.vstack([bone_pts, tissue_pts])
    if cfg.noise_sigma > 0:
        intra_pts = intra_pts + rng.normal(scale=cfg.noise_sigma, size=intra_pts.shape)
    gt_mask = np.concatenate([np.ones(bone_pts.shape[0], dtype=np.int64),
                              np.zeros(tissue_pts.shape[0], dtype=np.int64)])

    colors = np.empty((intra_pts.shape[0], 3))
    colors[gt_mask == 1] = BONE_COLOR
    colors[gt_mask == 0] = TISSUE_COLOR
    colors = np.clip(colors + rng.normal(scale=0.035, size=colors.shape), 0.0, 1.0)

    # joint normalization keeps the ground-truth pose exactly rigid
    union = np.vstack([pre_pts, intra_pts])
    center = union.mean(axis=0)
    scale = float(np.max(np.linalg.norm(union - center, axis=1)))
    pre_aligned = (pre_pts - center) / scale
    intra_n = (intra_pts - center) / scale
    landmarks_aligned = (layout.landmarks - center) / scale

    T_gt = random_rigid(cfg.pose_max_translation, cfg.pose_max_rotation_deg, rng)
    T_inv = T_gt.invert()
    pre_stored = T_inv.apply_points(pre_aligned)
    landmarks_stored = T_inv.apply_points(landmarks_aligned)

    # overlap guarantee, measured post hoc against intraoperative bone
    bone_n = intra_n[gt_mask == 1]
    tree = cKDTree(bone_n)
    d, _ = tree.query(pre_aligned)
    overlap = float(np.mean(d <= OVERLAP_RADIUS))
    if overlap < OVERLAP_MIN_FRACTION:
        return None

    pre_cloud = PointCloud(pre_stored)
    intra_cloud = PointCloud(intra_n, colors=colors, labels=gt_mask.copy())
    return RegistrationSample(
        preoperative=pre_cloud,
        intraoperative=intra_cloud,
        T_gt=T_gt,
        landmarks=landmarks_stored,
        gt_mask=gt_mask,
        scale=scale,
        center=center,
        config=cfg,
        meta={
            "overlap_fraction": overlap,
            "occlusion_removed_fraction": occlusion_fraction,
            "n_bone": int(bone_pts.shape[0]),
            "n_tissue": int(tissue_pts.shape[0]),
        },
    )


# ---------------------------------------------------------------------------
# weak labels
# ---------------------------------------------------------------------------

def mm_to_units(mm: float, scale_m_per_unit: float) -> float:
    """Convert millimeters to unit-sphere units given the stored scale."""
    return mm / 1000.0 / scale_m_per_unit


def weak_labels(intra: PointCloud, pre_bone: PointCloud, T_approx: RigidTransform,
                threshold: float) -> np.ndarray:
    """Label 1 where an intraoperative point lies within ``threshold`` of the
    nearest pose-aligned preoperative bone point."""
    moved = T_approx.apply_points(pre_bone.positions)
    tree = cKDTree(moved)
    d, _ = tree.query(intra.positions)
    return (d <= threshold).astype(np.int64)
