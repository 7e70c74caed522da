"""Coarse-to-fine correspondence matching and transform estimation.

Superpoints (bottleneck points of the registration pyramid) carry learned
features and a patch of fine-level member points.  Coarse matching scores
superpoint pairs by normalized feature similarity plus a rotation-invariant
pairwise-distance-histogram bonus, selected through a dual softmax.  Fine
matching scores patch-to-patch descriptor similarity with a slack row and
column, normalized by alternating column/row renormalizations of the
exponentiated scores, and keeps mutual top-1 entries.  A weighted Procrustes
solve plus inlier re-weighting turns the surviving matches into a rigid
transform.

Training losses: an overlap-weighted circle loss over superpoint feature
distances (margins 0.1 / 1.4) and a negative log-likelihood over the
normalized patch score matrices; the dual loss is their plain sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import PointCloud, RigidTransform
from segreg.kpconv import PointPyramid

__all__ = [
    "MatchSet",
    "DualLoss",
    "PatchedSuperpoints",
    "NoPositivePairsError",
    "build_patches",
    "distance_histograms",
    "superpoint_overlap_labels",
    "coarse_match",
    "fine_match",
    "normalize_scores_with_slack",
    "weighted_procrustes",
    "refine_transform",
    "RefineResult",
    "l2_normalize_rows",
    "coarse_loss",
    "fine_loss",
    "ground_truth_patch_matches",
]


class NoPositivePairsError(ValueError):
    """Raised when a training pair has no positive superpoint overlap."""


@dataclass
class MatchSet:
    """Weighted point correspondences between two clouds."""

    pre_indices: np.ndarray
    intra_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.pre_indices = np.asarray(self.pre_indices, dtype=np.int64)
        self.intra_indices = np.asarray(self.intra_indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (len(self.pre_indices) == len(self.intra_indices) == len(self.weights)):
            raise ValueError("match arrays must have equal length")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.weights)


@dataclass
class DualLoss:
    total: Tensor
    coarse: Tensor
    fine: Tensor


@dataclass
class PatchedSuperpoints:
    """Superpoint positions plus their truncated fine-level patches."""

    points: np.ndarray                    # (M, 3)
    patch_indices: list[np.ndarray]       # level-0 indices per superpoint
    fine_points: np.ndarray               # (N0, 3) level-0 positions
    fine_to_sp: np.ndarray                # (N0,) superpoint id or -1 if truncated


def build_patches(pyramid: PointPyramid, patch_size: int = 32) -> PatchedSuperpoints:
    """Group level-0 points under their superpoint, keep the nearest patch_size."""
    coarse = pyramid.levels[-1].positions
    fine = pyramid.levels[0].positions
    assign = pyramid.fine_to_level(pyramid.stages - 1)
    m = coarse.shape[0]
    fine_to_sp = np.full(fine.shape[0], -1, dtype=np.int64)
    patches: list[np.ndarray] = []
    for b in range(m):
        members = np.flatnonzero(assign == b)
        if members.size > patch_size:
            d = np.linalg.norm(fine[members] - coarse[b], axis=1)
            members = members[np.argsort(d, kind="stable")[:patch_size]]
        patches.append(members)
        fine_to_sp[members] = b
    return PatchedSuperpoints(coarse, patches, fine, fine_to_sp)


def distance_histograms(view: PatchedSuperpoints, bins: int = 12,
                        max_dist: float = 0.3) -> np.ndarray:
    """Rotation-invariant patch signatures: L2-normalized histograms of
    pairwise point distances inside each patch."""
    out = np.zeros((view.points.shape[0], bins))
    edges = np.linspace(0.0, max_dist, bins + 1)
    for b, idx in enumerate(view.patch_indices):
        pts = view.fine_points[idx]
        if pts.shape[0] < 2:
            continue
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        iu = np.triu_indices(pts.shape[0], k=1)
        hist, _ = np.histogram(np.clip(d[iu], 0.0, max_dist - 1e-12), bins=edges)
        norm = np.linalg.norm(hist)
        if norm > 0:
            out[b] = hist / norm
    return out


def superpoint_overlap_labels(pre: PatchedSuperpoints, intra: PatchedSuperpoints,
                              T_gt: RigidTransform, patch_radius: float) -> np.ndarray:
    """Overlap matrix: entry (a, b) is the fraction of pre-patch a's points
    that land within ``patch_radius`` of intra-patch b after the true pose."""
    tree = cKDTree(intra.fine_points)
    mp, mi = pre.points.shape[0], intra.points.shape[0]
    overlap = np.zeros((mp, mi))
    for a, idx in enumerate(pre.patch_indices):
        if idx.size == 0:
            continue
        pts = T_gt.apply_points(pre.fine_points[idx])
        hits = tree.query_ball_point(pts, patch_radius)
        for point_hits in hits:
            if not point_hits:
                continue
            sps = intra.fine_to_sp[point_hits]
            sps = np.unique(sps[sps >= 0])
            overlap[a, sps] += 1.0
        overlap[a] /= idx.size
    return overlap


def coarse_match(pre_feats: np.ndarray, intra_feats: np.ndarray, k_corr: int,
                 geom_bonus: np.ndarray | None = None,
                 bonus_weight: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """Select top superpoint pairs by dual-softmax score.

    Features must carry L2-normalized rows.  The similarity is the feature
    inner product plus ``bonus_weight`` times the geometric-consistency bonus;
    the dual softmax is the entrywise product of row-wise and column-wise
    softmaxes.  Returns (pairs (k, 2), scores (k,)), score-descending with
    ties resolved in row-major cell order.
    """
    sim = pre_feats @ intra_feats.T
    if geom_bonus is not None:
        sim = sim + bonus_weight * geom_bonus
    sim = Tensor(sim)
    score = ad.softmax(sim, axis=1).data * ad.softmax(sim, axis=0).data
    k = min(k_corr, score.size)
    order = np.argsort(-score.reshape(-1), kind="stable")[:k]
    pairs = np.stack(np.unravel_index(order, score.shape), axis=1)
    return pairs, score.reshape(-1)[order]


def normalize_scores_with_slack(scores: Tensor, iterations: int = 5,
                                augment_slack: bool = False) -> Tensor:
    """Normalize a patch score matrix that already includes slack row/column.

    Exponentiates the scores and alternates column- and row-renormalization,
    ending on rows, so every real row is a distribution over targets plus
    slack.  With ``augment_slack`` the slack row/column are normalized to the
    opposite side's point count instead of 1, letting slack absorb any number
    of unmatched points (used at inference; the training loss keeps unit
    marginals so its uniform-matrix baseline is exactly log(columns)).
    """
    nr, nc = scores.shape
    row_target = np.ones((nr, 1))
    col_target = np.ones((1, nc))
    if augment_slack:
        row_target[-1, 0] = nc - 1
        col_target[0, -1] = nr - 1
    p = ad.exp(ad.sub(scores, float(np.max(scores.data))))
    for _ in range(iterations):
        csum = ad.sum_(p, axis=0, keepdims=True)
        p = ad.mul(p, ad.expand(ad.div(Tensor(col_target), csum), p.shape))
        rsum = ad.sum_(p, axis=1, keepdims=True)
        p = ad.mul(p, ad.expand(ad.div(Tensor(row_target), rsum), p.shape))
    return p


def fine_match(dense_pre: np.ndarray, dense_intra: np.ndarray,
               coarse_pairs: np.ndarray, pre_view: PatchedSuperpoints,
               intra_view: PatchedSuperpoints,
               norm_iterations: int = 5) -> MatchSet:
    """Refine coarse pairs into weighted point correspondences.

    Per coarse pair, scores patch descriptors against each other (scaled
    inner product), adds a slack row/column, normalizes, and keeps mutual
    top-1 non-slack entries weighted by their normalized score.  An entry
    must also beat both of its slack competitors, so diffuse score matrices
    yield few or no correspondences.
    """
    scale = 1.0 / np.sqrt(dense_pre.shape[1])
    best: dict[tuple[int, int], float] = {}
    for a, b in coarse_pairs:
        ia = pre_view.patch_indices[a]
        ib = intra_view.patch_indices[b]
        if ia.size == 0 or ib.size == 0:
            continue
        s = scale * (dense_pre[ia] @ dense_intra[ib].T)
        padded = np.zeros((ia.size + 1, ib.size + 1))
        padded[: ia.size, : ib.size] = s
        p = normalize_scores_with_slack(Tensor(padded), norm_iterations,
                                        augment_slack=True).data
        core = p[: ia.size, : ib.size]
        row_best = np.argmax(p[: ia.size], axis=1)
        col_best = np.argmax(p[:, : ib.size], axis=0)
        for i in range(ia.size):
            j = row_best[i]
            if j >= ib.size:          # row prefers slack
                continue
            if col_best[j] != i:      # not mutual
                continue
            if core[i, j] <= p[i, ib.size] or core[i, j] <= p[ia.size, j]:
                continue              # slack absorbs the non-match
            key = (int(ia[i]), int(ib[j]))
            w = float(core[i, j])
            if w > best.get(key, -1.0):
                best[key] = w
    if not best:
        return MatchSet(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    keys = sorted(best)
    pre_idx = np.array([k[0] for k in keys], dtype=np.int64)
    intra_idx = np.array([k[1] for k in keys], dtype=np.int64)
    weights = np.array([best[k] for k in keys])
    return MatchSet(pre_idx, intra_idx, weights)


# ---------------------------------------------------------------------------
# transform estimation
# ---------------------------------------------------------------------------

def weighted_procrustes(matches: MatchSet, pre: PointCloud | np.ndarray,
                        intra: PointCloud | np.ndarray) -> RigidTransform:
    """Closed-form weighted least-squares rigid fit of matched points.

    Minimizes sum_i w_i |R p_i + t - q_i|^2 via the SVD of the weighted
    cross-covariance, with the determinant corrected to +1.
    """
    p_all = pre.positions if isinstance(pre, PointCloud) else np.asarray(pre, dtype=np.float64)
    q_all = intra.positions if isinstance(intra, PointCloud) else np.asarray(intra, dtype=np.float64)
    if len(matches) < 3:
        raise ValueError(f"need at least 3 matches, got {len(matches)}")
    w = matches.weights
    total = w.sum()
    if total <= 0:
        raise ValueError("total match weight must be positive")
    p = p_all[matches.pre_indices]
    q = q_all[matches.intra_indices]
    wn = (w / total)[:, None]
    p_bar = (wn * p).sum(axis=0)
    q_bar = (wn * q).sum(axis=0)
    H = (wn * (p - p_bar)).T @ (q - q_bar)
    u, s, vt = np.linalg.svd(H)
    if s[0] <= 0 or s[1] / s[0] < 1e-9:
        raise ValueError(
            "rank-deficient match covariance (collinear correspondences); "
            f"singular values {s}"
        )
    d = np.sign(np.linalg.det(vt.T @ u.T))
    R = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = q_bar - R @ p_bar
    return RigidTransform(R, t)


@dataclass
class RefineResult:
    transform: RigidTransform
    inlier_count: int
    flagged: bool


def refine_transform(T0: RigidTransform, matches: MatchSet,
                     pre: PointCloud | np.ndarray, intra: PointCloud | np.ndarray,
                     iterations: int = 5, inlier_radius: float = 0.0625
                     ) -> RefineResult:
    """Iteratively re-weight matches by residual and re-solve Procrustes.

    Matches beyond the working radius get weight zero each round; the radius
    starts at the 70th-percentile residual and anneals down to
    ``inlier_radius`` so a badly skewed initial fit can still shed gross
    outliers.  The iterate with the highest inlier count (measured at
    ``inlier_radius``) wins; if every match is pruned the input transform
    comes back flagged.
    """
    p_all = pre.positions if isinstance(pre, PointCloud) else np.asarray(pre, dtype=np.float64)
    q_all = intra.positions if isinstance(intra, PointCloud) else np.asarray(intra, dtype=np.float64)
    p = p_all[matches.pre_indices]
    q = q_all[matches.intra_indices]
    best = RefineResult(T0, -1, False)
    T = T0
    working = None
    for it in range(iterations):
        residuals = np.linalg.norm(T.apply_points(p) - q, axis=1)
        count = int(np.sum(residuals <= inlier_radius))
        if count > best.inlier_count:
            best = RefineResult(T, count, False)
        if working is None:
            working = max(inlier_radius, float(np.quantile(residuals, 0.7)))
        else:
            working = max(inlier_radius, 0.5 * working)
        keep = residuals <= working
        if keep.sum() < 3:
            break
        trimmed = MatchSet(matches.pre_indices[keep],
                           matches.intra_indices[keep],
                           matches.weights[keep])
        try:
            T = weighted_procrustes(trimmed, p_all, q_all)
        except ValueError:
            break
    residuals = np.linalg.norm(T.apply_points(p) - q, axis=1)
    count = int(np.sum(residuals <= inlier_radius))
    if count > best.inlier_count:
        best = RefineResult(T, count, False)
    if best.inlier_count <= 0:
        return RefineResult(T0, 0, True)
    return best


# ---------------------------------------------------------------------------
# training losses
# ---------------------------------------------------------------------------

def l2_normalize_rows(t: Tensor, eps: float = 1e-12) -> Tensor:
    sq = ad.sum_(ad.mul(t, t), axis=1, keepdims=True)
    norm = ad.sqrt(ad.add(sq, eps))
    return ad.div(t, ad.expand(norm, t.shape))


def coarse_loss(pre_feats: Tensor, intra_feats: Tensor, overlap: np.ndarray,
                pos_margin: float = 0.1, neg_margin: float = 1.4,
                pos_threshold: float = 0.1, log_scale: float = 24.0) -> Tensor:
    """Overlap-weighted circle loss over superpoint feature distances.

    Positives (overlap > threshold) are pulled inside ``pos_margin`` with
    sqrt-overlap weighting; negatives (overlap == 0) are pushed beyond
    ``neg_margin``.  Feature rows must be L2-normalized.
    """
    pos_mask = overlap > pos_threshold
    neg_mask = overlap == 0.0
    if not pos_mask.any():
        raise NoPositivePairsError("no positive superpoint pairs in this sample")

    sim = ad.matmul(pre_feats, ad.transpose2d(intra_feats))
    d2 = ad.add(ad.mul(sim, -2.0), 2.0)
    dists = ad.sqrt(ad.add(ad.relu(d2), 1e-12))

    lam = np.sqrt(np.where(pos_mask, overlap, 0.0))
    pos_arg = ad.mul(ad.sub(dists, pos_margin), Tensor(log_scale * lam))
    neg_arg = ad.mul(ad.sub(neg_margin, dists), log_scale)

    losses = []
    for axis, mask_pos, mask_neg in ((1, pos_mask, neg_mask),
                                     (0, pos_mask.T, neg_mask.T)):
        pa = pos_arg if axis == 1 else ad.transpose2d(pos_arg)
        na = neg_arg if axis == 1 else ad.transpose2d(neg_arg)
        valid = mask_pos.any(axis=1) & mask_neg.any(axis=1)
        if not valid.any():
            continue
        lse_pos = _masked_logsumexp(pa, mask_pos, valid)
        lse_neg = _masked_logsumexp(na, mask_neg, valid)
        losses.append(ad.mean_(_softplus(ad.add(lse_pos, lse_neg))))
    if not losses:
        raise NoPositivePairsError("no anchor has both positives and negatives")
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    return ad.mul(total, 1.0 / (log_scale * len(losses)))


def _masked_logsumexp(arg: Tensor, mask: np.ndarray, valid_rows: np.ndarray) -> Tensor:
    """Row-wise log-sum-exp over masked entries, restricted to valid rows."""
    rows = np.flatnonzero(valid_rows)
    neg_inf_fill = -1e4
    offset = Tensor(np.where(mask, 0.0, neg_inf_fill))
    shifted = ad.add(arg, offset)
    shift_max = np.max(shifted.data, axis=1, keepdims=True)
    stable = ad.sub(shifted, ad.expand(Tensor(shift_max), shifted.shape))
    sums = ad.sum_(ad.exp(stable), axis=1, keepdims=True)
    lse = ad.add(ad.log(sums), Tensor(shift_max))
    return ad.gather_rows(lse, rows)


def _softplus(x: Tensor) -> Tensor:
    # log(1 + exp(x)), stabilized: max(x, 0) + log1p(exp(-|x|)) composed on tape
    pos = ad.relu(x)
    absx = ad.add(ad.relu(x), ad.relu(ad.neg(x)))
    return ad.add(pos, ad.log(ad.add(ad.exp(ad.neg(absx)), 1.0)))


def ground_truth_patch_matches(pre_view: PatchedSuperpoints,
                               intra_view: PatchedSuperpoints,
                               pair: tuple[int, int], T_gt: RigidTransform,
                               radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest patch point pairs within ``radius`` under the true pose.

    Each pre patch point is matched to its nearest intra patch point when
    that lies within the matching radius.  Returns (rows, cols): local patch
    coordinates of matched points.
    """
    a, b = pair
    ia = pre_view.patch_indices[a]
    ib = intra_view.patch_indices[b]
    if ia.size == 0 or ib.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    p = T_gt.apply_points(pre_view.fine_points[ia])
    q = intra_view.fine_points[ib]
    diff = p[:, None, :] - q[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    row_best = np.argmin(d, axis=1)
    hit = d[np.arange(ia.size), row_best] <= radius
    rows = np.flatnonzero(hit).astype(np.int64)
    cols = row_best[hit].astype(np.int64)
    # keep one row per column (the closest) so targets stay injective
    keep = np.ones(rows.size, dtype=bool)
    by_col: dict[int, int] = {}
    for k in range(rows.size):
        c = int(cols[k])
        if c in by_col:
            if d[rows[k], c] < d[rows[by_col[c]], c]:
                keep[by_col[c]] = False
                by_col[c] = k
            else:
                keep[k] = False
        else:
            by_col[c] = k
    return rows[keep], cols[keep]


def fine_loss(score_matrices: list[Tensor],
              gt_matches: list[tuple[np.ndarray, np.ndarray]],
              matched_weight: float = 0.7) -> Tensor:
    """Negative log-likelihood of ground-truth entries under normalized scores.

    ``score_matrices`` are already slack-normalized (pa+1, pb+1) tensors.
    Unmatched pre points target the slack column; unmatched intra points are
    scored through the slack row.  The matched and slack entry groups are
    averaged separately and blended with ``matched_weight`` so the numerous
    slack targets cannot drown the match signal (with a uniform matrix every
    entry scores the same, so the blend still evaluates to log(columns)).
    Patches with no ground-truth matches are excluded from the average.
    """
    terms = []
    for p, (rows, cols) in zip(score_matrices, gt_matches):
        if rows.size == 0:
            continue
        pa = p.shape[0] - 1
        pb = p.shape[1] - 1
        flat = ad.reshape(p, (p.shape[0] * p.shape[1], 1))
        match_idx = rows * (pb + 1) + cols
        slack_rows = np.setdiff1d(np.arange(pa), rows, assume_unique=False)
        slack_cols = np.setdiff1d(np.arange(pb), cols, assume_unique=False)
        slack_idx = np.concatenate([
            slack_rows * (pb + 1) + pb,
            np.full(slack_cols.size, pa, dtype=np.int64) * (pb + 1) + slack_cols,
        ])
        matched = ad.neg(ad.mean_(ad.log(ad.add(
            ad.gather_rows(flat, match_idx), 1e-12))))
        if slack_idx.size:
            slack = ad.neg(ad.mean_(ad.log(ad.add(
                ad.gather_rows(flat, slack_idx), 1e-12))))
            terms.append(ad.add(ad.mul(matched, matched_weight),
                                ad.mul(slack, 1.0 - matched_weight)))
        else:
            terms.append(matched)
    if not terms:
        raise ValueError("no patch carries ground-truth correspondences")
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.mul(total, 1.0 / len(terms))
