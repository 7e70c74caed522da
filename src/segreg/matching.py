"""Coarse-to-fine correspondence matching and transform estimation.

Superpoints (bottleneck points of the registration pyramid) carry learned
features and a patch of fine-level member points, stored as one shadow-padded
(M, patch_size) table like the pyramid's neighbor tables, so every routine
that reads patches is an array pass over it.  Coarse matching scores
superpoint pairs by normalized feature similarity plus a rotation-invariant
pairwise-distance-histogram bonus, selected through a dual softmax.  Patch
pairs, ground-truth ones in training and coarse ones at inference, are scored
as one (K, P+1, P+1) stack with slack rows and columns (``patch_scores``),
normalized by alternating column/row renormalizations of the exponentiated
scores (``normalize_scores_with_slack``); ``fine_match`` keeps its mutual
top-1 entries.  Correspondences are plain matched arrays: the points of each
side gathered row for row, plus a weight per row.  ``local_to_global`` fits
a pose to the superpoint pairs and one to each coarse pair's fine matches in
one weighted Procrustes stack (``procrustes_stack``, also used by the
baselines) and keeps the best supported, returning every hypothesis's votes;
``refine_transform`` re-solves it.

The settings no caller varies are module constants: ``K_CORR`` coarse pairs
with a ``BONUS_WEIGHT`` histogram bonus over ``HIST_BINS`` bins up to
``HIST_MAX_DIST``, ground-truth overlap within ``OVERLAP_PATCH_RADIUS`` with
positives above ``POSITIVE_OVERLAP``, ``NORM_ITERATIONS`` slack
normalization rounds and ``REFINE_ITERATIONS`` refinement rounds.

Training losses: an overlap-weighted circle loss over superpoint feature
distances (GeoTransformer's margins 0.1 / 1.4, scale 24), one tape node with
a closed-form backward that reads its targets as ``coarse_targets`` builds
them once per sample, and a negative log-likelihood over the normalized
patch score stack; their plain sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import expit

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import RigidTransform, rotation_defects
from segreg.kpconv import PointPyramid

__all__ = [
    "DualLoss",
    "PatchedSuperpoints",
    "NoPositivePairsError",
    "build_patches",
    "distance_histograms",
    "histogram_bins",
    "normalize_counts",
    "superpoint_overlap_labels",
    "coarse_match",
    "fine_match",
    "patch_scores",
    "normalize_scores_with_slack",
    "procrustes_stack",
    "weighted_procrustes",
    "refine_transform",
    "local_to_global",
    "l2_normalize_rows",
    "CoarseTargets",
    "coarse_targets",
    "coarse_loss",
    "fine_loss",
    "ground_truth_patch_matches",
]


K_CORR = 48                   # coarse pairs kept at inference
BONUS_WEIGHT = 0.2            # weight of the histogram bonus in coarse scores
HIST_BINS = 12                # distance-histogram bins per patch ...
HIST_MAX_DIST = 0.3           # ... over [0, HIST_MAX_DIST) unit-sphere units
OVERLAP_PATCH_RADIUS = 0.05   # ground-truth overlap radius
POSITIVE_OVERLAP = 0.1        # overlap above which a superpoint pair is positive
NORM_ITERATIONS = 5           # column/row rounds of the slack normalization
REFINE_ITERATIONS = 5         # re-weighted Procrustes rounds


class NoPositivePairsError(ValueError):
    """Raised when a training pair has no positive superpoint overlap."""


@dataclass
class DualLoss:
    total: Tensor
    coarse: Tensor
    fine: Tensor


@dataclass
class PatchedSuperpoints:
    """Superpoint positions plus their truncated fine-level patches: row b
    of ``patch_indices`` holds superpoint b's ``sizes[b]`` (>= 1) level-0
    members at the front and the shadow index N0 in the other slots."""

    points: np.ndarray                    # (M, 3)
    patch_indices: np.ndarray             # (M, patch_size) level-0 indices
    sizes: np.ndarray                     # (M,) members per patch
    fine_points: np.ndarray               # (N0, 3) level-0 positions

    @property
    def valid(self) -> np.ndarray:
        """(M, patch_size) mask of the member slots."""
        return np.arange(self.patch_indices.shape[1]) < self.sizes[:, None]


def build_patches(pyramid: PointPyramid, patch_size: int) -> PatchedSuperpoints:
    """Group level-0 points under their superpoint, keep the nearest patch_size.

    One stable sort by (superpoint, key), where the key is the distance to
    the superpoint in patches that must be truncated and 0 elsewhere: kept
    patches stay in index order, truncated ones in distance order.
    """
    coarse = pyramid.levels[-1].positions
    fine = pyramid.levels[0].positions
    assign = pyramid.fine_to_level(pyramid.stages - 1)
    m, n0 = coarse.shape[0], fine.shape[0]
    counts = np.bincount(assign, minlength=m)
    d = np.linalg.norm(fine - coarse[assign], axis=1)
    order = np.lexsort((np.where(counts[assign] > patch_size, d, 0.0), assign))
    owner = assign[order]
    rank = np.arange(n0) - (np.cumsum(counts) - counts)[owner]
    kept = rank < patch_size
    table = np.full((m, patch_size), n0, dtype=np.int64)
    table[owner[kept], rank[kept]] = order[kept]
    return PatchedSuperpoints(coarse, table, np.minimum(counts, patch_size), fine)


def _patch_rows(values: np.ndarray, table: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """(..., patch_size, C) rows of (N, C) ``values`` at the patch rows
    ``table``; shadow slots read ``fill``."""
    return np.concatenate([values, np.full((1, values.shape[1]), fill)])[table]


def _sq_dists(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances (..., n, m) between (..., n, 3) and (..., m, 3) points,
    summed one axis at a time in ``np.einsum("ijk,ijk->ij")``'s order (x, z,
    y), so they equal its values without its (..., n, m, 3) temporary.  Its
    one caller is ``ground_truth_patch_matches``, which reads every entry."""
    out = np.zeros(p.shape[:-1] + q.shape[-2:-1])
    for k in (0, 2, 1):
        diff = p[..., :, None, k] - q[..., None, :, k]
        diff *= diff
        out += diff
    return out


def distance_histograms(view: PatchedSuperpoints) -> np.ndarray:
    """Rotation-invariant patch signatures: L2-normalized ``HIST_BINS``-bin
    histograms of pairwise point distances inside each patch.

    Only member pairs are measured.  A patch's s members fill its first s
    slots, so its member pairs are the first s(s-1)/2 of the (later,
    earlier) slot pairs in ``np.tril_indices`` order; the counts do not
    depend on the order pairs are listed in.  Each pair's two endpoints are
    gathered once, straight from the table, and its squared distance is
    summed in ``_sq_dists``' axis order (x, z, y), so every distance, and
    with it every bin, equals that of the full (M, patch_size, patch_size)
    stack.
    """
    m, size = view.patch_indices.shape
    later, earlier = np.tril_indices(size, k=-1)
    n_pairs = view.sizes * (view.sizes - 1) // 2
    owner = np.repeat(np.arange(m), n_pairs)
    pair = np.arange(owner.size) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    table = view.patch_indices.ravel()
    first = table[owner * size + earlier[pair]]
    second = table[owner * size + later[pair]]
    d2 = np.zeros(owner.size)
    for k in (0, 2, 1):
        axis = view.fine_points[:, k]
        diff = axis[first] - axis[second]
        diff *= diff
        d2 += diff
    keys = owner * HIST_BINS + histogram_bins(np.sqrt(d2), HIST_MAX_DIST, HIST_BINS)
    return normalize_counts(np.bincount(keys, minlength=m * HIST_BINS).reshape(m, -1))


def histogram_bins(values: np.ndarray, upper: float, bins: int) -> np.ndarray:
    """Bin of each value among ``bins`` even bins over [0, upper]: np.histogram's
    rule, edges[k] <= x < edges[k + 1], with ``upper`` in the last bin.

    A value's bin is the number of interior edges it reaches, so values
    below 0 land in the first bin and values past ``upper`` in the last.
    """
    out = np.zeros(values.shape, dtype=np.intp)
    for edge in np.linspace(0.0, upper, bins + 1)[1:-1]:
        out += values >= edge
    return out


def normalize_counts(counts: np.ndarray) -> np.ndarray:
    """L2-normalized float rows of integer counts (exact squared norms); zero rows stay 0."""
    out = counts.astype(np.float64)
    norm = np.sqrt(np.einsum("ij,ij->i", out, out))
    filled = norm > 0
    out[filled] /= norm[filled, None]
    return out


def superpoint_overlap_labels(pre: PatchedSuperpoints, intra: PatchedSuperpoints,
                              T_gt: RigidTransform) -> np.ndarray:
    """Overlap matrix: entry (a, b) is the fraction of pre-patch a's points
    that land within OVERLAP_PATCH_RADIUS of intra-patch b under ``T_gt``."""
    mp, mi = pre.points.shape[0], intra.points.shape[0]
    members = pre.valid
    owner = np.nonzero(members)[0]                  # pre superpoint per patch point
    intra_members = intra.valid
    # intra superpoint of each level-0 point, -1 where truncation dropped it
    fine_to_sp = np.full(intra.fine_points.shape[0], -1, dtype=np.int64)
    fine_to_sp[intra.patch_indices[intra_members]] = np.nonzero(intra_members)[0]
    moved = T_gt.apply_points(pre.fine_points)[pre.patch_indices[members]]
    hits = cKDTree(intra.fine_points).query_ball_point(moved, OVERLAP_PATCH_RADIUS)
    counts = np.fromiter(map(len, hits), np.int64, len(hits))
    hit = np.fromiter(itertools.chain.from_iterable(hits), np.int64, counts.sum())
    point = np.repeat(np.arange(len(hits)), counts)
    sp = fine_to_sp[hit]
    # each (pre point, intra superpoint) once
    key = np.unique(point[sp >= 0] * mi + sp[sp >= 0])
    overlap = np.bincount(owner[key // mi] * mi + key % mi, minlength=mp * mi)
    return overlap.reshape(mp, mi) / pre.sizes[:, None]


def coarse_match(pre_feats: np.ndarray, intra_feats: np.ndarray,
                 geom_bonus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select the top ``K_CORR`` superpoint pairs by dual-softmax score.

    Features must carry L2-normalized rows.  The similarity is the feature
    inner product plus ``BONUS_WEIGHT`` times the (M_pre, M_intra)
    geometric-consistency bonus; the dual softmax is the entrywise product
    of row-wise and column-wise softmaxes.  Returns (pairs (k, 2), scores
    (k,)), score-descending with ties resolved in row-major cell order; each
    pair is a distinct cell.  A partition finds the k-th score, and only
    the cells at or above it are sorted, stably, so the selection is the
    head of a stable sort of every cell.
    """
    sim = Tensor(pre_feats @ intra_feats.T + BONUS_WEIGHT * geom_bonus)
    score = ad.softmax(sim, axis=1).data * ad.softmax(sim, axis=0).data
    flat = score.reshape(-1)
    k = min(K_CORR, flat.size)
    kth = flat[np.argpartition(-flat, k - 1)[k - 1]]
    head = np.flatnonzero(flat >= kth)                    # row-major order
    order = head[np.argsort(-flat[head], kind="stable")[:k]]
    pairs = np.stack(np.unravel_index(order, score.shape), axis=1)
    return pairs, flat[order]


def patch_scores(dense_pre: Tensor, dense_intra: Tensor, pre_view: PatchedSuperpoints,
                 intra_view: PatchedSuperpoints, pairs: np.ndarray) -> Tensor:
    """(K, P+1, P+1) score stack of the superpoint pairs ``pairs`` (K, 2) on
    the tape: entry (k, i, j) is the inner product over sqrt(channels) of the
    dense rows at slot i of pre patch ``pairs[k, 0]`` and slot j of intra
    patch ``pairs[k, 1]``, 0 at shadow slots and in slack row and column P."""
    dense = (dense_pre, dense_intra)
    tables = (pre_view.patch_indices[pairs[:, 0]], intra_view.patch_indices[pairs[:, 1]])
    rows, cols = (_patch_rows(t.data, table) for t, table in zip(dense, tables))
    scale = 1.0 / np.sqrt(dense_pre.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NonFiniteError
        out = np.pad((rows @ cols.transpose(0, 2, 1)) * scale, ((0, 0), (0, 1), (0, 1)))

    def bwd(g):
        gs = g[:, :-1, :-1] * scale
        for t, table, grad in zip(dense, tables, (gs @ cols, gs.transpose(0, 2, 1) @ rows)):
            real = table < t.shape[0]
            ad.accumulate_grad(t, ad.scatter_add_rows(table[real], grad[real], t.shape[0]))

    return ad.record_custom(out, dense_pre.requires_grad or dense_intra.requires_grad, bwd)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def normalize_scores_with_slack(scores: Tensor, n_rows: np.ndarray, n_cols: np.ndarray,
                                augment_slack: bool = False) -> Tensor:
    """Normalize a (K, R+1, C+1) stack of slack-padded score matrices.

    Matrix k has real rows [0, n_rows[k]) and columns [0, n_cols[k]), pads
    up to R and C (zeroed after exp, target 0, sums offset by 1) and slack
    row and column R and C.  Exponentiates each matrix less its own maximum
    and alternates column- and row-renormalization for ``NORM_ITERATIONS``
    rounds, ending on rows, so every real row is a distribution over real
    targets plus slack.  With ``augment_slack`` the slack row/column are
    normalized to the opposite side's real count instead of 1, letting slack
    absorb any number of unmatched points (used at inference; the training
    loss keeps unit marginals so its uniform-matrix baseline is exactly
    log(columns)).

    One tape node.  The forward runs the numpy operations of the composed
    exp / mask / sum / pad offset / div / expand / mul chain in the same order;
    the backward replays that chain's backward in reverse tape order, so
    values and gradients are bit-identical to it.

    Only ``shifted`` and each round's ``col_scale`` and ``row_scale`` are
    checked for finiteness; the other intermediates are bounded once these
    are finite.  A finite ``shifted`` is at most 0, so ``exp_s`` and the
    first ``p`` lie in [0, 1].  A finite scale makes each entry its target
    times the entry's share of its sum, so ``p_col`` and the next ``p`` are
    at most the largest target, and every sum at most R + 1 or C + 1 times
    it.  With float warnings off, an overflow, or a real row or column whose
    exponentials all underflow (a zero sum, an infinite scale), raises
    ``NonFiniteError``.
    """
    _, nr, nc = scores.shape
    row_target = 1.0 * (np.arange(nr) < np.reshape(n_rows, (-1, 1)))[:, :, None]
    col_target = 1.0 * (np.arange(nc) < np.reshape(n_cols, (-1, 1)))[:, None, :]
    row_target[:, -1, 0] = n_cols if augment_slack else 1.0
    col_target[:, 0, -1] = n_rows if augment_slack else 1.0
    row_pad, col_pad = 1.0 * (row_target == 0), 1.0 * (col_target == 0)
    valid = (row_target > 0) * (col_target > 0) * 1.0
    shifted = scores.data - np.max(scores.data, axis=(1, 2), keepdims=True)
    ad.require_finite(shifted)
    exp_s = np.exp(shifted)
    p = exp_s * valid
    rounds = []                         # what each round's backward reads
    for _ in range(NORM_ITERATIONS):
        csum = np.sum(p, axis=1, keepdims=True) + col_pad
        col_scale = col_target / csum
        ad.require_finite(col_scale)
        p_col = p * col_scale
        rsum = np.sum(p_col, axis=2, keepdims=True) + row_pad
        row_scale = row_target / rsum
        ad.require_finite(row_scale)
        if scores.requires_grad:        # only the backward reads past rounds
            rounds.append((p, csum, col_scale, p_col, rsum, row_scale))
        p = p_col * row_scale

    def bwd(g):
        for p_in, csum, col_scale, p_col, rsum, row_scale in reversed(rounds):
            # mul(p_col, expand(row_scale)); expand sums; div(row_target, rsum)
            g_p_col = g * row_scale
            g_row = np.sum(g * p_col, axis=2, keepdims=True)
            g_rsum = (-g_row * row_target) / (rsum * rsum)
            g_p_col = g_p_col + g_rsum          # sum_ broadcasts over axis 2
            g_p = g_p_col * col_scale
            g_col = np.sum(g_p_col * p_in, axis=1, keepdims=True)
            g_csum = (-g_col * col_target) / (csum * csum)
            g = g_p + g_csum                    # sum_ broadcasts over axis 1
        ad.accumulate_grad(scores, (g * valid) * exp_s)

    return ad.record_custom(p, scores.requires_grad, bwd)


def fine_match(dense_pre: np.ndarray, dense_intra: np.ndarray,
               coarse_pairs: np.ndarray, pre_view: PatchedSuperpoints,
               intra_view: PatchedSuperpoints
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refine coarse pairs into weighted point correspondences.

    Scores all coarse pairs as one ``patch_scores`` stack, normalizes it with
    augmented slack, and keeps mutual top-1 non-slack entries weighted by
    their normalized score.  An entry must also beat both of its slack
    competitors, so diffuse score matrices yield few or no correspondences;
    pad entries are 0, so they win no real row or column and pad rows fail
    the slack test.  The coarse pairs must be distinct, as ``coarse_match``
    returns them: every level-0 point lies in one patch, so each (pre, intra)
    point pair is then found at most once.  Returns level-0 (pre indices,
    intra indices, weights, rows of ``coarse_pairs``), in (pre, intra) order.
    """
    a, b = coarse_pairs[:, 0], coarse_pairs[:, 1]
    p = normalize_scores_with_slack(
        patch_scores(Tensor(dense_pre), Tensor(dense_intra), pre_view, intra_view,
                     coarse_pairs),
        pre_view.sizes[a], intra_view.sizes[b], augment_slack=True).data
    size = p.shape[1] - 1                           # slack row and column index
    j = np.argmax(p[:, :size], axis=2)              # (K, P) best column per row
    w = np.max(p[:, :size], axis=2)
    mutual = np.take_along_axis(np.argmax(p, axis=1), j, axis=1) == np.arange(size)
    # beating the slack column also rules out the slack column as j
    keep = mutual & (w > p[:, :size, size]) & (w > np.take_along_axis(p[:, size], j, axis=1))
    pair, row = np.nonzero(keep)
    pre_idx = pre_view.patch_indices[a[pair], row]
    intra_idx = intra_view.patch_indices[b[pair], j[pair, row]]
    order = np.lexsort((intra_idx, pre_idx))
    return pre_idx[order], intra_idx[order], w[pair, row][order], pair[order]


# ---------------------------------------------------------------------------
# transform estimation
# ---------------------------------------------------------------------------

def procrustes_stack(p: np.ndarray, q: np.ndarray, w: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form weighted rigid fits of B matched sets: (B, n, 3) points,
    (B, n) weights with positive row sums.

    Fit b minimizes sum_i w_bi |R p_bi + t - q_bi|^2 via the SVD of the
    weighted cross-covariance, with the determinant corrected to +1.  Returns
    R (B, 3, 3), t (B, 3) and a mask that is False where the covariance is
    rank-deficient or the rotation fails ``RigidTransform``'s check.
    """
    wn = (w / w.sum(axis=1, keepdims=True))[:, :, None]
    p_bar = (wn * p).sum(axis=1)
    q_bar = (wn * q).sum(axis=1)
    H = (wn * (p - p_bar[:, None])).transpose(0, 2, 1) @ (q - q_bar[:, None])
    u, s, vt = np.linalg.svd(H)
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    flip = np.zeros_like(H)
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    R = v @ flip @ ut
    t = q_bar - (R @ p_bar[:, :, None])[:, :, 0]
    ratio = np.divide(s[:, 1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] > 0)
    not_orthonormal, not_proper = rotation_defects(R)
    return R, t, (s[:, 0] > 0) & (ratio >= 1e-9) & ~not_orthonormal & ~not_proper


def weighted_procrustes(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> RigidTransform:
    """``procrustes_stack`` on one matched set, (n, 3) points ``p`` onto
    (n, 3) points ``q`` with (n,) weights, as a ``RigidTransform``."""
    if len(w) < 3:
        raise ValueError(f"need at least 3 matches, got {len(w)}")
    if w.sum() <= 0:
        raise ValueError("total match weight must be positive")
    R, t, valid = procrustes_stack(p[None], q[None], w[None])
    if not valid[0]:
        raise ValueError("rank-deficient match covariance (collinear correspondences) "
                         "or a rotation outside tolerance")
    return RigidTransform(R[0], t[0])


def refine_transform(T0: RigidTransform, p: np.ndarray, q: np.ndarray, w: np.ndarray,
                     inlier_radius: float) -> tuple[RigidTransform, int]:
    """Re-solve ``weighted_procrustes`` on the matches (its arrays) that the
    current transform places within ``inlier_radius``, ``REFINE_ITERATIONS``
    rounds from ``T0``; a round with fewer than 3 inliers or a degenerate
    inlier set ends them.  The iterate with the most inliers wins, the
    earliest on ties; it comes back with its inlier count, so without any
    inlier ``T0`` comes back with count 0.
    """
    best, T = (T0, 0), T0
    for rounds_left in range(REFINE_ITERATIONS, -1, -1):
        keep = np.linalg.norm(T.apply_points(p) - q, axis=1) <= inlier_radius
        if keep.sum() > best[1]:
            best = (T, int(keep.sum()))
        if not rounds_left or keep.sum() < 3:
            break
        try:
            T = weighted_procrustes(p[keep], q[keep], w[keep])
        except ValueError:
            break
    return best


def local_to_global(coarse: tuple, fine: tuple, pair_idx: np.ndarray,
                    inlier_radius: float
                    ) -> tuple[int, RigidTransform | None, np.ndarray]:
    """GeoTransformer's local-to-global registration: the best supported of
    one ``procrustes_stack`` of poses from (p, q, w) matched arrays.

    Hypothesis 0 fits the ``coarse`` superpoint pairs, weighted by score;
    hypothesis k + 1 fits the ``fine`` matches of the k-th coarse pair with at
    least 3 (match i came from pair ``pair_idx[i]``).  A valid hypothesis gets
    a vote per fine match of the other pairs that it places within
    ``inlier_radius`` (its own always lie near it); the first best wins, so
    hypothesis 0 wins ties.  Returns (winner, transform, votes), with -1 votes
    for each invalid hypothesis and (-1, None, votes) if none is valid.
    """
    p, q, w = fine
    # (H, n): row 0, the superpoint fit (pair -1), owns no fine match
    own = pair_idx == np.r_[-1, np.flatnonzero(np.bincount(pair_idx) >= 3)][:, None]
    n, k = len(w), len(coarse[2])
    P, Q, W = (np.zeros((len(own), max(n, k)) + part.shape[1:]) for part in fine)
    P[0, :k], Q[0, :k], W[0, :k] = coarse
    P[1:, :n], Q[1:, :n], W[1:, :n] = p, q, own[1:] * w
    R, t, valid = procrustes_stack(P, Q, W)
    placed = np.linalg.norm(p @ R.transpose(0, 2, 1) + t[:, None] - q, axis=2) <= inlier_radius
    votes = np.where(valid, (placed & ~own).sum(axis=1), -1)
    best = int(np.argmax(votes))
    if votes[best] < 0:
        return -1, None, votes
    return best, RigidTransform(R[best], t[best]), votes


# ---------------------------------------------------------------------------
# training losses
# ---------------------------------------------------------------------------

# GeoTransformer's circle-loss margins and log scale; the fine loss's matched share
POS_MARGIN, NEG_MARGIN, LOG_SCALE = 0.1, 1.4, 24.0
MATCHED_WEIGHT = 0.7


def l2_normalize_rows(t: Tensor) -> Tensor:
    sq = ad.sum_(ad.mul(t, t), axis=1, keepdims=True)
    norm = ad.sqrt(ad.add(sq, 1e-12))
    return ad.div(t, ad.expand(norm, t.shape))


@dataclass(frozen=True)
class _AnchorTargets:
    """The circle loss's targets along one axis of the overlap (rows: pre
    superpoints; columns: intra superpoints).  An anchor is a superpoint of
    the axis with a positive and a negative.  ``slot`` and ``other`` locate
    the positive cells of the anchors, in the anchors' (V, n_other) rows,
    ``slopes`` holds their slopes ``LOG_SCALE * sqrt(overlap)``, and
    ``negative`` is the anchors' rows of the mask overlap == 0."""

    anchors: np.ndarray          # (V,) ascending indices along the axis
    negative: np.ndarray         # (V, n_other) bool
    slot: np.ndarray             # (P,) anchor row of each positive cell
    other: np.ndarray            # (P,) its index along the other axis
    slopes: np.ndarray           # (P,)


@dataclass(frozen=True)
class CoarseTargets:
    """What the circle loss reads of one sample's (M_pre, M_intra) superpoint
    overlap, built once by :func:`coarse_targets`: the count of positive
    cells (overlap > ``POSITIVE_OVERLAP``), then the anchors of the rows and
    of the columns with their positive cells, slopes and negative masks.
    Positives are ~1% of the cells on the benchmark phantoms, so they are
    stored as cells; negatives are most of the matrix and stay a mask."""

    positives: int
    axes: tuple


def coarse_targets(overlap: np.ndarray) -> CoarseTargets:
    """The circle loss's targets of an overlap matrix; no case raises here,
    the loss does (``NoPositivePairsError``)."""
    positive = overlap > POSITIVE_OVERLAP
    negative = overlap == 0.0
    axes = []
    for view in (np.asarray, np.transpose):     # anchors along rows, then columns
        anchors = np.flatnonzero(view(positive).any(axis=1) & view(negative).any(axis=1))
        slot, other = np.nonzero(view(positive)[anchors])
        slopes = LOG_SCALE * np.sqrt(view(overlap)[anchors[slot], other])
        axes.append(_AnchorTargets(anchors, view(negative)[anchors], slot, other, slopes))
    return CoarseTargets(int(positive.sum()), tuple(axes))


def coarse_loss(pre_feats: Tensor, intra_feats: Tensor, targets: CoarseTargets) -> Tensor:
    """Overlap-weighted circle loss over superpoint feature distances.

    Positives (overlap > ``POSITIVE_OVERLAP``) are pulled inside ``POS_MARGIN`` with
    sqrt-overlap weighting; negatives (overlap == 0) are pushed beyond
    ``NEG_MARGIN`` (GeoTransformer's).  Feature rows must be L2-normalized.
    Each row, then each column, with a positive and a negative is an anchor
    scoring the softplus of its two masked log-sum-exps; the anchor means of
    the axes are averaged and divided by ``LOG_SCALE``.  One tape node, whose
    backward weights each anchor's masked softmax by its sigmoid.

    ``targets`` are the overlap's, from :func:`coarse_targets`.  The loss
    makes the operations of the dense form, in which every anchor row is
    masked with -inf outside its positives (negatives), exponentiated and
    summed, but evaluates the positive terms at the positive cells only.
    Their values are the dense form's there; a masked cell's exponential is
    exactly 0, and each positive row sum adds the positive cells' terms
    with those zeros in place over a full row, so it takes ``np.sum``'s
    pairwise order of the dense form.  Positive and negative cells are
    disjoint, so each cell's gradient has one nonzero term, the term the
    dense form's sum of the two yields; the other is a zero, which cannot
    change it.
    """
    if not targets.positives:
        raise NoPositivePairsError("no positive superpoint pairs in this sample")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NonFiniteError
        d2 = pre_feats.data @ intra_feats.data.T * -2.0 + 2.0
    ad.require_finite(d2)
    dists = np.sqrt(np.maximum(d2, 0.0) + 1e-12)

    losses, g_dists = [], np.zeros_like(dists)
    for view, axis in zip((np.asarray, np.transpose), targets.axes):
        if not axis.anchors.size:
            continue
        d = view(dists)[axis.anchors]                       # (V, n_other)
        cells = axis.slot, axis.other
        # positives: argument, row maximum and exponential per cell, and the
        # row sums over the full rows
        pos = (d[cells] - POS_MARGIN) * axis.slopes
        top_pos = np.full((len(axis.anchors), 1), -np.inf)
        np.maximum.at(top_pos[:, 0], axis.slot, pos)
        e_pos = np.exp(pos - top_pos[axis.slot, 0])
        e_rows = np.zeros(d.shape)
        e_rows[cells] = e_pos
        total_pos = np.sum(e_rows, axis=1, keepdims=True)
        # negatives: every other cell of an anchor row
        a = np.where(axis.negative, (NEG_MARGIN - d) * LOG_SCALE, -np.inf)
        top = np.max(a, axis=1, keepdims=True)
        e = np.exp(a - top)
        total = np.sum(e, axis=1, keepdims=True)
        z = np.log(total_pos) + top_pos
        z = z + np.log(total) + top
        losses.append(np.mean(np.logaddexp(0.0, z)))
        g_z = e / total * -LOG_SCALE
        g_z[cells] = e_pos / total_pos[axis.slot, 0] * axis.slopes
        view(g_dists)[axis.anchors] += expit(z) / len(axis.anchors) * g_z
    if not losses:
        raise NoPositivePairsError("no anchor has both positives and negatives")
    scale = 1.0 / (LOG_SCALE * len(losses))

    def bwd(g):
        # d dists / d sim is -1 / dists where d2 > 0, else 0
        g_sim = np.where(d2 > 0.0, -g * scale * g_dists / dists, 0.0)
        if pre_feats.requires_grad:
            ad.accumulate_grad(pre_feats, g_sim @ intra_feats.data)
        if intra_feats.requires_grad:
            ad.accumulate_grad(intra_feats, g_sim.T @ pre_feats.data)

    return ad.record_custom(np.array(sum(losses) * scale),
                            pre_feats.requires_grad or intra_feats.requires_grad, bwd)


def ground_truth_patch_matches(pre_view: PatchedSuperpoints,
                               intra_view: PatchedSuperpoints,
                               pairs: np.ndarray, T_gt: RigidTransform,
                               radius: float) -> np.ndarray:
    """Nearest patch point pairs within ``radius`` under the true pose.

    For each superpoint pair (a, b) in ``pairs`` (K, 2), each point of pre
    patch a is matched to its nearest point of intra patch b (the first on
    ties) when that lies within the matching radius.  A column claimed by
    several rows keeps the closest (then the first) so targets stay
    injective.  Returns a (K, patch_size) table: for each pre patch slot, its
    matched intra patch slot, or -1 for no match.
    """
    a, b = pairs.T
    p = _patch_rows(T_gt.apply_points(pre_view.fine_points), pre_view.patch_indices[a])
    # intra shadow slots sit at infinity, so no row picks them
    q = _patch_rows(intra_view.fine_points, intra_view.patch_indices[b], np.inf)
    d = np.sqrt(_sq_dists(p, q))                        # (K, P, P)
    best, best_d = np.argmin(d, axis=2), np.min(d, axis=2)
    pair, rows = np.nonzero(pre_view.valid[a] & (best_d <= radius))
    cols, dist = best[pair, rows], best_d[pair, rows]
    # each (pair, col) once, where it first appears by distance (then row)
    by_dist = np.argsort(dist, kind="stable")
    _, first = np.unique((pair * d.shape[2] + cols)[by_dist], return_index=True)
    kept = by_dist[first]
    table = np.full(best.shape, -1, dtype=np.int64)
    table[pair[kept], rows[kept]] = cols[kept]
    return table


def fine_loss(probs: Tensor, gt_cols: np.ndarray, n_rows: np.ndarray,
              n_cols: np.ndarray) -> Tensor:
    """Negative log-likelihood of ground-truth entries under normalized scores.

    ``probs`` is a slack-normalized (F, P+1, P+1) stack with ``n_rows`` and
    ``n_cols`` real rows and columns; ``gt_cols`` (F, P) holds each pre row's
    matched column or -1, at least one match per pair.  Unmatched real pre
    rows target the slack column, unmatched real intra columns the slack row.
    Per pair the matched and slack entry groups are averaged separately and
    blended with ``MATCHED_WEIGHT`` (a pair without slack targets keeps its
    matched mean), so the numerous slack targets cannot drown the match
    signal (with a uniform matrix every entry scores the same, so the blend
    still evaluates to log(columns)); pairs are averaged, as one weighted sum
    over one gather.
    """
    f, size = gt_cols.shape
    slots = np.arange(size)
    matched = gt_cols >= 0
    n_matched = matched.sum(axis=1)
    if f == 0 or not n_matched.all():
        raise ValueError("every patch pair needs a ground-truth correspondence")
    slack_rows = (slots < np.reshape(n_rows, (-1, 1))) & ~matched
    claimed = (gt_cols[:, :, None] == slots).any(axis=1)
    slack_cols = (slots < np.reshape(n_cols, (-1, 1))) & ~claimed
    n_slack = slack_rows.sum(axis=1) + slack_cols.sum(axis=1)
    share = np.where(n_slack > 0, MATCHED_WEIGHT, 1.0)
    slack_w = (1.0 - share) / np.maximum(n_slack, 1)
    (pm, rm), (pr, rr), (pc, cc) = (np.nonzero(m) for m in (matched, slack_rows, slack_cols))
    # flat cells of the stack: matched entries, slack column, slack row
    cells = np.ravel_multi_index((np.r_[pm, pr, pc], np.r_[rm, rr, np.full(pc.size, size)],
                                  np.r_[gt_cols[pm, rm], np.full(pr.size, size), cc]), probs.shape)
    weights = np.r_[(share / n_matched)[pm], slack_w[pr], slack_w[pc]] / f
    picked = ad.gather_rows(ad.reshape(probs, (probs.size, 1)), ad.RowMap(cells, probs.size))
    log_p = ad.log(ad.add(picked, 1e-12))
    return ad.neg(ad.sum_(ad.mul(log_p, Tensor(weights[:, None]))))
