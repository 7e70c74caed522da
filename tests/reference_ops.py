"""Reference versions of fused or stacked library paths.

The tape references build their result from the elementary autodiff
operations (or ``np.add.at``), the way the library did before those paths
were fused; ``slack_normalize_2d`` is the one-matrix slack normalization that
the padded stack replaced; ``scalar_weighted_procrustes`` is the one-set solve that
``matching.procrustes_stack`` replaced, and the ``loop_*`` functions are the
per-patch and per-pair loops that the patch table replaced, over patches
stored as a list of index arrays (``LoopPatches``).  ``oneshot_conv_influence`` evaluates every row of an
influence table at once from the points, with per-axis squared differences,
as ``kpconv.conv_influence`` did before it worked in row blocks on an offset
table, expanded d2 into one product and returned a sparse operator;
``expand_influence`` turns an operator back into that table, and
``gather_matmul_mixed`` and ``add_at_feats_grad`` are the convolution's
dense forward and feature backward over it, which ``stored_order_product``
replaces by the operator's stored-order sums; ``einsum_local_reference_frames``
is the unoriented normal of ``kpconv.local_reference_frames`` on a full
k-NN table, from offsets gathered by fancy indexing and a mean by ``sum``;
``where_neighbor_offsets`` is ``kpconv.neighbor_offsets`` before it gathered
with one ``np.take``; ``full_stack_distance_histograms`` is
``matching.distance_histograms`` before it measured member pairs only;
``k8_radius_neighbors`` and ``k8_knn`` rank k + 8 tree candidates per row,
gathered through ``np.where``, with a full ``lexsort``, as ``geometry`` did
before it fetched k + 1, gathered with one ``np.take`` and sorted only
unordered rows;
``unique_voxel_grid_subsample`` groups voxels with ``np.unique(axis=0)``,
as ``geometry.voxel_grid_subsample`` did before it sorted its keys; and
``composed_norm_act`` and ``composed_linear_head`` are the network's norm
and head nodes as chains of elementary tape operations.
``_repulse`` is the repulsion descent that generated the kernel layouts
``kpconv`` stores, as every process ran it before they were stored.
``overlap_coarse_loss``, ``per_step_seg_forward`` and
``per_step_training_loss`` are the circle loss, the segmentation forward
and the training loss as they were before the prepared sample held what
they derive from it alone: the circle loss's masks and slopes re-derived
from the overlap, and every input pooled and mixed (``per_step_context``),
at every step.  Tests require the library versions to match them bit for
bit, except ``slack_normalize_2d``, whose row sums run over fewer entries,
the influence bound test, which allows the expanded d2 its 1e-7, and the
dense convolution references, whose sums run in another order.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from scipy.special import expit

from segreg import autodiff as ad
from segreg import matching, networks
from segreg.autodiff import Tensor, scatter_add_rows
from segreg.geometry import PointCloud, RigidTransform, _exact_row
from segreg.matching import (
    LOG_SCALE,
    NEG_MARGIN,
    POS_MARGIN,
    POSITIVE_OVERLAP,
    DualLoss,
    NoPositivePairsError,
    fine_loss,
    l2_normalize_rows,
    normalize_scores_with_slack,
    patch_scores,
)
from segreg.networks import LEAKY_SLOPE, NORM_EPS, reg_backbone_forward


def add_at_rows(index, values, n):
    """``np.add.at`` into zeros: the reference for ``scatter_add_rows``."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


_REPULSE_STEPS, _REPULSE_LR = 1000, 0.01  # descent of a kernel layout


def _repulse(k, seed):
    """Repulsion layout of k kernel points in the unit ball, (k, 3).

    One point is pinned at the origin; the others start at seeded random
    points and descend ``_REPULSE_STEPS`` steps on the inverse-distance
    energy sum(1/d_ij), with projection back into the ball.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(k - 1, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = direction * rng.uniform(0.3, 1.0, size=(k - 1, 1)) ** (1.0 / 3.0)
    pts = np.vstack([np.zeros(3), pts])
    for _ in range(_REPULSE_STEPS):
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, 1.0)
        # gradient of sum_{i<j} 1/d_ij w.r.t. point i
        grad = -np.sum(diff / (d2[:, :, None] ** 1.5), axis=1)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        grad = grad / np.maximum(norms, 1.0) * np.minimum(norms, 10.0)
        pts[1:] -= _REPULSE_LR * grad[1:]
        r = np.linalg.norm(pts[1:], axis=1, keepdims=True)
        pts[1:] /= np.maximum(r, 1.0)
    return pts


def oneshot_conv_influence(points, neighbors, kernel, sigma):
    """``conv_influence`` on all rows at once: (N, K, H) float64 temporaries."""
    valid = neighbors < points.shape[0]
    safe = np.where(valid, neighbors, 0)
    rel = points[safe] - points[:, None, :]          # (N, H, 3)
    d2 = np.zeros((rel.shape[0], kernel.shape[0], rel.shape[1]))
    for j in range(3):
        d2 += (rel[:, None, :, j] - kernel[None, :, j, None]) ** 2
    infl = np.maximum(0.0, 1.0 - np.sqrt(d2) / sigma)
    infl *= valid[:, None, :]
    return infl.astype(np.float32)


def expand_influence(op, neighbors):
    """The (N, K, H) float32 table of an influence operator: slot h of table
    row (n, k) holds the weight stored in operator row n*K + k at column
    ``neighbors[n, h]``, 0 where none is stored.  Asserts the layout on the
    way: shape (N*K, N), float32 values stored as float64, no stored zero,
    no shadow column, and each row's columns found in ``neighbors[n]`` in
    slot order."""
    a = op.matrix
    n, h = neighbors.shape
    assert a.shape[1] == n and a.shape[0] % n == 0
    k = a.shape[0] // n
    assert a.data.dtype == np.float64
    assert np.array_equal(a.data.astype(np.float32).astype(np.float64), a.data)
    assert np.all(a.data > 0) and np.all(a.indices < n)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    hits = neighbors[rows // k] == a.indices[:, None]        # (nnz, H)
    assert np.all(hits.sum(axis=1) == 1)
    slots = np.argmax(hits, axis=1)
    same_row = rows[1:] == rows[:-1]
    assert np.all(slots[1:][same_row] > slots[:-1][same_row])
    table = np.zeros((n, k, h), dtype=np.float32)
    table[rows // k, rows % k, slots] = a.data
    return table


def gather_matmul_mixed(table, neighbors, feats):
    """The first half of ``kpconv_apply`` on a dense (N, K, H) table, as it
    ran before the sparse operator: gather the neighbor features with shadow
    slots zeroed, then one batched product, (N, K, Cin)."""
    valid = neighbors < feats.shape[0]
    gathered = feats[np.where(valid, neighbors, 0)] * valid[:, :, None]
    return np.matmul(table.astype(np.float64), gathered)


def add_at_feats_grad(table, neighbors, g_mixed):
    """The feature gradient of ``gather_matmul_mixed`` for the (N, K, Cin)
    gradient ``g_mixed``, scattered with ``np.add.at``."""
    valid = neighbors < neighbors.shape[0]
    g_gathered = np.matmul(table.astype(np.float64).transpose(0, 2, 1), g_mixed)
    return add_at_rows(neighbors[valid], g_gathered[valid], neighbors.shape[0])


def stored_order_product(matrix, x, transpose=False):
    """``matrix @ x`` (``matrix.T @ x`` with ``transpose``) for a CSR matrix,
    accumulated one stored entry at a time: rows in order, each row's
    entries in stored order."""
    out = np.zeros((matrix.shape[1] if transpose else matrix.shape[0], x.shape[1]))
    for r in range(matrix.shape[0]):
        for p in range(matrix.indptr[r], matrix.indptr[r + 1]):
            c, w = matrix.indices[p], matrix.data[p]
            if transpose:
                out[c] += w * x[r]
            else:
                out[r] += w * x[c]
    return out


def where_neighbor_offsets(points, neighbors):
    """``kpconv.neighbor_offsets`` as a ``np.where`` gather of the clamped
    table and a separate subtraction."""
    valid = neighbors < points.shape[0]
    rel = points[np.where(valid, neighbors, 0)] - points[:, None, :]
    rel[~valid] = 0.0
    return rel


def einsum_local_reference_frames(points, neighbors):
    """``local_reference_frames`` from the points of a full (N, H) k-NN
    table: the unoriented normal of a covariance summed by ``einsum``."""
    h = neighbors.shape[1]
    rel = points[neighbors] - points[:, None, :]
    centered = rel - (rel.sum(axis=1) / h)[:, None, :]
    cov = np.einsum("qhi,qhj->qij", centered, centered) / h
    _, vecs = np.linalg.eigh(cov)
    return vecs[:, :, 0]


def k8_tree_ranked(tree, q, s, k, radius=np.inf):
    """``geometry._tree_ranked`` on k + 8 candidates, every row lexsorted."""
    ns = s.shape[0]
    kq = min(k + 8, ns)
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
    unsure = found[:, -1] & ~(dist[:, -1] > last * (1.0 + 1e-9))
    return ranked, unsure


def k8_radius_neighbors(cloud, radius, max_neighbors):
    """``geometry.radius_neighbors`` over ``k8_tree_ranked``."""
    n = len(cloud)
    pts = cloud.positions
    tree = cKDTree(pts)
    ranked, unsure = k8_tree_ranked(tree, pts, pts, max_neighbors, radius)
    table = np.full((n, max_neighbors), n, dtype=np.int64)
    table[:, :ranked.shape[1]] = ranked
    rows = np.flatnonzero(unsure)
    for i, cand in zip(rows, tree.query_ball_point(pts[rows], radius + 1e-12)):
        row = _exact_row(pts[i], pts, np.asarray(cand, dtype=np.int64),
                         max_neighbors, radius * radius)
        table[i] = n
        table[i, :row.size] = row
    return table


def k8_knn(query, support):
    """``geometry.knn`` over ``k8_tree_ranked``."""
    q, s = query.positions, support.positions
    out, unsure = k8_tree_ranked(cKDTree(s), q, s, 1)
    every = np.arange(len(support))
    for i in np.flatnonzero(unsure):
        out[i] = _exact_row(q[i], s, every, 1)
    return out[:, 0]


def unique_voxel_grid_subsample(cloud, voxel_size):
    """``voxel_grid_subsample`` grouping its keys with ``np.unique(axis=0)``."""
    keys = np.floor(cloud.positions / voxel_size).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    m = first_idx.shape[0]
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    pos = scatter_add_rows(inverse, cloud.positions, m) / counts[:, None]
    return PointCloud(pos), inverse


def composed_normalize_scores_with_slack(scores, n_rows, n_cols, augment_slack=False):
    """The slack normalization of a padded (K, R+1, C+1) stack as elementary
    tape operations: per-matrix shift, exp, pad mask, then column and row
    rounds whose pad sums are offset by 1."""
    k, nr, nc = scores.shape
    row_target = np.ones((k, nr, 1))
    col_target = np.ones((k, 1, nc))
    row_target[:, :-1, 0] = np.arange(nr - 1) < np.reshape(n_rows, (-1, 1))
    col_target[:, 0, :-1] = np.arange(nc - 1) < np.reshape(n_cols, (-1, 1))
    if augment_slack:
        row_target[:, -1, 0] = n_cols
        col_target[:, 0, -1] = n_rows
    shift = np.broadcast_to(np.max(scores.data, axis=(1, 2), keepdims=True), scores.shape)
    valid = (row_target > 0) * (col_target > 0) * 1.0
    p = ad.mul(ad.exp(ad.sub(scores, Tensor(shift))), Tensor(valid))
    for _ in range(matching.NORM_ITERATIONS):
        csum = ad.add(ad.sum_(p, axis=1, keepdims=True), Tensor(1.0 * (col_target == 0)))
        p = ad.mul(p, ad.expand(ad.div(Tensor(col_target), csum), p.shape))
        rsum = ad.add(ad.sum_(p, axis=2, keepdims=True), Tensor(1.0 * (row_target == 0)))
        p = ad.mul(p, ad.expand(ad.div(Tensor(row_target), rsum), p.shape))
    return p


def slack_normalize_2d(scores, augment_slack=False):
    """The slack normalization of one unpadded (R+1, C+1) matrix, as it ran
    before patch pairs were stacked."""
    nr, nc = scores.shape
    row_target = np.ones((nr, 1))
    col_target = np.ones((1, nc))
    if augment_slack:
        row_target[-1, 0] = nc - 1
        col_target[0, -1] = nr - 1
    p = np.exp(scores - np.max(scores))
    for _ in range(matching.NORM_ITERATIONS):
        p = p * (col_target / np.sum(p, axis=0, keepdims=True))
        p = p * (row_target / np.sum(p, axis=1, keepdims=True))
    return p


def leaky_relu(a, slope):
    """The elementary leaky ReLU node that ``_norm_act``'s chain ends with."""
    mask = a.data > 0.0

    def bwd(g):
        ad.accumulate_grad(a, g * np.where(mask, 1.0, slope))

    return ad.record_custom(np.where(mask, a.data, slope * a.data), a.requires_grad, bwd)


def composed_norm_act(params, name, y):
    mu = ad.mean_(y, axis=0, keepdims=True)
    centered = ad.sub(y, ad.expand(mu, y.shape))
    var = ad.mean_(ad.mul(centered, centered), axis=0, keepdims=True)
    std = ad.sqrt(ad.add(var, NORM_EPS))
    normed = ad.div(centered, ad.expand(std, y.shape))
    affine = ad.add(ad.mul(normed, ad.expand(params[f"{name}_gamma"], y.shape)),
                    ad.expand(params[f"{name}_beta"], y.shape))
    return leaky_relu(affine, LEAKY_SLOPE)


def composed_linear_head(params, name, feats):
    """``feats @ w + b`` as the matmul, expand and add nodes it was."""
    b = params[f"{name}_b"]
    return ad.add(ad.matmul(feats, params[f"{name}_w"]),
                  ad.expand(b, (feats.shape[0], b.shape[1])))


def scalar_weighted_procrustes(p, q, w):
    """One weighted Procrustes solve, raising where the stacked solve is invalid."""
    if len(w) < 3:
        raise ValueError(f"need at least 3 matches, got {len(w)}")
    total = w.sum()
    if total <= 0:
        raise ValueError("total match weight must be positive")
    wn = (w / total)[:, None]
    p_bar = (wn * p).sum(axis=0)
    q_bar = (wn * q).sum(axis=0)
    H = (wn * (p - p_bar)).T @ (q - q_bar)
    u, s, vt = np.linalg.svd(H)
    if s[0] <= 0 or s[1] / s[0] < 1e-9:
        raise ValueError(f"rank-deficient match covariance; singular values {s}")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    R = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = q_bar - R @ p_bar
    return RigidTransform(R, t)


@dataclass
class LoopPatches:
    """Superpoint patches as one level-0 index array per superpoint."""

    points: np.ndarray
    patch_indices: list
    fine_points: np.ndarray
    fine_to_sp: np.ndarray


def loop_build_patches(pyramid, patch_size=32):
    coarse = pyramid.levels[-1].positions
    fine = pyramid.levels[0].positions
    assign = pyramid.fine_to_level(pyramid.stages - 1)
    m = coarse.shape[0]
    fine_to_sp = np.full(fine.shape[0], -1, dtype=np.int64)
    patches = []
    for b in range(m):
        members = np.flatnonzero(assign == b)
        if members.size > patch_size:
            d = np.linalg.norm(fine[members] - coarse[b], axis=1)
            members = members[np.argsort(d, kind="stable")[:patch_size]]
        patches.append(members)
        fine_to_sp[members] = b
    return LoopPatches(coarse, patches, fine, fine_to_sp)


def loop_distance_histograms(view, bins=matching.HIST_BINS, max_dist=matching.HIST_MAX_DIST):
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


def full_stack_distance_histograms(view):
    """``matching.distance_histograms`` over the full (M, P, P) stack of
    squared distances, of which it reads the member pairs."""
    m, size = view.patch_indices.shape
    pts = matching._patch_rows(view.fine_points, view.patch_indices)
    iu, ju = np.triu_indices(size, k=1)
    pair = ju < view.sizes[:, None]
    d = np.sqrt(matching._sq_dists(pts, pts)[:, iu, ju][pair])
    keys = (np.nonzero(pair)[0] * matching.HIST_BINS
            + matching.histogram_bins(d, matching.HIST_MAX_DIST, matching.HIST_BINS))
    counts = np.bincount(keys, minlength=m * matching.HIST_BINS)
    return matching.normalize_counts(counts.reshape(m, -1))


def loop_superpoint_overlap_labels(pre, intra, T_gt, patch_radius):
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


def loop_ground_truth_patch_matches(pre_view, intra_view, pair, T_gt, radius):
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
    keep = np.ones(rows.size, dtype=bool)
    by_col = {}
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


def loop_fine_match(dense_pre, dense_intra, coarse_pairs, pre_view, intra_view):
    """``fine_match`` pair by pair and row by row, each pair scored alone
    (a stack of one) and cut down to its real rows and columns plus slack;
    each match keeps the index of the pair that found it."""
    dense_pre, dense_intra = Tensor(dense_pre), Tensor(dense_intra)
    best = {}
    for k, (a, b) in enumerate(coarse_pairs):
        ia = pre_view.patch_indices[a, : pre_view.sizes[a]]
        ib = intra_view.patch_indices[b, : intra_view.sizes[b]]
        scores = patch_scores(dense_pre, dense_intra, pre_view, intra_view,
                              np.array([[a, b]]))
        padded = normalize_scores_with_slack(scores, [ia.size], [ib.size],
                                             augment_slack=True).data[0]
        slack = padded.shape[0] - 1
        p = padded[np.r_[: ia.size, slack]][:, np.r_[: ib.size, slack]]
        core = p[: ia.size, : ib.size]
        row_best = np.argmax(p[: ia.size], axis=1)
        col_best = np.argmax(p[:, : ib.size], axis=0)
        for i in range(ia.size):
            j = row_best[i]
            if j >= ib.size:
                continue
            if col_best[j] != i:
                continue
            if core[i, j] <= p[i, ib.size] or core[i, j] <= p[ia.size, j]:
                continue
            key = (int(ia[i]), int(ib[j]))
            w = float(core[i, j])
            if w > best.get(key, (-1.0, -1))[0]:
                best[key] = (w, k)
    keys = sorted(best)
    pre_idx = np.array([key[0] for key in keys], dtype=np.int64)
    intra_idx = np.array([key[1] for key in keys], dtype=np.int64)
    weights = np.array([best[key][0] for key in keys], dtype=np.float64)
    return pre_idx, intra_idx, weights, np.array([best[key][1] for key in keys], dtype=np.int64)


def loop_ground_truth(pre_view, intra_view, overlap, T_gt, positive_overlap, radius):
    """``prepare_sample``'s per-pair loop: (fine_pairs, gt_fine for them)."""
    fine_pairs, gt_fine = [], {}
    for a, b in np.argwhere(overlap > positive_overlap):
        key = (int(a), int(b))
        gt_fine[key] = loop_ground_truth_patch_matches(pre_view, intra_view, key,
                                                       T_gt, radius)
        if gt_fine[key][0].size > 0:
            fine_pairs.append(key)
    return fine_pairs, {key: gt_fine[key] for key in fine_pairs}


def overlap_coarse_loss(pre_feats, intra_feats, overlap):
    """``matching.coarse_loss`` as it derived its masks, slopes and anchors
    from the (M_pre, M_intra) overlap at every call, dense over every cell."""
    pos_mask = overlap > POSITIVE_OVERLAP
    neg_mask = overlap == 0.0
    if not pos_mask.any():
        raise NoPositivePairsError("no positive superpoint pairs in this sample")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NonFiniteError
        d2 = pre_feats.data @ intra_feats.data.T * -2.0 + 2.0
    ad.require_finite(d2)
    dists = np.sqrt(np.maximum(d2, 0.0) + 1e-12)
    # the positive and negative arguments, and their slopes in the distance
    slopes = (LOG_SCALE * np.sqrt(np.where(pos_mask, overlap, 0.0)),
              np.full(dists.shape, -LOG_SCALE))
    args = ((dists - POS_MARGIN) * slopes[0], (NEG_MARGIN - dists) * LOG_SCALE)

    losses, g_dists = [], np.zeros_like(dists)
    for view in (np.asarray, np.transpose):     # anchors along rows, then columns
        masks = view(pos_mask), view(neg_mask)
        valid = masks[0].any(axis=1) & masks[1].any(axis=1)
        if not valid.any():
            continue
        z, g_z = 0.0, 0.0
        for arg, mask, slope in zip(args, masks, slopes):
            a = np.where(mask[valid], view(arg)[valid], -np.inf)
            top = np.max(a, axis=1, keepdims=True)
            e = np.exp(a - top)
            total = np.sum(e, axis=1, keepdims=True)
            z = z + np.log(total) + top
            g_z = g_z + e / total * view(slope)[valid]
        losses.append(np.mean(np.logaddexp(0.0, z)))
        view(g_dists)[valid] += expit(z) / valid.sum() * g_z
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


def per_step_context(ctx, x):
    """``ctx`` reading the per-input-point ``x`` pooled onto level 0 and no
    level-0 mix, so that the network's first convolution forms it, as every
    forward did before its context held the input and its mix."""
    feats = ad.scatter_mean(x, ctx.pyramid.input_to_level0)
    return replace(ctx, input_feats=feats, input_mix=None)


def per_step_seg_forward(params, prepared):
    """``networks.seg_forward`` as it pooled the [r, g, b, 1] input onto
    level 0 and mixed it at every call."""
    cloud = prepared.sample.intraoperative
    raw = np.hstack([cloud.colors, np.ones((len(cloud), 1))])
    return networks.seg_forward(params, per_step_context(prepared.seg_ctx, Tensor(raw)))


def per_step_training_loss(params, prepared, overlap, mask, rng, n_fine_pairs):
    """``pipeline.training_loss`` as it fed the backbone a fresh input of
    ones on the preoperative cloud and ``mask`` on the intraoperative one,
    and scored the circle loss from ``overlap``, at every step."""
    ones = Tensor(np.ones((len(prepared.sample.preoperative), 1)))
    sp_pre, dense_pre = reg_backbone_forward(params, per_step_context(prepared.reg_ctx_pre, ones))
    intra_ctx = per_step_context(prepared.reg_ctx_intra, mask)
    sp_intra, dense_intra = reg_backbone_forward(params, intra_ctx)
    c_loss = overlap_coarse_loss(l2_normalize_rows(sp_pre), l2_normalize_rows(sp_intra),
                                 overlap)
    n_usable = len(prepared.gt_pairs)
    pick = np.arange(n_usable)
    if n_usable > n_fine_pairs:
        pick = np.sort(rng.choice(n_usable, size=n_fine_pairs, replace=False))
    pairs = prepared.gt_pairs[pick]
    n_rows = prepared.pre_view.sizes[pairs[:, 0]]
    n_cols = prepared.intra_view.sizes[pairs[:, 1]]
    probs = normalize_scores_with_slack(
        patch_scores(dense_pre, dense_intra, prepared.pre_view, prepared.intra_view, pairs),
        n_rows, n_cols)
    f_loss = fine_loss(probs, prepared.gt_cols[pick], n_rows, n_cols)
    return DualLoss(ad.add(c_loss, f_loss), c_loss, f_loss)
