"""Classical registration baselines: trimmed ICP and RANSAC + ICP.

Both return the pre->intra pose, but ICP solves the other way round: it
moves the partial intraoperative cloud onto a k-d tree of the complete
preoperative one and returns the inverse of that pose, the model/data roles
of Besl & McKay (PAMI 1992).  Every intra bone point has a pre counterpart,
but the converse does not hold: the pre points of unexposed bone have none
in the intra cloud.  So only intra->pre queries can all find true
correspondences, and the trim is left to drop intra tissue, as in trimmed
ICP for partial overlap (Chetverikov et al., ICPR 2002).  Each round makes
one tree query per intra point.

Trimmed ICP alternates exact nearest-neighbor correspondence with a
Procrustes solve, discarding the worst ``ICP_TRIM_FRACTION`` of
correspondences by distance each round; the trimmed RMS is non-increasing.
It stops after ``ICP_MAX_ITER`` rounds or when the RMS improves by less than
``ICP_TOL``.  RANSAC matches hand-crafted local descriptors (distance +
normal-angle histograms of ``DESCRIPTOR_BINS`` bins each over radius
neighborhoods, normals from ``NORMAL_NEIGHBORS`` neighbors) mutually, keeps
the ``RANSAC_CANDIDATES`` strongest, samples ``RANSAC_ITERATIONS`` 3-point
hypotheses, scores them by inliers within ``RANSAC_INLIER_RADIUS``, and
refines the winner with ICP.  Both are deterministic given their inputs and
seed.

The descriptors take their normals, unoriented, from ``estimate_normals``
and their pairs from a k-d tree's pair list, in fixed-size blocks of pairs.
Each pair within the radius is measured once; its distance bin and its bin
of |cos| between the two normals (``matching.histogram_bins``) form one
joint code, which a single ``np.bincount`` counts into both endpoints'
``DESCRIPTOR_BINS`` x ``DESCRIPTOR_BINS`` cells, and each histogram is a
marginal of those cells.
Mutual matching walks the source descriptors in fixed-size row blocks: each
block's similarities to every target give its rows' best matches, and a
running column maximum gives each target's, so the N_src x N_tgt similarity
matrix is never held.
RANSAC draws its hypotheses one at a time from the generator, then fits
them in stacks with ``matching.procrustes_stack`` and counts their inliers,
so the counts and the first-best winner are those of a sequential scan.
ICP starts from the winner's pre->intra pose as ``weighted_procrustes``
solves it on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from segreg.geometry import PointCloud, RigidTransform
from segreg.kpconv import SparseCloudError, local_reference_frames, neighbor_offsets
from segreg.matching import (
    histogram_bins,
    normalize_counts,
    procrustes_stack,
    weighted_procrustes,
)

__all__ = ["ICPReport", "icp", "ransac_icp", "estimate_normals", "local_descriptors"]

ICP_MAX_ITER = 100           # ICP rounds at most
ICP_TOL = 1e-6               # ICP stops when the trimmed RMS improves less
ICP_TRIM_FRACTION = 0.1      # share of correspondences ICP drops each round
RANSAC_ITERATIONS = 5000     # 3-point hypotheses drawn
RANSAC_INLIER_RADIUS = 0.05  # hypothesis inlier distance
DESCRIPTOR_RADIUS = 0.15     # RANSAC's descriptor neighborhood
RANSAC_CANDIDATES = 600      # strongest mutual descriptor matches kept
DESCRIPTOR_BINS = 8          # bins per descriptor histogram
NORMAL_NEIGHBORS = 12        # neighbors of a descriptor's normal estimate

_PAIR_BLOCK = 1 << 16  # neighbor pairs binned per pass in local_descriptors
_MATCH_BLOCK = 256  # source descriptors matched per pass in _mutual_matches
_HYPOTHESIS_BLOCK = 128  # RANSAC hypotheses solved and scored per stack


@dataclass
class ICPReport:
    """``transform`` maps the source (pre) cloud onto the target (intra);
    ``final_rms`` is the trimmed RMS of the target->source distances in the
    last round that was measured."""
    transform: RigidTransform
    iterations_used: int
    final_rms: float
    converged: bool


def icp(source: PointCloud, target: PointCloud,
        init: RigidTransform | None = None) -> ICPReport:
    """Trimmed point-to-point ICP aligning ``source`` to ``target``, from
    ``init`` (identity by default); both poses map source onto target.

    ``source`` is the complete cloud: it is indexed once in a k-d tree, and
    the ``target`` points, moved by the inverse pose, query it each round and
    drop the worst ``ICP_TRIM_FRACTION`` of their correspondences.  The
    solved target->source pose is inverted on return.
    """
    if len(source) < 3 or len(target) < 3:
        raise SparseCloudError("ICP needs at least 3 points per cloud")
    T = RigidTransform.identity() if init is None else init.invert()
    src, tgt = source.positions, target.positions
    tree = cKDTree(src)
    keep = max(3, int(np.ceil(len(target) * (1.0 - ICP_TRIM_FRACTION))))
    prev_rms = np.inf
    rms = np.inf
    converged = False
    it = 0
    for it in range(1, ICP_MAX_ITER + 1):
        moved = T.apply_points(tgt)
        dists, nn = tree.query(moved)
        order = np.argsort(dists, kind="stable")[:keep]
        rms = float(np.sqrt(np.mean(dists[order] ** 2)))
        # fixed trim count makes the trimmed RMS provably non-increasing
        if rms > prev_rms + 1e-9:
            raise RuntimeError("trimmed RMS increased")
        if prev_rms - rms < ICP_TOL:
            converged = True
            break
        prev_rms = rms
        try:
            T = weighted_procrustes(tgt[order], src[nn[order]], np.ones(keep))
        except ValueError:
            return ICPReport(T.invert(), it, rms, False)
    return ICPReport(T.invert(), it, rms, converged)


def estimate_normals(cloud: PointCloud) -> np.ndarray:
    """Unoriented unit normals: least-spread axis of NORMAL_NEIGHBORS neighbors,
    signed as ``eigh`` returns it; (0, 0, 1) rows for fewer than 3 points."""
    pos = cloud.positions
    if len(pos) < 3:
        return np.tile((0.0, 0.0, 1.0), (len(pos), 1))
    _, nn = cKDTree(pos).query(pos, k=min(NORMAL_NEIGHBORS, len(pos)))
    return local_reference_frames(neighbor_offsets(pos, nn))


def local_descriptors(cloud: PointCloud, radius: float) -> np.ndarray:
    """Distance + normal-angle histogram signatures over radius neighborhoods.

    Row i holds the histograms of |p_j - p_i| over [0, radius] and of
    |n_i . n_j| over [0, 1] for every other point j within ``radius``, L2
    normalized; a point with no neighbor gets a zero row.  Each unordered
    pair is measured once and counted into both endpoints' rows.
    """
    pos = cloud.positions
    normals = estimate_normals(cloud)
    pairs = cKDTree(pos).query_pairs(radius, output_type="ndarray")
    cells = DESCRIPTOR_BINS * DESCRIPTOR_BINS
    counts = np.zeros(len(cloud) * cells, dtype=np.int64)
    for start in range(0, len(pairs), _PAIR_BLOCK):
        i, j = pairs[start:start + _PAIR_BLOCK].T
        # |p_j - p_i| with the squares summed in np.linalg.norm's order
        sq = np.take(pos, j, axis=0) - np.take(pos, i, axis=0)
        sq *= sq
        d = sq[:, 0] + sq[:, 1]
        d += sq[:, 2]
        np.sqrt(d, out=d)
        # unoriented normals: use |cos| of the angle between neighbor normals
        cos = np.abs(np.einsum("ij,ij->i", np.take(normals, i, axis=0),
                               np.take(normals, j, axis=0)))
        code = histogram_bins(d, radius, DESCRIPTOR_BINS) * DESCRIPTOR_BINS
        code += histogram_bins(cos, 1.0, DESCRIPTOR_BINS)
        counts += np.bincount(np.concatenate([i * cells + code, j * cells + code]),
                              minlength=counts.size)
    joint = counts.reshape(len(cloud), DESCRIPTOR_BINS, DESCRIPTOR_BINS)
    return normalize_counts(np.hstack([joint.sum(axis=2), joint.sum(axis=1)]))


def _mutual_matches(src_desc: np.ndarray,
                    tgt_desc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best target per source row, best source per target, and row strengths.

    Equal to ``np.argmax`` along each axis of ``src_desc @ tgt_desc.T`` and
    to the row maxima, without holding that matrix: source rows go in blocks
    of ``_MATCH_BLOCK``, and a target's running best moves only to a block
    whose column maximum is strictly greater, so the first maximal row wins
    across blocks as ``np.argmax``'s does within one.  A block looks up that
    row only for the columns whose best it moves.  BLAS may round a
    block's product in the last bit unlike the whole one's; exact products,
    such as those of small-integer rows, are the same in every block shape.
    """
    fwd = np.empty(len(src_desc), dtype=np.intp)
    strength = np.empty(len(src_desc))
    bwd = np.zeros(len(tgt_desc), dtype=np.intp)
    best = np.full(len(tgt_desc), -np.inf)
    for start in range(0, len(src_desc), _MATCH_BLOCK):
        block = slice(start, start + _MATCH_BLOCK)
        sim = src_desc[block] @ tgt_desc.T
        fwd[block] = np.argmax(sim, axis=1)
        strength[block] = np.take_along_axis(sim, fwd[block, None], axis=1)[:, 0]
        top = sim.max(axis=0)
        better = np.flatnonzero(top > best)
        best[better] = top[better]
        bwd[better] = start + np.argmax(sim[:, better], axis=0)
    return fwd, bwd, strength


def _hypothesis_inliers(picks: np.ndarray, cand_src: np.ndarray,
                        cand_tgt: np.ndarray) -> np.ndarray:
    """Inlier counts of the 3-point fits on the rows of ``picks``.

    One ``procrustes_stack`` call fits every row with unit weights; a row
    gets -1 where the fit is invalid, as ``weighted_procrustes`` would raise.
    """
    R, t, valid = procrustes_stack(cand_src[picks], cand_tgt[picks], np.ones(picks.shape))
    # residual norms |R p + t - q|, squares summed in np.linalg.norm's order
    diff = cand_src @ R.transpose(0, 2, 1)
    diff += t[:, None]
    diff -= cand_tgt
    diff *= diff
    sq = diff[..., 0] + diff[..., 1]
    sq += diff[..., 2]
    return np.where(valid, np.sum(np.sqrt(sq) <= RANSAC_INLIER_RADIUS, axis=1), -1)


def ransac_icp(source: PointCloud, target: PointCloud,
               rng: np.random.Generator) -> ICPReport:
    """Descriptor-matched RANSAC alignment refined by trimmed ICP."""
    if len(source) < 10 or len(target) < 10:
        raise SparseCloudError("RANSAC needs at least 10 points per cloud")
    src_desc = local_descriptors(source, DESCRIPTOR_RADIUS)
    tgt_desc = local_descriptors(target, DESCRIPTOR_RADIUS)
    fwd, bwd, strength = _mutual_matches(src_desc, tgt_desc)
    mutual = np.flatnonzero(bwd[fwd] == np.arange(len(source)))
    if mutual.size < 3:
        raise ValueError("no mutual descriptor matches between the clouds")
    if mutual.size > RANSAC_CANDIDATES:
        mutual = mutual[np.argsort(-strength[mutual], kind="stable")[:RANSAC_CANDIDATES]]
    cand_src = source.positions[mutual]
    cand_tgt = target.positions[fwd[mutual]]

    m = mutual.size
    picks = np.array([rng.choice(m, size=3, replace=False)
                      for _ in range(RANSAC_ITERATIONS)], dtype=np.int64).reshape(-1, 3)
    counts = np.empty(RANSAC_ITERATIONS, dtype=np.int64)
    for start in range(0, RANSAC_ITERATIONS, _HYPOTHESIS_BLOCK):
        block = slice(start, start + _HYPOTHESIS_BLOCK)
        counts[block] = _hypothesis_inliers(picks[block], cand_src, cand_tgt)
    if not np.any(counts >= 0):
        raise ValueError("RANSAC found no valid hypothesis")
    # the first best count wins, as in a sequential scan; its pose is re-solved
    # by the scalar routine so ICP starts from exactly that fit
    best = picks[np.argmax(counts)]
    best_T = weighted_procrustes(cand_src[best], cand_tgt[best], np.ones(3))
    return icp(source, target, init=best_T)
