"""End-to-end registration pipeline: mask, backbone, matching, pose.

``prepare_sample`` precomputes everything that depends only on geometry
(pyramids, influence tables, patches, histogram signatures, and, when ground
truth is available, superpoint overlap and per-patch ground-truth matches).
``training_loss`` assembles the differentiable dual loss on a tape;
``register_pair`` runs deterministic inference (argmax mask, no noise) and
returns the predicted pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import RigidTransform
from segreg.gumbel import hard_mask, straight_through_mask
from segreg.matching import (
    DualLoss,
    MatchSet,
    PatchedSuperpoints,
    RefineResult,
    build_patches,
    coarse_loss,
    coarse_match,
    distance_histograms,
    fine_loss,
    fine_match,
    ground_truth_patch_matches,
    l2_normalize_rows,
    normalize_scores_with_slack,
    refine_transform,
    superpoint_overlap_labels,
    weighted_procrustes,
)
from segreg.networks import (
    BackboneContext,
    RegNetConfig,
    SegNetConfig,
    build_context,
    reg_backbone_forward,
    seg_forward,
)
from segreg.phantom import RegistrationSample

__all__ = [
    "MatcherConfig",
    "PreparedSample",
    "RegistrationResult",
    "prepare_sample",
    "training_loss",
    "segmentation_cross_entropy",
    "register_pair",
    "RegistrationError",
]


class RegistrationError(RuntimeError):
    """Raised when inference cannot produce a valid pose."""


@dataclass(frozen=True)
class MatcherConfig:
    patch_size: int = 32
    k_corr: int = 48
    bonus_weight: float = 0.2
    hist_bins: int = 12
    hist_max_dist: float = 0.3
    overlap_patch_radius: float = 0.05
    positive_overlap: float = 0.1
    fine_match_radius: float = 0.025     # = registration initial voxel
    inlier_radius: float = 0.0625        # = 2.5 x initial voxel
    refine_iterations: int = 5
    norm_iterations: int = 5


@dataclass
class PreparedSample:
    sample: RegistrationSample
    seg_ctx: BackboneContext
    reg_ctx_pre: BackboneContext
    reg_ctx_intra: BackboneContext
    pre_view: PatchedSuperpoints
    intra_view: PatchedSuperpoints
    pre_hist: np.ndarray
    intra_hist: np.ndarray
    overlap: np.ndarray | None = None
    positive_pairs: np.ndarray | None = None
    gt_fine: dict = field(default_factory=dict)
    sample_id: str = ""


def prepare_sample(sample: RegistrationSample, seg_cfg: SegNetConfig,
                   reg_cfg: RegNetConfig, match_cfg: MatcherConfig,
                   with_ground_truth: bool = True,
                   sample_id: str = "") -> PreparedSample:
    seg_ctx = build_context(sample.intraoperative, seg_cfg)
    reg_ctx_pre = build_context(sample.preoperative, reg_cfg)
    reg_ctx_intra = build_context(sample.intraoperative, reg_cfg)
    pre_view = build_patches(reg_ctx_pre.pyramid, match_cfg.patch_size)
    intra_view = build_patches(reg_ctx_intra.pyramid, match_cfg.patch_size)
    pre_hist = distance_histograms(pre_view, match_cfg.hist_bins, match_cfg.hist_max_dist)
    intra_hist = distance_histograms(intra_view, match_cfg.hist_bins, match_cfg.hist_max_dist)
    prepared = PreparedSample(sample, seg_ctx, reg_ctx_pre, reg_ctx_intra,
                              pre_view, intra_view, pre_hist, intra_hist,
                              sample_id=sample_id)
    if with_ground_truth:
        overlap = superpoint_overlap_labels(pre_view, intra_view, sample.T_gt,
                                            match_cfg.overlap_patch_radius)
        prepared.overlap = overlap
        pos = np.argwhere(overlap > match_cfg.positive_overlap)
        prepared.positive_pairs = pos
        for a, b in pos:
            prepared.gt_fine[(int(a), int(b))] = ground_truth_patch_matches(
                pre_view, intra_view, (a, b), sample.T_gt,
                match_cfg.fine_match_radius)
    return prepared


def _patch_scores_on_tape(dense_pre: Tensor, dense_intra: Tensor,
                          ia: np.ndarray, ib: np.ndarray) -> Tensor:
    scale = 1.0 / np.sqrt(dense_pre.shape[1])
    rows = ad.gather_rows(dense_pre, ia)
    cols = ad.gather_rows(dense_intra, ib)
    s = ad.mul(ad.matmul(rows, ad.transpose2d(cols)), scale)
    s = ad.concat([s, Tensor(np.zeros((ia.size, 1)))], axis=1)
    s = ad.concat([s, Tensor(np.zeros((1, ib.size + 1)))], axis=0)
    return s


def training_loss(params: dict[str, Tensor], prepared: PreparedSample,
                  seg_cfg: SegNetConfig, reg_cfg: RegNetConfig,
                  match_cfg: MatcherConfig, rng: np.random.Generator,
                  tau: float = 1.0, n_fine_pairs: int = 12,
                  mask_override: np.ndarray | None = None) -> tuple[DualLoss, dict]:
    """Assemble the dual loss for one sample on the active tape.

    With ``mask_override`` the segmentation network is bypassed and the given
    hard mask is fed as a constant (two-step mode, frozen segmentation).
    """
    if prepared.overlap is None or prepared.positive_pairs is None:
        raise ValueError("training loss needs ground-truth overlap labels")
    info: dict = {}
    if mask_override is not None:
        mask = Tensor(mask_override.astype(np.float64).reshape(-1, 1))
        info["mask_mean"] = float(mask_override.mean())
    else:
        logits = seg_forward(params, prepared.seg_ctx, seg_cfg)
        mask, hard, _ = straight_through_mask(logits, tau, rng)
        info["mask_mean"] = float(hard.mean())

    n_pre = len(prepared.sample.preoperative)
    ones = Tensor(np.ones((n_pre, 1)))
    sp_pre, dense_pre = reg_backbone_forward(params, prepared.reg_ctx_pre, ones, reg_cfg)
    sp_intra, dense_intra = reg_backbone_forward(params, prepared.reg_ctx_intra, mask, reg_cfg)

    sp_pre_n = l2_normalize_rows(sp_pre)
    sp_intra_n = l2_normalize_rows(sp_intra)
    c_loss = coarse_loss(sp_pre_n, sp_intra_n, prepared.overlap,
                         pos_threshold=match_cfg.positive_overlap)

    pos = prepared.positive_pairs
    usable = [tuple(p) for p in pos if prepared.gt_fine[tuple(p)][0].size > 0]
    if not usable:
        raise ValueError("no positive pair carries ground-truth fine matches")
    if len(usable) > n_fine_pairs:
        pick = rng.choice(len(usable), size=n_fine_pairs, replace=False)
        usable = [usable[i] for i in sorted(pick)]
    mats, gts = [], []
    for a, b in usable:
        ia = prepared.pre_view.patch_indices[a]
        ib = prepared.intra_view.patch_indices[b]
        scores = _patch_scores_on_tape(dense_pre, dense_intra, ia, ib)
        mats.append(normalize_scores_with_slack(scores, match_cfg.norm_iterations))
        gts.append(prepared.gt_fine[(a, b)])
    f_loss = fine_loss(mats, gts)
    info["n_fine_pairs"] = len(usable)
    return DualLoss(ad.add(c_loss, f_loss), c_loss, f_loss), info


def segmentation_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean 2-class cross entropy, stabilized through the softmax op."""
    probs = ad.softmax(logits, axis=-1)
    n = logits.shape[0]
    flat = ad.reshape(probs, (n * 2, 1))
    picks = ad.gather_rows(flat, np.arange(n) * 2 + labels.astype(np.int64))
    return ad.neg(ad.mean_(ad.log(ad.add(picks, 1e-12))))


@dataclass
class RegistrationResult:
    transform: RigidTransform
    mask: np.ndarray                  # per intraoperative input point
    matches: MatchSet
    refine: RefineResult
    info: dict


def register_pair(params: dict[str, Tensor], prepared: PreparedSample,
                  seg_cfg: SegNetConfig, reg_cfg: RegNetConfig,
                  match_cfg: MatcherConfig) -> RegistrationResult:
    """Deterministic inference: argmax mask, coarse-to-fine matching, pose."""
    logits = seg_forward(params, prepared.seg_ctx, seg_cfg)
    mask = hard_mask(logits)

    n_pre = len(prepared.sample.preoperative)
    ones = Tensor(np.ones((n_pre, 1)))
    mask_feats = Tensor(mask.astype(np.float64).reshape(-1, 1))
    sp_pre, dense_pre = reg_backbone_forward(params, prepared.reg_ctx_pre, ones, reg_cfg)
    sp_intra, dense_intra = reg_backbone_forward(params, prepared.reg_ctx_intra,
                                                 mask_feats, reg_cfg)

    bonus = prepared.pre_hist @ prepared.intra_hist.T
    pairs, scores = coarse_match(l2_normalize_rows(sp_pre).data,
                                 l2_normalize_rows(sp_intra).data,
                                 match_cfg.k_corr, geom_bonus=bonus,
                                 bonus_weight=match_cfg.bonus_weight)
    matches = fine_match(dense_pre.data, dense_intra.data, pairs,
                         prepared.pre_view, prepared.intra_view,
                         match_cfg.norm_iterations)
    pre_fine = prepared.pre_view.fine_points
    intra_fine = prepared.intra_view.fine_points

    refined = None
    path = "fine"
    if len(matches) >= 3:
        try:
            T0 = weighted_procrustes(matches, pre_fine, intra_fine)
            refined = refine_transform(T0, matches, pre_fine, intra_fine,
                                       match_cfg.refine_iterations,
                                       match_cfg.inlier_radius)
            if refined.flagged:
                refined = None
        except ValueError:
            refined = None
    if refined is None:
        # fall back to superpoint-level correspondences from the coarse stage
        path = "coarse"
        sp_matches = MatchSet(pairs[:, 0], pairs[:, 1], scores)
        try:
            T0 = weighted_procrustes(sp_matches, prepared.pre_view.points,
                                     prepared.intra_view.points)
        except ValueError as exc:
            raise RegistrationError(f"degenerate correspondence set: {exc}") from exc
        coarse_refined = refine_transform(
            T0, sp_matches, prepared.pre_view.points, prepared.intra_view.points,
            match_cfg.refine_iterations, inlier_radius=2.0 * match_cfg.inlier_radius)
        refined = coarse_refined
        if len(matches) >= 3:
            # polish with the fine correspondences once roughly aligned
            fine_refined = refine_transform(coarse_refined.transform, matches,
                                            pre_fine, intra_fine,
                                            match_cfg.refine_iterations,
                                            match_cfg.inlier_radius)
            if not fine_refined.flagged:
                refined = fine_refined
                path = "coarse+fine"
    info = {
        "n_coarse": int(len(pairs)),
        "n_fine": int(len(matches)),
        "inliers": refined.inlier_count,
        "refine_flagged": refined.flagged,
        "mask_mean": float(mask.mean()),
        "path": path,
    }
    return RegistrationResult(refined.transform, mask, matches, refined, info)
