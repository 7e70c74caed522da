"""End-to-end registration pipeline: mask, backbone, matching, pose.

``prepare_sample`` precomputes what training and inference both read and
that depends only on geometry (pyramids, influence operators, the fixed
network inputs and their level-0 mixes, patches, and, when ground truth is
available, the circle loss's targets and a table of ground-truth patch
matches), so a step does only the work that depends on the parameters.
``training_loss`` assembles the differentiable dual loss on a tape for an
intraoperative context that holds the step's mask; ``register_pair`` runs
deterministic inference (argmax mask, no noise) and returns the predicted
pose.  Both share one backbone pass over the pair and score their
superpoint pairs (ground-truth pairs in training, ``coarse_match``'s at
inference) as one stack through ``matching.patch_scores`` and
``matching.normalize_scores_with_slack``.

``register_pair`` has one pose path: the best supported of
``matching.local_to_global``'s hypotheses (the superpoint fit, path
"coarse", or one coarse pair's fine matches, "local"), re-solved on the
fine matches by ``refine_transform``.  Its ``info`` reports the winner's
votes and its margin over the runner-up (its own votes when no other
hypothesis is valid), a confidence for the pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import RigidTransform
from segreg.gumbel import hard_mask
from segreg.matching import (
    POSITIVE_OVERLAP,
    CoarseTargets,
    DualLoss,
    PatchedSuperpoints,
    build_patches,
    coarse_loss,
    coarse_targets,
    coarse_match,
    distance_histograms,
    fine_loss,
    fine_match,
    ground_truth_patch_matches,
    l2_normalize_rows,
    local_to_global,
    normalize_scores_with_slack,
    patch_scores,
    refine_transform,
    superpoint_overlap_labels,
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
    """Matching settings, none of which a caller sets: ``patch_size``, the
    level-0 points kept per superpoint patch, is a class constant like the
    network geometry it groups.  The other matching settings are
    ``matching``'s module constants, and the radii follow
    ``RegNetConfig.initial_voxel``: ground-truth fine matches lie within one
    voxel, pose votes and refinement inliers within 2.5 voxels."""

    patch_size: ClassVar[int] = 32


@dataclass
class PreparedSample:
    """Everything a training step or a registration reads of one sample that
    depends on its geometry alone, built once by :func:`prepare_sample`.

    The three contexts hold each cloud's pyramid, its row maps (range
    checked, group sizes counted once), its influence operators with their
    transposes, and its network's constant input pooled onto level 0 with
    its level-0 mix; a step makes ``reg_ctx_intra`` hold its mask
    (``BackboneContext.holding``).  With ground truth,
    ``targets`` are the circle loss's targets of the superpoint overlap, and
    ``gt_pairs`` / ``gt_cols`` the positive superpoint pairs (F, 2) with a
    ground-truth patch match, in argwhere order, and their
    ``ground_truth_patch_matches`` table.  Each is what the step computed
    from the same inputs by the same operations, so a step that reads it
    gets the same bits; the overlap itself and the neighbor tables are not
    kept, since no step reads them.
    """

    sample: RegistrationSample
    seg_ctx: BackboneContext
    reg_ctx_pre: BackboneContext
    reg_ctx_intra: BackboneContext
    pre_view: PatchedSuperpoints
    intra_view: PatchedSuperpoints
    targets: CoarseTargets | None = None
    gt_pairs: np.ndarray | None = None
    gt_cols: np.ndarray | None = None
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
    prepared = PreparedSample(sample, seg_ctx, reg_ctx_pre, reg_ctx_intra,
                              pre_view, intra_view, sample_id=sample_id)
    if with_ground_truth:
        overlap = superpoint_overlap_labels(pre_view, intra_view, sample.T_gt)
        prepared.targets = coarse_targets(overlap)
        pairs = np.argwhere(overlap > POSITIVE_OVERLAP)
        cols = ground_truth_patch_matches(pre_view, intra_view, pairs, sample.T_gt,
                                          reg_cfg.initial_voxel)
        usable = (cols >= 0).any(axis=1)
        prepared.gt_pairs, prepared.gt_cols = pairs[usable], cols[usable]
    return prepared


def _pair_forward(params: dict[str, Tensor], prepared: PreparedSample,
                  intra_ctx: BackboneContext) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Backbone on the preoperative context and ``intra_ctx``: normalized
    superpoint features of pre and intra, then their dense features."""
    sp_pre, dense_pre = reg_backbone_forward(params, prepared.reg_ctx_pre)
    sp_intra, dense_intra = reg_backbone_forward(params, intra_ctx)
    return l2_normalize_rows(sp_pre), l2_normalize_rows(sp_intra), dense_pre, dense_intra


def training_loss(params: dict[str, Tensor], prepared: PreparedSample,
                  intra_ctx: BackboneContext, rng: np.random.Generator,
                  n_fine_pairs: int) -> DualLoss:
    """Assemble the dual loss for one sample on the active tape.

    ``intra_ctx`` is ``prepared.reg_ctx_intra`` holding the (N_intra, 1)
    intraoperative mask, the registration backbone's intra input: the
    straight-through Gumbel mask (end to end, gradients reach the
    segmentation logits) or a constant hard mask (two-step mode, frozen
    segmentation).  ``rng`` picks at most ``n_fine_pairs`` of the positive
    superpoint pairs for the fine loss.
    """
    if prepared.targets is None:
        raise ValueError("training loss needs ground-truth overlap labels")
    sp_pre_n, sp_intra_n, dense_pre, dense_intra = _pair_forward(params, prepared, intra_ctx)
    c_loss = coarse_loss(sp_pre_n, sp_intra_n, prepared.targets)

    n_usable = len(prepared.gt_pairs)       # fine_loss raises ValueError on 0
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


def segmentation_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean 2-class cross entropy, stabilized through the softmax op."""
    probs = ad.softmax(logits, axis=-1)
    n = logits.shape[0]
    flat = ad.reshape(probs, (n * 2, 1))
    picks = ad.gather_rows(flat, ad.RowMap(np.arange(n) * 2 + labels.astype(np.int64), n * 2))
    return ad.neg(ad.mean_(ad.log(ad.add(picks, 1e-12))))


@dataclass
class RegistrationResult:
    transform: RigidTransform
    mask: np.ndarray                  # per intraoperative input point
    info: dict


def register_pair(params: dict[str, Tensor], prepared: PreparedSample,
                  seg_cfg: SegNetConfig, reg_cfg: RegNetConfig,
                  match_cfg: MatcherConfig) -> RegistrationResult:
    """Deterministic inference: argmax mask, coarse-to-fine matching, pose.

    ``prepared`` already holds what ``seg_cfg`` and ``match_cfg`` decide (the
    contexts and patches), so neither is read; they stay in the signature for
    callers that pass all five.  ``reg_cfg``'s voxel sets the inlier radius.
    ``info`` holds the match counts (``n_coarse``, ``n_fine``), the fine
    matches the refined pose places within that radius (``inliers``; 0 means
    no match supports the pose), the mask's bone share (``mask_mean``), the
    winning hypothesis (``path``) and its ``votes`` and ``vote_margin``.
    """
    mask = hard_mask(seg_forward(params, prepared.seg_ctx))

    intra_ctx = prepared.reg_ctx_intra.holding(Tensor(mask.astype(np.float64).reshape(-1, 1)))
    sp_pre, sp_intra, dense_pre, dense_intra = _pair_forward(params, prepared, intra_ctx)

    pre_view, intra_view = prepared.pre_view, prepared.intra_view
    bonus = distance_histograms(pre_view) @ distance_histograms(intra_view).T
    pairs, scores = coarse_match(sp_pre.data, sp_intra.data, geom_bonus=bonus)
    pre_idx, intra_idx, weights, pair_idx = fine_match(dense_pre.data, dense_intra.data,
                                                       pairs, pre_view, intra_view)
    fine = (pre_view.fine_points[pre_idx], intra_view.fine_points[intra_idx], weights)
    coarse = (pre_view.points[pairs[:, 0]], intra_view.points[pairs[:, 1]], scores)
    inlier_radius = 2.5 * reg_cfg.initial_voxel
    winner, hypothesis, votes = local_to_global(coarse, fine, pair_idx, inlier_radius)
    if hypothesis is None:
        raise RegistrationError("degenerate correspondence set: no valid pose hypothesis")
    transform, inliers = refine_transform(hypothesis, *fine, inlier_radius)
    info = {
        "n_coarse": int(len(pairs)),
        "n_fine": int(len(weights)),
        "inliers": inliers,
        "mask_mean": float(mask.mean()),
        "path": "coarse" if winner == 0 else "local",
        "votes": int(votes[winner]),
        "vote_margin": int(votes[winner] - np.delete(votes, winner).max(initial=0)),
    }
    return RegistrationResult(transform, mask, info)
