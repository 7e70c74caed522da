"""Segmentation and registration convolution networks.

Both networks share the same construction: a U-Net-style encoder over a
point pyramid (one kernel-point convolution block per stage, average-pooled
between stages via voxel provenance) and a decoder that upsamples with 1-NN
gathers, concatenates skip features, and applies pointwise linear blocks.
Feature normalization standardizes each channel over the points of the
current level (variance floor ``NORM_EPS``) and applies a learned affine and a
leaky ReLU of slope ``LEAKY_SLOPE``, the same in both networks; batch size is
always 1.

The segmentation network consumes [r, g, b, 1] input features and emits
2-class logits at the raw input resolution.  The registration backbone
consumes a single per-point feature (constant 1 for the preoperative cloud,
the straight-through mask for the intraoperative one) and returns bottleneck
superpoint features plus dense decoder features; the same parameters process
both clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import PointCloud
from segreg.kpconv import (
    SIGMA_RATIO,
    PointPyramid,
    build_pyramid,
    conv_influence,
    kernel_disposition,
    kpconv_apply,
    local_reference_frames,
    neighbor_offsets,
)

__all__ = [
    "SegNetConfig",
    "RegNetConfig",
    "BackboneContext",
    "build_context",
    "init_seg_params",
    "init_reg_params",
    "seg_forward",
    "reg_backbone_forward",
]

NORM_EPS = 1e-5
LEAKY_SLOPE = 0.1


@dataclass(frozen=True)
class SegNetConfig:
    stages: int = 5
    kernel_size: int = 15
    initial_voxel: float = 0.04
    base_radius_mult: float = 2.5
    widths: tuple = (16, 32, 64, 128, 256)
    width_factor: float = 0.25
    max_neighbors: int = 26
    kernel_seed: int = 17


@dataclass(frozen=True)
class RegNetConfig:
    stages: int = 3
    kernel_size: int = 20
    initial_voxel: float = 0.025
    base_radius_mult: float = 7.0
    widths: tuple = (32, 64, 128)
    width_factor: float = 0.25
    max_neighbors: int = 32
    superpoint_dim: int = 32
    dense_dim: int = 16
    kernel_seed: int = 23


def _scaled_widths(cfg: SegNetConfig | RegNetConfig) -> tuple:
    return tuple(max(2, int(round(w * cfg.width_factor))) for w in cfg.widths)


@dataclass
class BackboneContext:
    """A pyramid plus per-level kernel influence tables for one cloud."""

    pyramid: PointPyramid
    influences: list[np.ndarray]


def build_context(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig) -> BackboneContext:
    """Precompute the pyramid and influence tables for one input cloud."""
    pyramid = build_pyramid(cloud, cfg.stages, cfg.initial_voxel,
                            cfg.base_radius_mult, cfg.max_neighbors)
    kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
    # the registration backbone canonicalizes neighborhoods in local reference
    # frames: its features become rotation-invariant, so matching generalizes
    # across unseen poses
    use_frames = isinstance(cfg, RegNetConfig)
    influences = []
    for level, radius in enumerate(pyramid.radii):
        nbr = pyramid.neighbors[level]
        offsets = neighbor_offsets(pyramid.levels[level].positions, nbr)
        frames = local_reference_frames(offsets, nbr) if use_frames else None
        influences.append(conv_influence(offsets, nbr, kernel * radius,
                                         radius / SIGMA_RATIO, frames=frames))
    return BackboneContext(pyramid, influences)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def _uniform(rng, shape, fan_in):
    limit = np.sqrt(3.0 / max(fan_in, 1))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _add_norm(params, name, dim):
    params[f"{name}_gamma"] = Tensor(np.ones((1, dim)), requires_grad=True)
    params[f"{name}_beta"] = Tensor(np.zeros((1, dim)), requires_grad=True)


def _add_conv(params, rng, name, k, cin, cout):
    params[f"{name}_w"] = _uniform(rng, (k, cin, cout), k * cin)
    _add_norm(params, name, cout)


def _add_linear(params, rng, name, cin, cout, norm=True):
    params[f"{name}_w"] = _uniform(rng, (cin, cout), cin)
    params[f"{name}_b"] = Tensor(np.zeros((1, cout)), requires_grad=True)
    if norm:
        _add_norm(params, name, cout)


def init_seg_params(cfg: SegNetConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    w = _scaled_widths(cfg)
    params: dict[str, Tensor] = {}
    cin = 4  # r, g, b, constant 1
    for l in range(cfg.stages):
        _add_conv(params, rng, f"seg_enc{l}", cfg.kernel_size, cin, w[l])
        cin = w[l]
    current = w[-1]
    for l in range(cfg.stages - 2, -1, -1):
        _add_linear(params, rng, f"seg_dec{l}", current + w[l], w[l])
        current = w[l]
    _add_linear(params, rng, "seg_head", current, 2, norm=False)
    return params


def init_reg_params(cfg: RegNetConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    w = _scaled_widths(cfg)
    params: dict[str, Tensor] = {}
    cin = 1  # constant 1 or the segmentation mask
    for l in range(cfg.stages):
        _add_conv(params, rng, f"reg_enc{l}", cfg.kernel_size, cin, w[l])
        cin = w[l]
    _add_linear(params, rng, "reg_sp", w[-1], cfg.superpoint_dim, norm=False)
    current = w[-1]
    for l in range(cfg.stages - 2, -1, -1):
        _add_linear(params, rng, f"reg_dec{l}", current + w[l], w[l])
        current = w[l]
    _add_linear(params, rng, "reg_dense", current, cfg.dense_dim, norm=False)
    return params


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _norm_act(params: dict[str, Tensor], name: str, y: Tensor) -> Tensor:
    """Per-channel standardization over the points, learned affine, leaky ReLU.

    One tape node.  The forward runs the numpy operations of the composed
    mean / sub / mul / mean / add / sqrt / div / mul / add / leaky_relu chain
    in the same order and checks every intermediate for finiteness; the
    backward replays that chain's backward in reverse tape order, so values
    and gradients are bit-identical to it.
    """
    gamma, beta = params[f"{name}_gamma"], params[f"{name}_beta"]
    n = y.shape[0]
    x = y.data
    mu = np.mean(x, axis=0, keepdims=True)
    ad.require_finite(mu)
    centered = x - mu
    ad.require_finite(centered)
    sq = centered * centered
    ad.require_finite(sq)
    var = np.mean(sq, axis=0, keepdims=True)
    ad.require_finite(var)
    std = np.sqrt(var + NORM_EPS)
    ad.require_finite(std)
    normed = centered / std
    ad.require_finite(normed)
    scaled = normed * gamma.data
    ad.require_finite(scaled)
    affine = scaled + beta.data
    ad.require_finite(affine)
    positive = affine > 0.0
    out = np.where(positive, affine, LEAKY_SLOPE * affine)

    def bwd(g):
        g_affine = g * np.where(positive, 1.0, LEAKY_SLOPE)
        ad.accumulate_grad(beta, np.sum(g_affine, axis=0, keepdims=True))
        ad.accumulate_grad(gamma, np.sum(g_affine * normed, axis=0, keepdims=True))
        if not y.requires_grad:
            return
        g_normed = g_affine * gamma.data
        # div(centered, expand(std)); expand sums; sqrt; add eps; mean
        g_std = np.sum((-g_normed * centered) / (std * std), axis=0, keepdims=True)
        g_var = g_std / (2.0 * std)
        g_sq = g_var / n
        # centered's three terms in tape order: div, then both mul operands
        g_centered = g_normed / std + g_sq * centered + g_sq * centered
        # sub(y, expand(mu)), then mean_(y)
        ad.accumulate_grad(y, g_centered)
        g_mu = np.sum(-g_centered, axis=0, keepdims=True)
        ad.accumulate_grad(y, np.broadcast_to(g_mu / n, y.shape))

    requires = y.requires_grad or gamma.requires_grad or beta.requires_grad
    return ad.record_custom(out, requires, bwd)


def _conv_block(params, name, ctx: BackboneContext, level: int, feats: Tensor) -> Tensor:
    y = kpconv_apply(ctx.influences[level], ctx.pyramid.neighbors[level],
                     feats, params[f"{name}_w"])
    return _norm_act(params, name, y)


def _linear_head(params, name, feats: Tensor) -> Tensor:
    b = params[f"{name}_b"]
    return ad.add(ad.matmul(feats, params[f"{name}_w"]),
                  ad.expand(b, (feats.shape[0], b.shape[1])))


def _linear_block(params, name, feats: Tensor) -> Tensor:
    return _norm_act(params, name, _linear_head(params, name, feats))


def _encode_decode(params, prefix, ctx: BackboneContext, feats0: Tensor
                   ) -> tuple[Tensor, Tensor]:
    """Shared U-Net walk; returns (bottleneck features, level-0 features)."""
    pyr = ctx.pyramid
    skips: list[Tensor] = []
    feats = feats0
    for l in range(pyr.stages):
        feats = _conv_block(params, f"{prefix}_enc{l}", ctx, l, feats)
        if l < pyr.stages - 1:
            skips.append(feats)
            feats = ad.scatter_mean(feats, pyr.pools[l], len(pyr.levels[l + 1]))
    bottleneck = feats
    for l in range(pyr.stages - 2, -1, -1):
        up = ad.gather_rows(feats, pyr.ups[l])
        feats = _linear_block(params, f"{prefix}_dec{l}", ad.concat([up, skips[l]]))
    return bottleneck, feats


def seg_forward(params: dict[str, Tensor], ctx: BackboneContext) -> Tensor:
    """Per-point 2-class logits at the raw input resolution."""
    cloud = ctx.pyramid.input_cloud
    if cloud.colors is None:
        raise ValueError("segmentation input cloud must carry colors")
    raw = np.hstack([cloud.colors, np.ones((len(cloud), 1))])
    feats0 = ad.scatter_mean(Tensor(raw), ctx.pyramid.input_to_level0,
                             len(ctx.pyramid.levels[0]))
    _, level0 = _encode_decode(params, "seg", ctx, feats0)
    logits = _linear_head(params, "seg_head", level0)
    return ad.gather_rows(logits, ctx.pyramid.input_to_level0)


def reg_backbone_forward(params: dict[str, Tensor], ctx: BackboneContext,
                         point_features: Tensor) -> tuple[Tensor, Tensor]:
    """Superpoint features from the bottleneck and dense decoder features.

    ``point_features`` is (N_input, 1); the same ``params`` must be used for
    both clouds of a pair (shared encoder-decoder).
    """
    if point_features.shape[0] != len(ctx.pyramid.input_cloud):
        raise ValueError("point features must cover every input point")
    feats0 = ad.scatter_mean(point_features, ctx.pyramid.input_to_level0,
                             len(ctx.pyramid.levels[0]))
    bottleneck, level0 = _encode_decode(params, "reg", ctx, feats0)
    superpoints = _linear_head(params, "reg_sp", bottleneck)
    dense = _linear_head(params, "reg_dense", level0)
    return superpoints, dense
