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

Configs hold the four values callers set (``widths``, one per stage,
``width_factor``, ``initial_voxel``, ``max_neighbors``); the rest are class
constants.  ``param_shapes`` lists every parameter's name and shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import PointCloud
from segreg.kpconv import (
    SIGMA_RATIO,
    InfluenceOperator,
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
    "param_shapes",
    "init_weights",
    "seg_forward",
    "reg_backbone_forward",
]

NORM_EPS = 1e-5
LEAKY_SLOPE = 0.1
SUPERPOINT_DIM = 32
DENSE_DIM = 16


class _NetConfig:
    def __post_init__(self):        # both network configs; JSON gives widths as a list
        object.__setattr__(self, "widths", tuple(self.widths))
        if not (len(self.widths) >= 2 and all(0 < w < np.inf for w in self.widths)
                and 0 < self.width_factor < np.inf and 0 < self.initial_voxel < np.inf
                and isinstance(self.max_neighbors, int) and self.max_neighbors >= 1):
            raise ValueError(f"{self}: need 2 or more positive widths, a positive width_factor"
                             " and initial_voxel, and an integer max_neighbors >= 1")


@dataclass(frozen=True)
class SegNetConfig(_NetConfig):
    widths: tuple = (16, 32, 64, 128, 256)
    width_factor: float = 0.25
    initial_voxel: float = 0.04
    max_neighbors: int = 26
    kernel_size: ClassVar[int] = 15
    kernel_seed: ClassVar[int] = 17
    base_radius_mult: ClassVar[float] = 2.5
    local_frames: ClassVar[bool] = False
    prefix: ClassVar[str] = "seg"
    in_channels: ClassVar[int] = 4                # r, g, b, constant 1
    bottleneck_heads: ClassVar[tuple] = ()
    level0_head: ClassVar[tuple] = ("seg_head", 2)


@dataclass(frozen=True)
class RegNetConfig(_NetConfig):
    widths: tuple = (32, 64, 128)
    width_factor: float = 0.25
    initial_voxel: float = 0.025
    max_neighbors: int = 32
    kernel_size: ClassVar[int] = 20
    kernel_seed: ClassVar[int] = 23
    base_radius_mult: ClassVar[float] = 7.0
    local_frames: ClassVar[bool] = True           # rotation-invariant, to match across poses
    prefix: ClassVar[str] = "reg"
    in_channels: ClassVar[int] = 1                # constant 1 or the segmentation mask
    bottleneck_heads: ClassVar[tuple] = (("reg_sp", SUPERPOINT_DIM),)
    level0_head: ClassVar[tuple] = ("reg_dense", DENSE_DIM)


@dataclass
class BackboneContext:
    """A pyramid plus one sparse kernel influence operator per level, for one
    cloud; ``influences[l]`` is :func:`~segreg.kpconv.conv_influence` of
    level l against itself."""

    pyramid: PointPyramid
    influences: list[InfluenceOperator]


def build_context(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig) -> BackboneContext:
    """Precompute the pyramid and influence operators for one input cloud."""
    pyramid = build_pyramid(cloud, len(cfg.widths), cfg.initial_voxel,
                            cfg.base_radius_mult, cfg.max_neighbors)
    kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
    influences = []
    for level, radius in enumerate(pyramid.radii):
        nbr = pyramid.neighbors[level]
        offsets = neighbor_offsets(pyramid.levels[level].positions, nbr)
        frames = local_reference_frames(offsets, nbr) if cfg.local_frames else None
        influences.append(conv_influence(offsets, nbr, kernel * radius,
                                         radius / SIGMA_RATIO, frames=frames))
    return BackboneContext(pyramid, influences)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_shapes(cfg: SegNetConfig | RegNetConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter of ``cfg``'s network, in draw order:
    encoder, bottleneck heads, decoder from the deepest level, level-0 head.
    Each layer has ``_w`` (outputs last), a linear one ``_b``, a normalized
    one ``_gamma`` and ``_beta``."""
    widths = [max(2, int(round(w * cfg.width_factor))) for w in cfg.widths]
    shapes: dict[str, tuple] = {}

    def layer(name, w_shape, norm):
        shapes[f"{name}_w"] = w_shape
        if len(w_shape) == 2:
            shapes[f"{name}_b"] = (1, w_shape[-1])
        if norm:
            shapes[f"{name}_gamma"] = shapes[f"{name}_beta"] = (1, w_shape[-1])

    cin = cfg.in_channels
    for l, cout in enumerate(widths):
        layer(f"{cfg.prefix}_enc{l}", (cfg.kernel_size, cin, cout), norm=True)
        cin = cout
    for name, dim in cfg.bottleneck_heads:
        layer(name, (cin, dim), norm=False)
    for l in range(len(widths) - 2, -1, -1):
        layer(f"{cfg.prefix}_dec{l}", (cin + widths[l], widths[l]), norm=True)
        cin = widths[l]
    layer(cfg.level0_head[0], (cin, cfg.level0_head[1]), norm=False)
    return shapes


def init_weights(cfg: SegNetConfig | RegNetConfig, rng: np.random.Generator
                 ) -> dict[str, Tensor]:
    """Fresh parameters of ``cfg``'s network in ``param_shapes`` order: each
    ``_w`` uniform in +-sqrt(3 / fan-in), the fan-in being the product of all
    but its last axis, each ``_gamma`` ones, everything else zeros."""
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_w"):
            limit = np.sqrt(3.0 / np.prod(shape[:-1]))
            value = rng.uniform(-limit, limit, size=shape)
        else:
            value = (np.ones if name.endswith("_gamma") else np.zeros)(shape)
        params[name] = Tensor(value, requires_grad=True)
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


def _linear_head(params, name, feats: Tensor) -> Tensor:
    b = params[f"{name}_b"]
    return ad.add(ad.matmul(feats, params[f"{name}_w"]),
                  ad.expand(b, (feats.shape[0], b.shape[1])))


def _encode_decode(params, prefix, ctx: BackboneContext, feats0: Tensor
                   ) -> tuple[Tensor, Tensor]:
    """Shared U-Net walk; returns (bottleneck features, level-0 features)."""
    pyr = ctx.pyramid
    skips: list[Tensor] = []
    feats = feats0
    for l in range(pyr.stages):
        name = f"{prefix}_enc{l}"
        feats = _norm_act(params, name, kpconv_apply(ctx.influences[l], feats,
                                                     params[f"{name}_w"]))
        if l < pyr.stages - 1:
            skips.append(feats)
            feats = ad.scatter_mean(feats, pyr.pools[l], len(pyr.levels[l + 1]))
    bottleneck = feats
    for l in range(pyr.stages - 2, -1, -1):
        up = ad.gather_rows(feats, pyr.ups[l])
        name = f"{prefix}_dec{l}"
        feats = _norm_act(params, name, _linear_head(params, name, ad.concat([up, skips[l]])))
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
