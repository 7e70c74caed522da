"""Segmentation and registration convolution networks.

Both networks share the same construction: a U-Net-style encoder over a
point pyramid (one kernel-point convolution block per stage, average-pooled
between stages via voxel provenance) and a decoder that upsamples with 1-NN
gathers, concatenates skip features, and applies pointwise linear blocks.
Feature normalization standardizes each channel over the points of the
current level and applies a learned affine; batch size is always 1.

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


@dataclass(frozen=True)
class SegNetConfig:
    stages: int = 5
    kernel_size: int = 15
    initial_voxel: float = 0.04
    base_radius_mult: float = 2.5
    widths: tuple = (16, 32, 64, 128, 256)
    width_factor: float = 0.25
    max_neighbors: int = 26
    n_classes: int = 2
    leaky_slope: float = 0.1
    norm_eps: float = 1e-5
    kernel_seed: int = 17

    def scaled_widths(self) -> tuple:
        return tuple(max(2, int(round(w * self.width_factor))) for w in self.widths)


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
    leaky_slope: float = 0.1
    norm_eps: float = 1e-5
    kernel_seed: int = 23
    # canonicalize neighborhoods in local reference frames: features become
    # rotation-invariant, so matching generalizes across unseen poses
    local_frames: bool = True

    def scaled_widths(self) -> tuple:
        return tuple(max(2, int(round(w * self.width_factor))) for w in self.widths)


@dataclass
class BackboneContext:
    """A pyramid plus per-level kernel influence tables for one cloud."""

    pyramid: PointPyramid
    influences: list[np.ndarray]

    @property
    def input_cloud(self) -> PointCloud:
        return self.pyramid.input_cloud


def build_context(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig,
                  pyramid: PointPyramid | None = None) -> BackboneContext:
    """Precompute the pyramid and influence tables for one input cloud."""
    if pyramid is None:
        pyramid = build_pyramid(cloud, cfg.stages, cfg.initial_voxel,
                                cfg.base_radius_mult, cfg.max_neighbors)
    kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
    use_frames = getattr(cfg, "local_frames", False)
    influences = []
    for level, radius in enumerate(pyramid.radii):
        scaled = kernel.scaled(radius)
        pos = pyramid.levels[level].positions
        frames = None
        if use_frames:
            frames = local_reference_frames(pos, pyramid.neighbors[level])
        influences.append(conv_influence(pos, pos, pyramid.neighbors[level],
                                         scaled, radius / SIGMA_RATIO,
                                         frames=frames))
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
    w = cfg.scaled_widths()
    params: dict[str, Tensor] = {}
    cin = 4  # r, g, b, constant 1
    for l in range(cfg.stages):
        _add_conv(params, rng, f"seg_enc{l}", cfg.kernel_size, cin, w[l])
        cin = w[l]
    current = w[-1]
    for l in range(cfg.stages - 2, -1, -1):
        _add_linear(params, rng, f"seg_dec{l}", current + w[l], w[l])
        current = w[l]
    _add_linear(params, rng, "seg_head", current, cfg.n_classes, norm=False)
    return params


def init_reg_params(cfg: RegNetConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    w = cfg.scaled_widths()
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

def _norm_act(params: dict[str, Tensor], name: str, y: Tensor,
              eps: float, slope: float) -> Tensor:
    mu = ad.mean_(y, axis=0, keepdims=True)
    centered = ad.sub(y, ad.expand(mu, y.shape))
    var = ad.mean_(ad.mul(centered, centered), axis=0, keepdims=True)
    std = ad.sqrt(ad.add(var, eps))
    normed = ad.div(centered, ad.expand(std, y.shape))
    affine = ad.add(ad.mul(normed, ad.expand(params[f"{name}_gamma"], y.shape)),
                    ad.expand(params[f"{name}_beta"], y.shape))
    return ad.leaky_relu(affine, slope)


def _conv_block(params, name, ctx: BackboneContext, level: int, feats: Tensor,
                eps: float, slope: float) -> Tensor:
    ns = len(ctx.pyramid.levels[level])
    y = kpconv_apply(ctx.influences[level], ctx.pyramid.neighbors[level], ns,
                     feats, params[f"{name}_w"])
    return _norm_act(params, name, y, eps, slope)


def _linear_block(params, name, feats: Tensor, eps: float, slope: float) -> Tensor:
    y = ad.add(ad.matmul(feats, params[f"{name}_w"]),
               ad.expand(params[f"{name}_b"], (feats.shape[0], params[f"{name}_b"].shape[1])))
    return _norm_act(params, name, y, eps, slope)


def _linear_head(params, name, feats: Tensor) -> Tensor:
    b = params[f"{name}_b"]
    return ad.add(ad.matmul(feats, params[f"{name}_w"]),
                  ad.expand(b, (feats.shape[0], b.shape[1])))


def _encode_decode(params, prefix, ctx: BackboneContext, feats0: Tensor,
                   eps: float, slope: float) -> tuple[Tensor, Tensor]:
    """Shared U-Net walk; returns (bottleneck features, level-0 features)."""
    pyr = ctx.pyramid
    skips: list[Tensor] = []
    feats = feats0
    for l in range(pyr.stages):
        feats = _conv_block(params, f"{prefix}_enc{l}", ctx, l, feats, eps, slope)
        if l < pyr.stages - 1:
            skips.append(feats)
            feats = ad.scatter_mean(feats, pyr.pools[l], len(pyr.levels[l + 1]))
    bottleneck = feats
    for l in range(pyr.stages - 2, -1, -1):
        up = ad.gather_rows(feats, pyr.ups[l])
        feats = _linear_block(params, f"{prefix}_dec{l}",
                              ad.concat([up, skips[l]], axis=1), eps, slope)
    return bottleneck, feats


def seg_forward(params: dict[str, Tensor], ctx: BackboneContext,
                cfg: SegNetConfig) -> Tensor:
    """Per-point 2-class logits at the raw input resolution."""
    cloud = ctx.input_cloud
    if cloud.colors is None:
        raise ValueError("segmentation input cloud must carry colors")
    raw = np.hstack([cloud.colors, np.ones((len(cloud), 1))])
    feats0 = ad.scatter_mean(Tensor(raw), ctx.pyramid.input_to_level0,
                             len(ctx.pyramid.levels[0]))
    _, level0 = _encode_decode(params, "seg", ctx, feats0,
                               cfg.norm_eps, cfg.leaky_slope)
    logits = _linear_head(params, "seg_head", level0)
    return ad.gather_rows(logits, ctx.pyramid.input_to_level0)


def reg_backbone_forward(params: dict[str, Tensor], ctx: BackboneContext,
                         point_features: Tensor, cfg: RegNetConfig
                         ) -> tuple[Tensor, Tensor]:
    """Superpoint features from the bottleneck and dense decoder features.

    ``point_features`` is (N_input, 1); the same ``params`` must be used for
    both clouds of a pair (shared encoder-decoder).
    """
    if point_features.shape[0] != len(ctx.input_cloud):
        raise ValueError("point features must cover every input point")
    feats0 = ad.scatter_mean(point_features, ctx.pyramid.input_to_level0,
                             len(ctx.pyramid.levels[0]))
    bottleneck, level0 = _encode_decode(params, "reg", ctx, feats0,
                                        cfg.norm_eps, cfg.leaky_slope)
    superpoints = _linear_head(params, "reg_sp", bottleneck)
    dense = _linear_head(params, "reg_dense", level0)
    return superpoints, dense
