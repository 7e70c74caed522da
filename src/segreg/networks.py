"""Segmentation and registration convolution networks.

Both networks share the same construction: a U-Net-style encoder over a
point pyramid (one kernel-point convolution block per stage, average-pooled
between stages via voxel provenance) and a decoder that upsamples with 1-NN
gathers, concatenates skip features, and applies pointwise linear blocks.
Feature normalization standardizes each channel over the points of the
current level (variance floor ``NORM_EPS``) and applies a learned affine and a
leaky ReLU of slope ``LEAKY_SLOPE``, the same in both networks; batch size is
always 1.  Normalization and each linear layer (``feats @ w + b``) are one
tape node apiece, bit-identical to the elementary operations they replace.

The segmentation network consumes [r, g, b, 1] input features and emits
2-class logits at the raw input resolution.  The registration backbone
consumes a single per-point feature (constant 1 for the preoperative cloud,
the straight-through mask for the intraoperative one) and returns bottleneck
superpoint features plus dense decoder features; the same parameters process
both clouds.  An input that never changes is pooled and mixed once, into
the cloud's context (:func:`build_context`).

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
from segreg.geometry import PointCloud, radius_neighbors
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
    """What a network's forward reads of one cloud, built once per cloud.

    ``influences[l]`` is :func:`~segreg.kpconv.conv_influence` of pyramid
    level l against itself.  When the network's input on this cloud never
    changes (the segmentation net's [r, g, b, 1], the registration
    backbone's ones on the preoperative cloud), ``input_feats`` holds it
    averaged onto level 0 and ``input_mix`` its level-0 product
    A @ input_feats read as (N0, K*Cin), the first half of the level-0
    convolution; otherwise both are None.  Both are computed by the
    operations a forward would run on that input, so the forward that reads
    them gets the same bits and differs only in not repeating them.
    """

    pyramid: PointPyramid
    influences: list[InfluenceOperator]
    input_feats: Tensor | None
    input_mix: np.ndarray | None


def _constant_input(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig) -> np.ndarray:
    """The per-point input that ``cfg``'s network reads when it is fixed:
    [r, g, b, 1] for segmentation, a constant 1 for registration."""
    ones = np.ones((len(cloud), 1))
    if cfg.in_channels == 1:
        return ones
    if cloud.colors is None:
        raise ValueError("segmentation input cloud must carry colors")
    return np.hstack([cloud.colors, ones])


def build_context(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig,
                  constant_input: bool = True) -> BackboneContext:
    """Precompute the pyramid and influence operators for one input cloud,
    and with ``constant_input`` the network's fixed input on it (see
    :class:`BackboneContext`); the intraoperative registration input, the
    mask, changes per step and is built without.  Each level's radius
    table is built, read by its frames and influence, and dropped."""
    pyramid = build_pyramid(cloud, len(cfg.widths), cfg.initial_voxel, cfg.base_radius_mult)
    kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
    influences = []
    for lvl, radius in zip(pyramid.levels, pyramid.radii):
        nbr = radius_neighbors(lvl, radius, cfg.max_neighbors)
        offsets = neighbor_offsets(lvl.positions, nbr)
        frames = local_reference_frames(offsets, nbr) if cfg.local_frames else None
        influences.append(conv_influence(offsets, nbr, kernel * radius,
                                         radius / SIGMA_RATIO, frames=frames))
    input_feats = input_mix = None
    if constant_input:
        input_feats = ad.scatter_mean(Tensor(_constant_input(cloud, cfg)),
                                      pyramid.input_to_level0)
        input_mix = influences[0].mix(input_feats.data)
    return BackboneContext(pyramid, influences, input_feats, input_mix)


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

def _column_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=0, keepdims=True)`` of a 2-D array, bit for bit.

    With a contiguous last axis ``np.sum`` adds the rows in order, and
    ``einsum`` makes the same additions in the same order, 2-4x faster.  On
    any other layout ``np.sum`` sums pairwise, so it is used as is.
    """
    if a.shape[1] > 1 and a.strides[1] == a.itemsize:
        return np.einsum("ij->j", a)[None]
    return np.sum(a, axis=0, keepdims=True)


def _norm_act(params: dict[str, Tensor], name: str, y: Tensor) -> Tensor:
    """Per-channel standardization over the points, learned affine, leaky ReLU.

    One tape node.  The forward runs the numpy operations of the composed
    mean / sub / mul / mean / add / sqrt / div / mul / add / leaky_relu chain
    in the same order, and the backward replays that chain's backward in
    reverse tape order, so values and gradients are bit-identical to it on
    the row-major input that the convolution and the linear layers produce.
    The input's gradient is exact when it has none before this node's
    backward, as at every call: the input is a fresh convolution or head
    output that only this node reads.

    Only ``mu`` and ``var``, two (1, C) rows, are checked for finiteness;
    the chain's other intermediates are finite or reach the output, which
    :func:`~segreg.autodiff.record_custom` checks.  The input is finite, so
    an overflow in ``centered`` or ``sq`` makes ``var`` infinite.  A finite
    ``var`` bounds |centered| by sqrt(max float) < 1.4e154 and ``std`` from
    below by sqrt(NORM_EPS), so ``normed`` is finite.  An overflow of the
    affine, in the product or the sum, is an infinity that the leaky ReLU
    keeps.
    """
    gamma, beta = params[f"{name}_gamma"], params[f"{name}_beta"]
    n = y.shape[0]
    x = y.data
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NonFiniteError
        mu = _column_sum(x) / n
        ad.require_finite(mu)
        centered = x - mu
        var = _column_sum(centered * centered) / n
        ad.require_finite(var)
        std = np.sqrt(var + NORM_EPS)
        normed = centered / std
        out = normed * gamma.data
        out += beta.data
        # equals where(affine > 0, affine, slope * affine), signed zeros included
        np.maximum(out, LEAKY_SLOPE * out, out=out)

    def bwd(g):
        # the output is positive exactly where the affine is
        g_affine = np.maximum(out > 0.0, LEAKY_SLOPE)
        g_affine *= g
        ad.accumulate_grad(beta, _column_sum(g_affine))
        ad.accumulate_grad(gamma, _column_sum(g_affine * normed))
        if not y.requires_grad:
            return
        g_normed = g_affine
        g_normed *= gamma.data
        # div(centered, expand(std)); expand sums; sqrt; add eps; mean
        t = g_normed * centered
        t /= std * std
        g_std = -_column_sum(t)
        g_var = g_std / (2.0 * std)
        g_sq = g_var / n
        # centered's three terms in tape order: div, then both mul operands
        np.multiply(g_sq, centered, out=t)
        g_centered = g_normed / std
        g_centered += t
        g_centered += t
        # sub(y, expand(mu)), then mean_(y): the two terms y's gradient gets
        # in turn, added in one buffer
        g_mu = -_column_sum(g_centered)
        g_centered += g_mu / n
        ad.accumulate_grad(y, g_centered)

    requires = y.requires_grad or gamma.requires_grad or beta.requires_grad
    return ad.record_custom(out, requires, bwd)


def _linear_head(params, name, feats: Tensor) -> Tensor:
    """``feats @ w + b`` as one tape node, bit-identical to the composed
    matmul / expand / add chain: the same products and sums, and the bias
    gradient the column sum of ``expand``'s backward."""
    w, b = params[f"{name}_w"], params[f"{name}_b"]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NonFiniteError
        out = feats.data @ w.data
        out += b.data

    def bwd(g):
        if b.requires_grad:
            ad.accumulate_grad(b, _column_sum(g))
        if feats.requires_grad:
            ad.accumulate_grad(feats, g @ w.data.T)
        if w.requires_grad:
            ad.accumulate_grad(w, feats.data.T @ g)

    return ad.record_custom(out, feats.requires_grad or w.requires_grad or b.requires_grad, bwd)


def _encode_decode(params, prefix, ctx: BackboneContext, feats0: Tensor,
                   mixed0: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Shared U-Net walk from the level-0 input ``feats0`` and, when the
    context holds it, its level-0 mix; returns (bottleneck features,
    level-0 features)."""
    pyr = ctx.pyramid
    skips: list[Tensor] = []
    feats = feats0
    for l in range(pyr.stages):
        name = f"{prefix}_enc{l}"
        conv = kpconv_apply(ctx.influences[l], feats, params[f"{name}_w"],
                            mixed0 if l == 0 else None)
        feats = _norm_act(params, name, conv)
        if l < pyr.stages - 1:
            skips.append(feats)
            feats = ad.scatter_mean(feats, pyr.pools[l])
    bottleneck = feats
    for l in range(pyr.stages - 2, -1, -1):
        up = ad.gather_rows(feats, pyr.ups[l])
        name = f"{prefix}_dec{l}"
        feats = _norm_act(params, name, _linear_head(params, name, ad.concat([up, skips[l]])))
    return bottleneck, feats


def _context_input(ctx: BackboneContext) -> tuple[Tensor, np.ndarray]:
    if ctx.input_feats is None:
        raise ValueError("the context was built without its network's constant input")
    return ctx.input_feats, ctx.input_mix


def seg_forward(params: dict[str, Tensor], ctx: BackboneContext) -> Tensor:
    """Per-point 2-class logits at the raw input resolution, from the
    context's [r, g, b, 1] input."""
    _, level0 = _encode_decode(params, "seg", ctx, *_context_input(ctx))
    logits = _linear_head(params, "seg_head", level0)
    return ad.gather_rows(logits, ctx.pyramid.input_to_level0)


def reg_backbone_forward(params: dict[str, Tensor], ctx: BackboneContext,
                         point_features: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Superpoint features from the bottleneck and dense decoder features.

    ``point_features`` is (N_input, 1), or None for the context's constant
    input (the preoperative cloud's ones); the same ``params`` must be used
    for both clouds of a pair (shared encoder-decoder).
    """
    if point_features is None:
        inputs = _context_input(ctx)
    elif point_features.shape[0] != len(ctx.pyramid.input_cloud):
        raise ValueError("point features must cover every input point")
    else:
        inputs = ad.scatter_mean(point_features, ctx.pyramid.input_to_level0), None
    bottleneck, level0 = _encode_decode(params, "reg", ctx, *inputs)
    superpoints = _linear_head(params, "reg_sp", bottleneck)
    dense = _linear_head(params, "reg_dense", level0)
    return superpoints, dense
