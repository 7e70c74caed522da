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

Each network reads its input from the cloud's :class:`BackboneContext`,
which :func:`build_context` builds holding the network's constant input and
:meth:`BackboneContext.holding` makes hold another.  The segmentation network
reads [r, g, b, 1] and emits 2-class logits at the raw input resolution.  The
registration backbone reads one per-point feature (ones for the preoperative
cloud, the segmentation mask for the intraoperative one) and returns
bottleneck superpoint features plus dense decoder features; the same
parameters process both clouds.  Both networks correlate their kernels
with neighbor offsets in the cloud's own axes, so their features are not
rotation-invariant: the registration backbone serves the relative poses it
was trained on, and the phantoms draw rotations of at most
``phantom.POSE_MAX_ROTATION_DEG`` (45 degrees).

A config holds the one value callers set, ``width_factor``, which scales
every layer width.  The rest is the architecture and lives in class
constants: the pyramid (``widths``, one per stage, ``initial_voxel``,
``base_radius_mult``), the neighbor cap ``max_neighbors`` and the kernel.
``param_shapes`` lists every parameter's name and shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    def __post_init__(self):        # both network configs
        if not 0 < self.width_factor < np.inf:
            raise ValueError(f"{self}: need a positive, finite width_factor")


@dataclass(frozen=True)
class SegNetConfig(_NetConfig):
    width_factor: float = 0.25
    widths: ClassVar[tuple] = (16, 32, 64, 128, 256)
    initial_voxel: ClassVar[float] = 0.04
    max_neighbors: ClassVar[int] = 26
    kernel_size: ClassVar[int] = 15
    kernel_seed: ClassVar[int] = 17
    base_radius_mult: ClassVar[float] = 2.5
    prefix: ClassVar[str] = "seg"
    in_channels: ClassVar[int] = 4                # r, g, b, constant 1
    bottleneck_heads: ClassVar[tuple] = ()
    level0_head: ClassVar[tuple] = ("seg_head", 2)


@dataclass(frozen=True)
class RegNetConfig(_NetConfig):
    width_factor: float = 0.25
    widths: ClassVar[tuple] = (32, 64, 128)
    initial_voxel: ClassVar[float] = 0.025
    max_neighbors: ClassVar[int] = 32
    kernel_size: ClassVar[int] = 20
    kernel_seed: ClassVar[int] = 23
    base_radius_mult: ClassVar[float] = 7.0
    prefix: ClassVar[str] = "reg"
    in_channels: ClassVar[int] = 1                # constant 1 or the segmentation mask
    bottleneck_heads: ClassVar[tuple] = (("reg_sp", SUPERPOINT_DIM),)
    level0_head: ClassVar[tuple] = ("reg_dense", DENSE_DIM)


@dataclass(frozen=True)
class BackboneContext:
    """What a network's forward reads of one cloud: its geometry, built once
    per cloud, and the input it holds.

    ``influences[l]`` is :func:`~segreg.kpconv.conv_influence` of pyramid
    level l against itself.  ``input_feats`` is the network's per-point
    input averaged onto level 0.  ``input_mix`` is its level-0 product
    A @ input_feats read as (N0, K*Cin), the first half of the level-0
    convolution, when the input needs no gradient; an input on the tape is
    mixed by its forward, and ``input_mix`` is None.  Both are computed by
    the operations the convolution would run, so a forward that reads them
    gets the same bits as one that forms them.
    """

    pyramid: PointPyramid
    influences: list[InfluenceOperator]
    input_feats: Tensor
    input_mix: np.ndarray | None

    def holding(self, x: Tensor) -> BackboneContext:
        """This context's geometry holding the per-input-point ``x``."""
        feats = ad.scatter_mean(x, self.pyramid.input_to_level0)
        with ad.quiet():
            mix = None if feats.requires_grad else self.influences[0].mix(feats.data)
        return replace(self, input_feats=feats, input_mix=mix)


def _constant_input(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig) -> np.ndarray:
    """The constant per-point input of ``cfg``'s network, which a built
    context holds: [r, g, b, 1] for segmentation, ones for registration."""
    ones = np.ones((len(cloud), 1))
    if cfg.in_channels == 1:
        return ones
    if cloud.colors is None:
        raise ValueError("segmentation input cloud must carry colors")
    return np.hstack([cloud.colors, ones])


def build_context(cloud: PointCloud, cfg: SegNetConfig | RegNetConfig) -> BackboneContext:
    """Precompute the pyramid and influence operators for one input cloud,
    holding ``cfg``'s constant input on it (see :class:`BackboneContext`).
    Each level's radius table is built, read by its influence, and
    dropped."""
    pyramid = build_pyramid(cloud, len(cfg.widths), cfg.initial_voxel, cfg.base_radius_mult)
    kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
    influences = []
    for lvl, radius in zip(pyramid.levels, pyramid.radii):
        nbr = radius_neighbors(lvl, radius, cfg.max_neighbors)
        influences.append(conv_influence(neighbor_offsets(lvl.positions, nbr), nbr,
                                         kernel * radius, radius / SIGMA_RATIO))
    return BackboneContext(pyramid, influences, None, None).holding(
        Tensor(_constant_input(cloud, cfg)))


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
    with ad.quiet():
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
    with ad.quiet():
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


def _encode_decode(params, prefix, ctx: BackboneContext) -> tuple[Tensor, Tensor]:
    """Shared U-Net walk from the context's input; returns (bottleneck
    features, level-0 features)."""
    pyr = ctx.pyramid
    skips: list[Tensor] = []
    feats = ctx.input_feats
    for l in range(pyr.stages):
        name = f"{prefix}_enc{l}"
        conv = kpconv_apply(ctx.influences[l], feats, params[f"{name}_w"],
                            ctx.input_mix if l == 0 else None)
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


def seg_forward(params: dict[str, Tensor], ctx: BackboneContext) -> Tensor:
    """Per-point 2-class logits at the raw input resolution, from the
    context's input ([r, g, b, 1] as built)."""
    _, level0 = _encode_decode(params, "seg", ctx)
    logits = _linear_head(params, "seg_head", level0)
    return ad.gather_rows(logits, ctx.pyramid.input_to_level0)


def reg_backbone_forward(params: dict[str, Tensor], ctx: BackboneContext) -> tuple[Tensor, Tensor]:
    """Superpoint features from the bottleneck and dense decoder features,
    from the context's input (ones as built, or the mask it holds); the same
    ``params`` must be used for both clouds of a pair (shared
    encoder-decoder)."""
    bottleneck, level0 = _encode_decode(params, "reg", ctx)
    superpoints = _linear_head(params, "reg_sp", bottleneck)
    dense = _linear_head(params, "reg_dense", level0)
    return superpoints, dense
