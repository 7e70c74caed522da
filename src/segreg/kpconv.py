"""Kernel-point convolution and multi-resolution point pyramids.

The convolution at a point sums, over its radius neighborhood, each
neighbor's feature vector weighted by a linear-correlation kernel evaluated
at the neighbor's offset: g(y) = sum_k max(0, 1 - |y - p_k| / sigma) W_k.
Tables and convolutions are per pyramid level, the level against itself
(levels are pooled by voxel provenance, not strided convolutions).  Shadow
neighbors (padding) contribute nothing.

The kernel points p_k of each network are a fixed layout in the unit ball,
stored here as data (:func:`kernel_disposition`).  They were optimized once
by a repulsion descent; the tests keep that descent as the reference
generator of the stored values, and no process repeats it.

A level's influence is frozen geometry built once per cloud, as one sparse
(N*K, N) CSR operator A (:class:`InfluenceOperator`): row n*K + k holds the
weight of kernel point k on each neighbor of point n, at that neighbor's
column.  With sigma = radius / 1.5 a neighbor lies within sigma of only a
few kernel points, so 5-11% of the (N, K, H) weights on the benchmark
phantoms are non-zero, and only those are stored.  The convolution is one
tape node: A @ feats read as (N, K*Cin), then one product with the
flattened weights; its feature gradient is one transposed product A.T @ g.

Each level gathers its (N, H, 3) neighbor offsets once
(:func:`neighbor_offsets`): one ``np.take`` of the table, which clamps the
shadow index onto the last point, one in-place subtraction of the centres,
and the shadow slots set to 0 by mask.  The influence reads them in the
cloud's own axes, with axis-aligned kernels as in KPConv (Thomas et al.,
ICCV 2019) and GeoTransformer (Qin et al., CVPR 2022).
The influence is built a block of rows at a time, with squared distances
expanded as |r|^2 + |k|^2 - 2 k.r into one batched product, so building it
never holds a full-size float64 temporary; the expansion keeps every weight
within 1e-7 of the per-axis difference-and-square form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from segreg.autodiff import RowMap, Tensor, accumulate_grad, quiet, record_custom
from segreg.geometry import PointCloud, knn, voxel_grid_subsample

__all__ = [
    "kernel_disposition",
    "neighbor_offsets",
    "InfluenceOperator",
    "conv_influence",
    "local_reference_frames",
    "kpconv_apply",
    "PointPyramid",
    "SparseCloudError",
    "build_pyramid",
]

SIGMA_RATIO = 1.5  # kernel influence extent = layer radius / SIGMA_RATIO
MIN_LEVEL_POINTS = 4  # fewer on a coarser pyramid level: SparseCloudError

_INFLUENCE_BLOCK = 128  # rows per pass in conv_influence

# the kernel layouts of the two networks, keyed by (kernel_size, kernel_seed);
# see kernel_disposition
_DISPOSITIONS = {
    (15, 17): (
        (0.0, 0.0, 0.0),
        (0.9118611440450709, 0.21053906503821448, -0.3523954541046875),
        (-0.0868310373896375, -0.9962030441533369, -0.006313934230240452),
        (-0.7220072575899623, -0.46500121378200215, -0.5123274257432316),
        (0.1333551109889788, -0.5230096607704444, 0.8418297387915812),
        (-0.8802767423294074, 0.3894895314158666, 0.27094420427714394),
        (-0.06730981953607924, 0.9672673962267383, 0.2446695166766112),
        (0.6953831625210356, 0.45434168098413225, 0.5567907095154838),
        (0.826308532054984, -0.4810062870394815, 0.2929968629211405),
        (-0.0024997245678641516, -0.04096740957446228, -0.9991573563407533),
        (0.48988897662296893, -0.6392532349295877, -0.5927597255341809),
        (-0.1861990558838585, 0.31346059419247424, 0.9311672070452549),
        (-0.7488769831904096, -0.48252201751055956, 0.4542639834558427),
        (-0.6435898247341272, 0.5110225966700912, -0.5697789423901632),
        (0.27964748530804306, 0.7813776119839836, -0.5578945343441668),
    ),
    (20, 23): (
        (0.0, 0.0, 0.0),
        (0.8772414342018194, 0.3008648821273963, 0.37406922998557696),
        (-0.6975350802482163, -0.09034852853281224, -0.7108318754917159),
        (0.2664446451262194, 0.6358043762393235, 0.7244032345582725),
        (0.8155829921527794, 0.22261238840624825, -0.5341049591973333),
        (-0.21273093520204767, 0.9670537483575937, 0.13983060106997175),
        (-0.1516895001700025, -0.6987329604765645, -0.6991155451581881),
        (-0.10786117921943636, 0.7126178239174903, -0.6932112254230262),
        (-0.38258719463069923, -0.6441462344307058, 0.662346334762527),
        (-0.6728355701662048, 0.45473623920160877, 0.5835299891829856),
        (-0.17315202279907968, 0.030463154352549232, 0.9844238788385213),
        (-0.602720601999937, -0.7919194494990441, -0.09793600681038793),
        (0.520837284380169, 0.8393163687472439, -0.15580935900141452),
        (0.12685053532207743, 0.049065995690307354, -0.9907075601586075),
        (-0.8002182005907986, 0.5376798722304136, -0.2656147331032497),
        (0.47013398391185784, -0.38250467756327705, 0.7954019165260908),
        (0.8903590058948427, -0.43903525120596837, 0.12045284895119515),
        (0.21403964771963616, -0.9658905506435267, 0.14574797899661884),
        (0.5883652108371336, -0.5709687974056714, -0.5725565570890763),
        (-0.9680946936625608, -0.1654085149939488, 0.18823572261897828),
    ),
}


def kernel_disposition(k: int, seed: int) -> np.ndarray:
    """The stored layout of k kernel points in the unit ball for ``seed``, (k, 3).

    One point is pinned at the origin; the others are the end of a 1000-step
    descent on the inverse-distance energy sum(1/d_ij) with projection back
    into the ball, from ``seed``'s random start.  Only the two layouts the
    networks use are stored, (15, 17) for segmentation and (20, 23) for
    registration, as float literals that round-trip exactly, the way KPConv
    optimizes a disposition once and loads it from a file after that.  So no
    process replays the descent (~0.1 s), and a checkpoint's kernel geometry
    does not depend on the host that loads it.  The descent itself is kept as
    the reference generator in the tests, which check that it reproduces
    both layouts bit for bit.  Callers multiply the returned copy by a
    layer's radius; any other (k, seed) raises ``ValueError``.
    """
    try:
        return np.array(_DISPOSITIONS[k, seed])
    except KeyError:
        raise ValueError(f"no stored kernel layout of {k} points for seed {seed}; "
                         f"stored: {sorted(_DISPOSITIONS)}") from None


def neighbor_offsets(points: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Offsets (N, H, 3) of each point's neighbors from the point, 0 at shadow slots.

    ``neighbors`` is an (N, H) table of ``points`` against themselves whose
    shadow index is N.  One gather, ``np.take`` with ``mode="clip"``, reads
    every slot (a shadow slot reads point N - 1), the centres are subtracted
    in place and the shadow slots are then set to 0, so a real slot holds
    ``points[j] - points[i]`` exactly.  A level's influence and the
    baselines' normals read this table.
    """
    rel = np.take(points, neighbors, axis=0, mode="clip")
    rel -= points[:, None, :]
    rel[neighbors >= points.shape[0]] = 0.0
    return rel


@dataclass(frozen=True)
class InfluenceOperator:
    """One level's kernel influence as a sparse (N*K, N) CSR operator.

    Row n*K + k holds, at column ``neighbors[n, h]``, the weight of kernel
    point k on neighbor slot h; a row's columns are in slot order and only
    weights > 0 are stored.  ``transposed`` is A.T, built once with the
    operator for the convolution's feature gradient: scipy's transpose of a
    CSR matrix is a CSC matrix over the same three arrays, so it copies
    nothing and every product with it is the one ``matrix.T @`` makes.
    """

    matrix: sparse.csr_matrix
    transposed: sparse.csc_matrix = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "transposed", self.matrix.T)

    def mix(self, feats: np.ndarray) -> np.ndarray:
        """A @ feats read as (N, K*Cin), the convolution's sparse half."""
        return (self.matrix @ feats).reshape(self.matrix.shape[1], -1)

    @property
    def nbytes(self) -> int:
        return self.matrix.data.nbytes + self.matrix.indices.nbytes + self.matrix.indptr.nbytes


def conv_influence(offsets: np.ndarray, neighbors: np.ndarray, kernel: np.ndarray,
                   sigma: float) -> InfluenceOperator:
    """Correlation weights of each kernel point on each neighbor, as an operator.

    ``offsets`` is the :func:`neighbor_offsets` table of the (N, H) radius
    table ``neighbors``; ``kernel`` is the (K, 3) layout of
    :func:`kernel_disposition` times the layer radius.  Shadow slots
    (index == N) get no weight.  Offsets are correlated with the kernel in
    the cloud's own axes, so the weights, and every feature built on them,
    change when the cloud is rotated.  The weights are computed in float64
    and rounded to float32, the precision of the frozen geometry, then
    stored as float64 so that no convolution casts them.  A weight
    1 - d / sigma > 0 is at least 2**-53, so none rounds to a float32 zero.

    Rows are evaluated ``_INFLUENCE_BLOCK`` points at a time: a block's
    squared distances come from one batched product, as
    d2 = |r|^2 + |k|^2 - 2 k.r (the product takes -2 k, an exact scaling).
    Only the entries with d2 < sigma^2 (1 + 1e-9),
    picked in (row, slot) order, get a weight 1 - sqrt(max(d2, 0)) / sigma;
    past that margin rounding cannot make a weight positive, and the picked
    weights that are not positive are dropped.  Evaluating all rows at once
    would hold several (N, K, H) float64 temporaries, and they would set
    both the time and the memory peak of building a pyramid's tables.  Each
    row goes through the same operations at any block size, so the operator
    does not depend on it.

    The expanded form cancels where a neighbor sits on a kernel point: with
    |r|, |k| <= radius its d2 is off by a few ulps of radius^2, so the
    distance by ~2e-8 radius and the weight by ~3e-8 (sigma = radius / 1.5),
    below one float32 step of the stored weight; every entry stays within
    1e-7 of the per-axis difference-and-square evaluation.
    """
    n, h = neighbors.shape
    k = kernel.shape[0]
    shadow = neighbors >= n
    kernel_m2 = -2.0 * kernel
    kernel_sq = np.einsum("kj,kj->k", kernel, kernel)[None, :, None]
    reach = sigma * sigma * (1.0 + 1e-9)
    weights, columns, counts = [], [], []
    for start in range(0, n, _INFLUENCE_BLOCK):
        block = slice(start, start + _INFLUENCE_BLOCK)
        rel = offsets[block]                                   # (B, H, 3)
        rel_sq = np.einsum("qhj,qhj->qh", rel, rel)
        rel_sq[shadow[block]] = np.inf      # shadow offsets are 0: d2 = inf
        d2 = np.matmul(kernel_m2, rel.transpose(0, 2, 1))      # (B, K, H)
        d2 += kernel_sq
        d2 += rel_sq[:, None, :]
        picked = np.flatnonzero(d2 < reach)
        w = 1.0 - np.sqrt(np.maximum(d2.ravel()[picked], 0.0)) / sigma
        positive = w > 0.0
        picked, w = picked[positive], w[positive]
        row = picked // h                                      # b * K + k
        slot = picked - row * h
        columns.append(neighbors[block].ravel()[row // k * h + slot])
        weights.append(w.astype(np.float32))
        counts.append(np.bincount(row, minlength=d2.shape[0] * k))
    indptr = np.zeros(n * k + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    matrix = sparse.csr_matrix((np.concatenate(weights).astype(np.float64),
                                np.concatenate(columns).astype(np.int32), indptr),
                               shape=(n * k, n))
    return InfluenceOperator(matrix)


def local_reference_frames(offsets: np.ndarray) -> np.ndarray:
    """Unoriented unit normals (N, 3) from the (N, H, 3) :func:`neighbor_offsets`
    of a full k-NN table, H >= 3: each neighborhood's covariance eigenvector
    of the smallest eigenvalue, signed as ``eigh`` returns it.  The mean and
    the covariance are ``np.einsum`` sums over the slots, in slot order.  It
    keeps the name under which ``perfbench/tracer.py`` times it."""
    h = offsets.shape[1]
    centered = offsets - (np.einsum("qhi->qi", offsets) / h)[:, None, :]
    cov = np.einsum("qhi,qhj->qij", centered, centered) / h
    _, vecs = np.linalg.eigh(cov)                    # ascending eigenvalues
    return np.ascontiguousarray(vecs[:, :, 0])


def kpconv_apply(influence: InfluenceOperator, feats: Tensor, weights: Tensor,
                 mixed: np.ndarray | None = None) -> Tensor:
    """Apply the convolution of one level given its influence operator.

    ``feats`` is (N, Cin) and ``weights`` (K, Cin, Cout).  The forward is
    one sparse product A @ feats, read as (N, K*Cin), then one GEMM with the
    flattened weights; the backward is that GEMM's two products and one
    transposed sparse product for the features.  Differentiable in feats
    and weights only.  ``mixed`` is the sparse product when the caller
    already holds it: a network context forms it once for an input that
    needs no gradient (``networks.BackboneContext.input_mix``).  Both
    products run under ``autodiff.quiet``, so an overflow raises
    ``NonFiniteError`` and not a ``RuntimeWarning``.
    """
    a = influence.matrix
    n = a.shape[1]
    k = a.shape[0] // n
    cin = feats.data.shape[1]
    if weights.data.ndim != 3 or weights.data.shape[:2] != (k, cin):
        raise ValueError(
            f"weights {weights.data.shape} incompatible with kernel size {k} "
            f"and {cin} input channels"
        )
    if feats.data.shape[0] != n:
        raise ValueError("feats rows must match the influence columns")
    cout = weights.data.shape[2]
    w_flat = weights.data.reshape(k * cin, cout)
    with quiet():
        if mixed is None:
            mixed = influence.mix(feats.data)
        out = mixed @ w_flat
    requires = feats.requires_grad or weights.requires_grad

    def bwd(g):
        if weights.requires_grad:
            accumulate_grad(weights, (mixed.T @ g).reshape(k, cin, cout))
        if feats.requires_grad:
            accumulate_grad(feats, influence.transposed @ (g @ w_flat.T).reshape(n * k, cin))

    return record_custom(out, requires, bwd)


# ---------------------------------------------------------------------------
# point pyramids
# ---------------------------------------------------------------------------

@dataclass
class PointPyramid:
    """Doubling-voxel resolution hierarchy with its row maps.

    ``radii[l]`` is level l's convolution radius;
    ``pools[l]`` maps level-l points to their level-(l+1) voxel (provenance);
    ``ups[l]`` maps level-l points to their nearest level-(l+1) point (1-NN);
    ``input_to_level0`` maps raw input points onto level 0.  Each map is a
    :class:`~segreg.autodiff.RowMap`, checked when the pyramid is built and
    counted once, since every forward pools, upsamples and reads the input
    along them.  The within-level neighbor tables are not kept: only the
    influence operators built from them read them.
    """

    levels: list[PointCloud]
    radii: list[float]
    pools: list[RowMap]
    ups: list[RowMap]
    input_to_level0: RowMap

    @property
    def stages(self) -> int:
        return len(self.levels)

    def fine_to_level(self, level: int) -> np.ndarray:
        """Compose pooling provenance: level-0 index -> level-`level` index."""
        assign = np.arange(len(self.levels[0]))
        for l in range(level):
            assign = self.pools[l].index[assign]
        return assign


class SparseCloudError(ValueError):
    """The input cloud has too few points for the method."""


def build_pyramid(cloud: PointCloud, stages: int, initial_voxel: float,
                  base_radius_mult: float) -> PointPyramid:
    """Build the resolution hierarchy used by every convolution network."""
    if stages < 2:
        raise ValueError("a pyramid needs at least 2 stages")
    level0, input_prov = voxel_grid_subsample(cloud, initial_voxel)
    levels = [level0]
    voxels = [initial_voxel]
    pools: list[np.ndarray] = []
    ups: list[np.ndarray] = []
    for l in range(1, stages):
        voxel = initial_voxel * (2.0 ** l)
        nxt, prov = voxel_grid_subsample(levels[-1], voxel)
        if len(nxt) < MIN_LEVEL_POINTS:
            raise SparseCloudError(
                f"cloud too sparse: level {l} collapsed to {len(nxt)} points "
                f"(minimum {MIN_LEVEL_POINTS})"
            )
        pools.append(RowMap(prov, len(nxt)))
        ups.append(RowMap(knn(levels[-1], nxt), len(nxt)))
        levels.append(nxt)
        voxels.append(voxel)
    radii = [base_radius_mult * v for v in voxels]
    return PointPyramid(levels, radii, pools, ups, RowMap(input_prov, len(level0)))
