"""Kernel-point convolution, pyramid, and network-level tests."""

import itertools
import tracemalloc

import numpy as np
import pytest

from segreg import autodiff as ad, geometry, networks
from segreg.autodiff import (
    NonFiniteError,
    Tape,
    Tensor,
    backward,
    sum_,
)
from segreg.geometry import PointCloud, radius_neighbors, voxel_grid_subsample
from segreg.gumbel import straight_through_mask
from segreg.kpconv import (
    SIGMA_RATIO,
    build_pyramid,
    conv_influence,
    kernel_disposition,
    kpconv_apply,
    local_reference_frames,
    neighbor_offsets,
)
from segreg.networks import (
    RegNetConfig,
    SegNetConfig,
    build_context,
    init_weights,
    param_shapes,
    reg_backbone_forward,
    seg_forward,
)
from segreg.phantom import PhantomConfig, generate_phantom
from reference_ops import (
    _repulse,
    add_at_feats_grad,
    composed_linear_head,
    composed_norm_act,
    einsum_local_reference_frames,
    expand_influence,
    gather_matmul_mixed,
    k8_knn,
    k8_radius_neighbors,
    oneshot_conv_influence,
    stored_order_product,
    where_neighbor_offsets,
)

EPS = np.finfo(np.float64).eps
# the (kernel_size, kernel_seed) of each network: the layouts kpconv stores
LAYOUTS = [(cfg.kernel_size, cfg.kernel_seed) for cfg in (SegNetConfig, RegNetConfig)]
SEG_KERNEL = kernel_disposition(*LAYOUTS[0])


def surface_cloud(rng, n, colors=True):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    pos *= rng.uniform(0.7, 1.0, size=(n, 1))
    return PointCloud(pos, colors=rng.uniform(0, 1, size=(n, 3)) if colors else None)


def kpconv(cloud, feats, neighbors, kernel, radius, weights):
    """Influence tables of the unit-ball ``kernel`` scaled to ``radius``, then
    the convolution."""
    infl = conv_influence(neighbor_offsets(cloud.positions, neighbors), neighbors,
                          kernel * radius, radius / SIGMA_RATIO)
    return kpconv_apply(infl, feats, weights)


# -- kernel disposition ------------------------------------------------------

@pytest.mark.parametrize("layout", LAYOUTS, ids=["seg", "reg"])
def test_stored_disposition_equals_the_reference_descent(layout):
    got = kernel_disposition(*layout)
    assert got.shape == (layout[0], 3) and got.dtype == np.float64
    assert np.array_equal(got, _repulse(*layout))


def test_disposition_rejects_unknown_layouts():
    for k, seed in ((1, 0), (15, 0), (20, 17), (6, 2)):
        with pytest.raises(ValueError, match="no stored kernel layout"):
            kernel_disposition(k, seed)


def test_disposition_spread_and_pinning():
    for layout in LAYOUTS:
        disp = kernel_disposition(*layout)
        assert np.array_equal(disp[0], np.zeros(3))
        d = np.linalg.norm(disp[:, None] - disp[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.2
        assert np.all(np.linalg.norm(disp, axis=1) <= 1 + 1e-12)


def test_disposition_deterministic():
    for layout in LAYOUTS:
        a, b = kernel_disposition(*layout), kernel_disposition(*layout)
        assert np.array_equal(a, b)
        a[1] = 7.0                      # each call returns its own copy
        assert np.array_equal(kernel_disposition(*layout), b)


# -- convolution -------------------------------------------------------------

def test_kpconv_zero_features_give_zero_output():
    rng = np.random.default_rng(0)
    cloud = surface_cloud(rng, 50, colors=False)
    nbr = radius_neighbors(cloud, 0.5, 10)
    w = Tensor(rng.normal(size=(15, 3, 4)))
    feats = Tensor(np.zeros((50, 3)))
    out = kpconv(cloud, feats, nbr, SEG_KERNEL, 0.5, w)
    np.testing.assert_array_equal(out.data, np.zeros((50, 4)))


def test_kpconv_single_point_identity():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    kern = np.zeros((1, 3))             # one kernel point, at the origin
    nbr = np.array([[0]])
    feats = Tensor([[2.0, -3.0]])
    w = Tensor(np.eye(2)[None, :, :])  # K=1, identity mixing
    out = kpconv(cloud, feats, nbr, kern, 1.0, w)
    np.testing.assert_allclose(out.data, feats.data)


def test_kpconv_rejects_weight_kernel_mismatch():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        kpconv(cloud, Tensor([[1.0]]), np.array([[0]]), SEG_KERNEL, 1.0,
               Tensor(np.ones((3, 1, 2))))


def test_kpconv_forward_equals_gather_matmul_expression():
    rng = np.random.default_rng(1)
    cloud = surface_cloud(rng, 30, colors=False)
    nbr = radius_neighbors(cloud, 0.6, 8)
    infl = conv_influence(neighbor_offsets(cloud.positions, nbr), nbr,
                          _repulse(6, 2) * 0.6, 0.6 / SIGMA_RATIO)
    f0 = rng.uniform(-2, 2, size=(30, 3))
    w0 = rng.uniform(-2, 2, size=(6, 3, 4))
    assert np.any(nbr == 30)                  # shadow slots read zero rows
    got = kpconv_apply(infl, Tensor(f0), Tensor(w0)).data
    mixed = stored_order_product(infl.matrix, f0)
    assert np.array_equal(got, mixed.reshape(30, -1) @ w0.reshape(-1, 4))
    # the dense product sums the same products in another order: either
    # sum is within (T - 1) eps / 2 of the exact one, relative to the row's
    # absolute sum, T its stored entries, so the two are within T eps
    table = expand_influence(infl, nbr)
    dense = gather_matmul_mixed(table, nbr, f0).reshape(-1, 3)
    abs_sum = gather_matmul_mixed(table, nbr, np.abs(f0)).reshape(-1, 3)
    terms = np.diff(infl.matrix.indptr)[:, None]
    assert np.all(np.abs(mixed - dense) <= terms * EPS * abs_sum)


def test_influence_transpose_is_a_view_of_the_operator():
    """The feature gradient's A.T is built once per operator and copies
    nothing: a CSC matrix over the CSR matrix's own three arrays."""
    ctx = build_context(surface_cloud(np.random.default_rng(9), 300), TINY_REG)
    for infl in ctx.influences:
        a, t = infl.matrix, infl.transposed
        assert t.format == "csc" and t.shape == a.shape[::-1]
        for part in ("data", "indices", "indptr"):
            mine, theirs = getattr(t, part), getattr(a, part)
            assert np.shares_memory(mine, theirs) and mine.nbytes == theirs.nbytes, part
        assert (t != a.T).nnz == 0


def test_kpconv_feats_gradient_equals_add_at_backward():
    sample = generate_phantom(PhantomConfig(seed=4, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    class CapAbove(TinyReg):
        """A cap above the densest neighborhoods leaves shadow slots to skip."""
        max_neighbors = 64

    ctx = build_context(sample.intraoperative, CapAbove())
    rng = np.random.default_rng(15)
    shadow_slots = 0
    for level, infl in enumerate(ctx.influences):
        lvl = ctx.pyramid.levels[level]
        nbr = radius_neighbors(lvl, ctx.pyramid.radii[level], 64)
        ns = len(lvl)
        k = infl.matrix.shape[0] // ns
        w0 = rng.normal(size=(k, 3, 2))
        proj = rng.normal(size=(ns, 2))
        with Tape():
            feats = Tensor(rng.normal(size=(ns, 3)), requires_grad=True)
            out = kpconv_apply(infl, feats, Tensor(w0, requires_grad=True))
            backward(sum_(ad.mul(out, Tensor(proj))))
        shadow_slots += np.count_nonzero(nbr == ns)
        g_mixed = (proj @ w0.reshape(-1, 2).T).reshape(ns * k, 3)
        want = stored_order_product(infl.matrix, g_mixed, transpose=True)
        assert np.array_equal(feats.grad, want), level
        # the backward as written with np.add.at sums each point's products
        # in another order; as in the forward, T eps of the absolute sum
        table = expand_influence(infl, nbr)
        dense = add_at_feats_grad(table, nbr, g_mixed.reshape(ns, k, 3))
        abs_sum = add_at_feats_grad(table, nbr, np.abs(g_mixed).reshape(ns, k, 3))
        terms = np.bincount(infl.matrix.indices, minlength=ns)[:, None]
        assert np.all(np.abs(feats.grad - dense) <= terms * EPS * abs_sum), level
    assert shadow_slots > 0


def test_kpconv_locality_bit_exact():
    # Moving a point that is no other point's neighbor cannot change outputs:
    # the other rows never read it, and its own row sees only itself.
    rng = np.random.default_rng(2)
    near = surface_cloud(rng, 40, colors=False).positions
    pos = np.vstack([near, [[5.0, 5.0, 5.0]]])
    nbr = radius_neighbors(PointCloud(pos), 0.4, 8)
    assert not np.any(nbr[:40] == 40)  # the far point is not a neighbor of anyone
    kern = _repulse(6, 3)
    w = Tensor(rng.normal(size=(6, 2, 3)))
    feats = rng.normal(size=(41, 2))

    out1 = kpconv(PointCloud(pos), Tensor(feats), nbr, kern, 0.4, w)
    moved = pos.copy()
    moved[40] += 1.0
    assert np.array_equal(radius_neighbors(PointCloud(moved), 0.4, 8), nbr)
    out2 = kpconv(PointCloud(moved), Tensor(feats), nbr, kern, 0.4, w)
    assert np.array_equal(out1.data, out2.data)


def test_kpconv_mask_gating_is_additive_and_local():
    rng = np.random.default_rng(3)
    cloud = surface_cloud(rng, 60, colors=False)
    nbr = radius_neighbors(cloud, 0.5, 10)
    kern = _repulse(8, 4)
    w = Tensor(rng.normal(size=(8, 1, 3)))
    mask = np.ones((60, 1))
    base = kpconv(cloud, Tensor(mask), nbr, kern, 0.5, w).data

    i = 17
    toggled = mask.copy()
    toggled[i] = 0.0
    out = kpconv(cloud, Tensor(toggled), nbr, kern, 0.5, w).data
    affected = np.any(nbr == i, axis=1)
    # bit-identical where i is not a neighbor
    assert np.array_equal(out[~affected], base[~affected])
    # exactly i's additive contribution elsewhere (first-layer linearity)
    only_i = mask * 0.0
    only_i[i] = 1.0
    contrib = kpconv(cloud, Tensor(only_i), nbr, kern, 0.5, w).data
    np.testing.assert_allclose(base - out, contrib, atol=1e-12)


# -- pyramid -----------------------------------------------------------------

def test_pyramid_level0_identity_when_sparse():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0],
                                 [1.0, 1.0, 0], [0, 0, 1.0], [1, 1, 1.0]]) * 2)
    pyr = build_pyramid(cloud, 2, 0.5, 2.5)
    assert len(pyr.levels[0]) == len(cloud)


def test_pyramid_strictly_coarsens_dense_clouds():
    rng = np.random.default_rng(4)
    cloud = PointCloud(rng.uniform(0, 1, size=(2000, 3)))
    pyr = build_pyramid(cloud, 2, 0.2, 2.5)
    assert len(pyr.levels[1]) < len(pyr.levels[0])


def test_pyramid_rejects_collapse():
    cloud = PointCloud(np.random.default_rng(5).uniform(0, 0.01, size=(50, 3)))
    with pytest.raises(ValueError, match="sparse"):
        build_pyramid(cloud, 3, 0.04, 2.5)


def test_pyramid_indices_match_brute_force():
    rng = np.random.default_rng(6)
    cloud = surface_cloud(rng, 1000, colors=False)
    pyr = build_pyramid(cloud, 3, 0.08, 2.5)
    # pooling indices = voxel provenance recomputed independently
    for l in range(2):
        fine = pyr.levels[l]
        want, prov = voxel_grid_subsample(fine, 0.08 * 2.0 ** (l + 1))
        np.testing.assert_array_equal(pyr.pools[l].index, prov)
        np.testing.assert_allclose(pyr.levels[l + 1].positions, want.positions)
        # upsampling: nearest coarse point per fine point
        for i in range(0, len(fine), 97):
            d = np.linalg.norm(pyr.levels[l + 1].positions - fine.positions[i], axis=1)
            assert pyr.ups[l].index[i] == int(np.argmin(d))
    # provenance is total, and each map counts its groups
    assert pyr.input_to_level0.index.shape[0] == len(cloud)
    for rows, n in zip(pyr.pools + pyr.ups, [len(lvl) for lvl in pyr.levels[1:]] * 2):
        assert rows.n == n and not rows.shadow
        assert np.array_equal(rows.divisor, np.maximum(np.bincount(rows.index, minlength=n), 1))
    assert np.all(pyr.fine_to_level(2) < len(pyr.levels[2]))


# -- networks ----------------------------------------------------------------

# two or four channels a layer on a coarse pyramid, for small clouds
class TinySeg(SegNetConfig):
    widths = (2, 2, 2, 2, 2)
    initial_voxel = 0.12
    max_neighbors = 8


class TinyReg(RegNetConfig):
    widths = (2, 2, 4)
    initial_voxel = 0.08
    max_neighbors = 8


TINY_SEG, TINY_REG = TinySeg(width_factor=1.0), TinyReg(width_factor=1.0)


@pytest.mark.parametrize("cls", [SegNetConfig, RegNetConfig])
@pytest.mark.parametrize("field, value", [
    ("width_factor", 0.0), ("width_factor", -1.0), ("width_factor", np.inf),
])
def test_network_configs_reject_values_that_describe_no_network(cls, field, value):
    with pytest.raises(ValueError, match="need a positive, finite width_factor"):
        cls(**{field: value})


class ReadLog(dict):
    """Parameters that record every name a forward pass reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def test_param_shapes_are_exactly_what_the_forward_passes_read():
    rng = np.random.default_rng(6)
    cloud = surface_cloud(rng, 300)
    seg, reg = ReadLog(init_weights(TINY_SEG, rng)), ReadLog(init_weights(TINY_REG, rng))
    seg_forward(seg, build_context(cloud, TINY_SEG))
    reg_backbone_forward(reg, build_context(cloud, TINY_REG))
    for params, cfg in ((seg, TINY_SEG), (reg, TINY_REG)):
        shapes = param_shapes(cfg)
        assert sorted(set(params.read)) == sorted(shapes)
        assert {name: p.shape for name, p in params.items()} == shapes
    assert param_shapes(TINY_REG)["reg_sp_w"] == (4, networks.SUPERPOINT_DIM)
    assert param_shapes(TINY_SEG)["seg_enc0_w"] == (TINY_SEG.kernel_size, 4, 2)


def test_seg_forward_shape_and_color_requirement():
    rng = np.random.default_rng(7)
    cloud = surface_cloud(rng, 300)
    ctx = build_context(cloud, TINY_SEG)
    params = init_weights(TINY_SEG, rng)
    logits = seg_forward(params, ctx)
    assert logits.shape == (300, 2)

    bare = PointCloud(cloud.positions)
    with pytest.raises(ValueError, match="colors"):
        build_context(bare, TINY_SEG)


def test_seg_forward_identical_points_identical_logits():
    rng = np.random.default_rng(8)
    cloud = surface_cloud(rng, 200)
    pos = np.vstack([cloud.positions, cloud.positions[:1]])
    col = np.vstack([cloud.colors, cloud.colors[:1]])
    doubled = PointCloud(pos, colors=col)
    ctx = build_context(doubled, TINY_SEG)
    params = init_weights(TINY_SEG, rng)
    logits = seg_forward(params, ctx).data
    np.testing.assert_array_equal(logits[0], logits[-1])


def test_seg_forward_permutation_equivariance():
    rng = np.random.default_rng(9)
    cloud = surface_cloud(rng, 250)
    params = init_weights(TINY_SEG, rng)
    base = seg_forward(params, build_context(cloud, TINY_SEG)).data

    perm = rng.permutation(250)
    shuffled = PointCloud(cloud.positions[perm], colors=cloud.colors[perm])
    out = seg_forward(params, build_context(shuffled, TINY_SEG)).data
    np.testing.assert_allclose(out, base[perm], atol=1e-9)


def test_fused_norm_act_equals_composed_reference():
    rng = np.random.default_rng(16)
    gamma0, beta0 = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
    ys0 = [rng.normal(size=(n, 5)) * 3.0 for n in (40, 23)]
    projs = [rng.normal(size=(n, 5)) for n in (40, 23)]
    results = []
    for norm_act in (networks._norm_act, composed_norm_act):
        params = {"blk_gamma": Tensor(gamma0, requires_grad=True),
                  "blk_beta": Tensor(beta0, requires_grad=True)}
        ys = [Tensor(y0, requires_grad=True) for y0 in ys0]
        with Tape():
            # two calls share gamma and beta, as the registration backbone does
            outs = [norm_act(params, "blk", y) for y in ys]
            backward(ad.add(sum_(ad.mul(outs[0], Tensor(projs[0]))),
                            sum_(ad.mul(outs[1], Tensor(projs[1])))))
        results.append([o.data for o in outs] + [y.grad for y in ys]
                       + [params["blk_gamma"].grad, params["blk_beta"].grad])
    fused, composed = results
    assert np.any(fused[0] < 0) and np.any(fused[0] > 0)
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("norm_act", [networks._norm_act, composed_norm_act])
def test_norm_act_overflow_raises_nonfinite(norm_act):
    params = {"blk_gamma": Tensor(np.ones((1, 2))), "blk_beta": Tensor(np.zeros((1, 2)))}
    y = Tensor(np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        norm_act(params, "blk", y)


def norm_act_outcome(norm_act, scale, gamma, beta):
    """The output of ``norm_act`` on a scaled 3x2 input, or None when it
    raises NonFiniteError (an overflow warning fails the test)."""
    params = {"blk_gamma": Tensor(gamma * np.array([[1.0, -0.5]])),
              "blk_beta": Tensor(beta * np.array([[1.0, -1.0]]))}
    y = Tensor(scale * np.array([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]]))
    try:
        return norm_act(params, "blk", y).data
    except NonFiniteError:
        return None


def test_norm_act_raises_nonfinite_exactly_where_the_composed_chain_does():
    """The fused node checks only the mean and variance rows and its output;
    on a grid of input, gamma and beta scales it raises on the same cases as
    the composed chain, which checks every intermediate, and is equal on the
    others."""
    scales = (1.0, 1e150, 1e154, 1e155, 1e200, 1e307, 1.7e308)
    gammas = (1.0, 1e150, 1e300, 1e308, 1.7e308)
    betas = (0.0, 1e308, -1.7e308, 1.7e308)
    raised = set()
    for case in itertools.product(scales, gammas, betas):
        fused = norm_act_outcome(networks._norm_act, *case)
        composed = norm_act_outcome(composed_norm_act, *case)
        assert (fused is None) == (composed is None), case
        if fused is None:
            raised.add(case)
        else:
            assert np.array_equal(fused, composed), case
    # an overflow from the input alone, from gamma alone, from beta alone
    assert {(1e155, 1.0, 0.0), (1.0, 1.7e308, 0.0), (1.0, 1e308, 1.7e308)} <= raised
    assert (1.0, 1e308, 0.0) not in raised and 0 < len(raised) < 140


def test_fused_linear_head_equals_composed_reference():
    """One node for ``feats @ w + b``, bit-identical to the matmul / expand /
    add chain in values and in the gradients of features, weights and bias,
    with the head shared by two inputs as the registration backbone's is."""
    rng = np.random.default_rng(18)
    w0, b0 = rng.normal(size=(6, 3)), rng.normal(size=(1, 3))
    feats0 = [rng.normal(size=(n, 6)) * 3.0 for n in (41, 17)]
    projs = [rng.normal(size=(n, 3)) for n in (41, 17)]
    results = []
    for head in (networks._linear_head, composed_linear_head):
        params = {"h_w": Tensor(w0, requires_grad=True), "h_b": Tensor(b0, requires_grad=True)}
        feats = [Tensor(f, requires_grad=True) for f in feats0]
        with Tape() as tape:
            outs = [head(params, "h", f) for f in feats]
            nodes = len(tape)
            backward(ad.add(sum_(ad.mul(outs[0], Tensor(projs[0]))),
                            sum_(ad.mul(outs[1], Tensor(projs[1])))))
        results.append([nodes] + [o.data for o in outs] + [f.grad for f in feats]
                       + [params["h_w"].grad, params["h_b"].grad])
    fused, composed = results
    assert (fused[0], composed[0]) == (2, 6)
    for got, want in zip(fused[1:], composed[1:]):
        assert np.array_equal(got, want)


COLUMN_SUM_ROWS = [1, 2, 3, 7, 8, 9, 16, 17, 100, 127, 128, 129, 1007, 3153, 10_000]
COLUMN_SUM_COLS = [2, 3, 4, 7, 8, 9, 16, 17, 31, 32, 33, 64, 127, 128]


@pytest.mark.parametrize("layout", ["c_contiguous", "column_sliced", "column_major"])
def test_column_sum_equals_np_sum_on_every_layout(layout):
    """``einsum`` where ``np.sum`` adds rows in order, ``np.sum`` itself on a
    column-major array, which it sums pairwise."""
    rng = np.random.default_rng(19)
    for n in COLUMN_SUM_ROWS:
        for c in COLUMN_SUM_COLS:
            base = rng.normal(size=(n, c + 2)) * 10.0 ** rng.integers(-4, 5, size=c + 2)
            a = {"c_contiguous": np.ascontiguousarray(base[:, :c]),
                 "column_sliced": base[:, 1:c + 1],
                 "column_major": np.asfortranarray(base[:, :c])}[layout]
            got = networks._column_sum(a)
            assert got.shape == (1, c)
            assert np.array_equal(got, np.sum(a, axis=0, keepdims=True)), (n, c)
    # signed zeros: a column of only -0.0, and -0.0 with +0.0 or a cancelling pair
    base = np.full((5, 6), -0.0)
    base[2, 2], base[1:3, 3] = 0.0, (1.5, -1.5)
    a = {"c_contiguous": base[:, :4].copy(), "column_sliced": base[:, 1:5],
         "column_major": np.asfortranarray(base[:, :4])}[layout]
    got, want = networks._column_sum(a), np.sum(a, axis=0, keepdims=True)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("net", ["seg", "reg"])
def test_overflowing_convolution_raises_nonfinite_error_without_a_warning(net):
    """Outside a training step no caller turns float warnings off, and pytest
    turns a RuntimeWarning into an error, so none may fire first: the
    segmentation net's first convolution reads the context's mix, the
    registration backbone's one forms it from point features on the tape."""
    rng = np.random.default_rng(8)
    cloud = surface_cloud(rng, 300)
    cfg = TINY_SEG if net == "seg" else TINY_REG
    params = init_weights(cfg, rng)
    name = f"{net}_enc0_w"
    params[name] = Tensor(np.full(params[name].shape, 1e308))
    with pytest.raises(NonFiniteError):
        if net == "seg":
            seg_forward(params, build_context(cloud, cfg))
        else:
            on_tape = Tensor(np.ones((300, 1)), requires_grad=True)
            reg_backbone_forward(params, build_context(cloud, cfg).holding(on_tape))


def test_reg_backbone_zero_mask_zeroes_first_conv():
    rng = np.random.default_rng(11)
    cloud = surface_cloud(rng, 300, colors=False)
    ctx = build_context(cloud, TINY_REG)
    params = init_weights(TINY_REG, rng)
    from segreg.kpconv import kpconv_apply as raw_conv
    from segreg.autodiff import scatter_mean
    feats0 = scatter_mean(Tensor(np.zeros((300, 1))), ctx.pyramid.input_to_level0)
    first = raw_conv(ctx.influences[0], feats0, params["reg_enc0_w"])
    np.testing.assert_array_equal(first.data, np.zeros_like(first.data))


def test_reg_backbone_shapes_and_shared_params():
    rng = np.random.default_rng(12)
    pre = surface_cloud(rng, 400, colors=False)
    intra = surface_cloud(rng, 350, colors=False)
    params = init_weights(TINY_REG, rng)
    ctx_pre = build_context(pre, TINY_REG)
    ctx_intra = build_context(intra, TINY_REG)
    sp_p, dn_p = reg_backbone_forward(params, ctx_pre)
    sp_i, dn_i = reg_backbone_forward(params, ctx_intra)
    assert sp_p.shape == (len(ctx_pre.pyramid.levels[-1]), networks.SUPERPOINT_DIM)
    assert sp_i.shape == (len(ctx_intra.pyramid.levels[-1]), networks.SUPERPOINT_DIM)
    assert dn_p.shape == (len(ctx_pre.pyramid.levels[0]), networks.DENSE_DIM)
    assert dn_i.shape == (len(ctx_intra.pyramid.levels[0]), networks.DENSE_DIM)


def test_gradient_reaches_mask_logits_through_backbone():
    rng = np.random.default_rng(13)
    cloud = surface_cloud(rng, 300)
    seg_ctx = build_context(cloud, TINY_SEG)
    reg_ctx = build_context(cloud, TINY_REG)
    seg_params = init_weights(TINY_SEG, rng)
    reg_params = init_weights(TINY_REG, rng)
    with Tape():
        logits = seg_forward(seg_params, seg_ctx)
        mask, _ = straight_through_mask(logits, 1.0, np.random.default_rng(3))
        sp, dense = reg_backbone_forward(reg_params, reg_ctx.holding(mask))
        backward(sum_(ad.mul(dense, dense)))
    grads = [p.grad for p in seg_params.values()]
    assert any(g is not None and np.linalg.norm(g) > 0 for g in grads)


# -- geometry tables against loop references ---------------------------------

def loop_radius_table(points, radius, cap):
    n = len(points)
    table = np.full((n, cap), n, dtype=np.int64)
    for i, p in enumerate(points):
        diff = points - p
        d2 = np.einsum("ij,ij->i", diff, diff)
        idx = np.flatnonzero(d2 <= radius * radius)
        row = idx[np.lexsort((idx, d2[idx]))][:cap]
        table[i, :row.size] = row
    return table


def loop_nearest(fine, coarse):
    return np.array([np.argmin(np.einsum("ij,ij->i", coarse - p, coarse - p))
                     for p in fine])


def loop_influence(points, nbr, kernel_points, sigma, frames):
    n, h = nbr.shape
    out = np.zeros((n, kernel_points.shape[0], h), dtype=np.float32)
    for i in range(n):
        slots = np.flatnonzero(nbr[i] < n)
        rel = points[nbr[i, slots]] - points[i]
        if frames is not None:
            rel = np.einsum("ij,hj->hi", frames[i], rel)
        d = rel[None, :, :] - kernel_points[:, None, :]
        dist = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
        out[i][:, slots] = np.maximum(0.0, 1.0 - dist / sigma)
    return out


def test_build_context_tables_match_loop_references(fallback_rows, monkeypatch):
    sample = generate_phantom(PhantomConfig(seed=3, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    # snapping to a dyadic grid one level-0 voxel wide keeps every level-0
    # point on the grid, so neighbor shells tie and the caps cut through them
    grid = 1.0 / 8.0
    snapped = PointCloud(np.round(sample.intraoperative.positions / grid) * grid)
    class Snapped(TinyReg):
        initial_voxel = grid

    snapped_reg = Snapped()
    cases = []
    for cloud, cfg in ((sample.intraoperative, TINY_SEG), (snapped, snapped_reg)):
        pyr = build_pyramid(cloud, len(cfg.widths), cfg.initial_voxel, cfg.base_radius_mult)
        kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
        want = []
        for l, lvl in enumerate(pyr.levels):
            pts = lvl.positions
            nbr = loop_radius_table(pts, pyr.radii[l], cfg.max_neighbors)
            ups = (loop_nearest(pts, pyr.levels[l + 1].positions)
                   if l + 1 < pyr.stages else None)
            frames = (local_reference_frames(neighbor_offsets(pts, nbr), nbr)
                      if cfg is snapped_reg else None)
            infl = loop_influence(pts, nbr, kernel * pyr.radii[l],
                                  pyr.radii[l] / SIGMA_RATIO, frames)
            want.append((nbr, ups, infl))
        cases.append((cloud, cfg, want))
    # a candidate list no longer than the cap sends every full row to the
    # exact per-row query, so both paths are checked on the same clouds
    for slack in (None, 0):
        if slack is not None:
            monkeypatch.setattr(geometry, "_SLACK", slack)
        for cloud, cfg, want in cases:
            ctx = build_context(cloud, cfg)
            for l, (nbr, ups, infl) in enumerate(want):
                lvl = ctx.pyramid.levels[l]
                np.testing.assert_array_equal(
                    radius_neighbors(lvl, ctx.pyramid.radii[l], cfg.max_neighbors), nbr)
                if ups is not None:
                    np.testing.assert_array_equal(ctx.pyramid.ups[l].index, ups)
                np.testing.assert_array_equal(expand_influence(ctx.influences[l], nbr),
                                              infl)
    assert len(fallback_rows) > 0


def small_phantom_intra(snapped):
    """The intra cloud of the small phantom of the loop-reference test under
    ``TINY_SEG``, or snapped to its grid under a registration config."""
    cloud = generate_phantom(PhantomConfig(seed=3, n_vertebrae=2, points_pre=1024,
                                           points_intra=512)).intraoperative
    if not snapped:
        return cloud, TINY_SEG
    grid = 1.0 / 8.0
    class Snapped(TinyReg):
        initial_voxel = grid

    return PointCloud(np.round(cloud.positions / grid) * grid), Snapped()


def phantom1000_intra(cfg):
    return generate_phantom(PhantomConfig(seed=1000)).intraoperative, cfg


# clouds, and whether their neighbor caps leave shadow slots; on the
# snapped cloud every cap binds, cutting through tied shells
SHADOW_TABLE_CASES = {
    "small_raw_seg": (lambda: small_phantom_intra(False), True),
    "small_snapped_reg": (lambda: small_phantom_intra(True), False),
    "phantom1000_intra_seg": (lambda: phantom1000_intra(SegNetConfig()), True),
    "phantom1000_intra_reg": (lambda: phantom1000_intra(RegNetConfig()), True),
}


@pytest.mark.parametrize("case", sorted(SHADOW_TABLE_CASES))
def test_offsets_and_frames_equal_where_gather_references_on_shadow_tables(case):
    # the shadow slots must read 0 in the offsets and drop out of the frames
    # exactly as under the np.where gather, the separate subtraction and the
    # multiply by the mask
    make, has_shadow = SHADOW_TABLE_CASES[case]
    cloud, cfg = make()
    pyr = build_pyramid(cloud, len(cfg.widths), cfg.initial_voxel, cfg.base_radius_mult)
    shadow_slots = 0
    for lvl, radius in zip(pyr.levels, pyr.radii):
        pts = lvl.positions
        nbr = radius_neighbors(lvl, radius, cfg.max_neighbors)
        shadow_slots += np.count_nonzero(nbr == len(lvl))
        offsets = neighbor_offsets(pts, nbr)
        assert np.array_equal(offsets, where_neighbor_offsets(pts, nbr))
        assert np.array_equal(local_reference_frames(offsets, nbr),
                              einsum_local_reference_frames(pts, nbr))
    assert (shadow_slots > 0) == has_shadow


# -- influence row blocks ----------------------------------------------------

@pytest.mark.parametrize("with_frames", [False, True], ids=["plain", "frames"])
@pytest.mark.parametrize("nq", [6, 7, 8], ids=["below", "equal", "past"])
def test_blocked_influence_equals_one_shot(monkeypatch, with_frames, nq):
    # blocks of 7 rows: one short block, one full block, a full block and one row
    monkeypatch.setattr("segreg.kpconv._INFLUENCE_BLOCK", 7)
    cloud = surface_cloud(np.random.default_rng(50), nq, colors=False)
    radius = 1.2
    nbr = radius_neighbors(cloud, radius, 8)
    assert np.any(nbr == nq) and np.all(nbr[:, 1] < nq)
    offsets = neighbor_offsets(cloud.positions, nbr)
    frames = local_reference_frames(offsets, nbr) if with_frames else None
    args = (nbr, SEG_KERNEL * radius, radius / SIGMA_RATIO, frames)
    got = expand_influence(conv_influence(offsets, *args), nbr)
    want = oneshot_conv_influence(cloud.positions, *args)
    assert want.dtype == np.float32
    assert np.array_equal(got, want)
    assert not np.any(got.transpose(0, 2, 1)[nbr == nq])


def test_influence_never_holds_a_full_float64_table():
    sample = generate_phantom(PhantomConfig(seed=1000))
    cfg = RegNetConfig()
    pyr = build_pyramid(sample.preoperative, len(cfg.widths), cfg.initial_voxel,
                        cfg.base_radius_mult)
    pts, radius = pyr.levels[0].positions, pyr.radii[0]
    nbr = radius_neighbors(pyr.levels[0], radius, cfg.max_neighbors)
    offsets = neighbor_offsets(pts, nbr)
    args = (nbr, kernel_disposition(cfg.kernel_size, cfg.kernel_seed) * radius,
            radius / SIGMA_RATIO, local_reference_frames(offsets, nbr))
    # the one-shot evaluation holds at least two tables of this size
    table_bytes = 8 * nbr.size * cfg.kernel_size
    tracemalloc.start()
    try:
        got = conv_influence(offsets, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes
    want = oneshot_conv_influence(pts, *args)
    assert np.array_equal(expand_influence(got, nbr), want)


# -- tables against the arithmetic they replaced ------------------------------

@pytest.mark.parametrize("seed", [1000, 2000])
def test_context_tables_equal_previous_arithmetic_on_benchmark_phantoms(seed):
    sample = generate_phantom(PhantomConfig(seed=seed))
    cases = ((sample.preoperative, RegNetConfig()), (sample.intraoperative, RegNetConfig()),
             (sample.intraoperative, SegNetConfig()))
    for cloud, cfg in cases:
        ctx = build_context(cloud, cfg)
        pyr = ctx.pyramid
        kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
        for l, (lvl, radius) in enumerate(zip(pyr.levels, pyr.radii)):
            pts = lvl.positions
            nbr = k8_radius_neighbors(lvl, radius, cfg.max_neighbors)
            assert np.array_equal(radius_neighbors(lvl, radius, cfg.max_neighbors), nbr)
            if l + 1 < pyr.stages:
                assert np.array_equal(pyr.ups[l].index, k8_knn(lvl, pyr.levels[l + 1]))
            frames = None
            if isinstance(cfg, RegNetConfig):
                frames = einsum_local_reference_frames(pts, nbr)
                got = local_reference_frames(neighbor_offsets(pts, nbr), nbr)
                assert np.array_equal(got, frames)
            want = oneshot_conv_influence(pts, nbr, kernel * radius, radius / SIGMA_RATIO,
                                          frames)
            assert np.array_equal(expand_influence(ctx.influences[l], nbr), want)


def test_frames_on_a_symmetric_lattice_resum_near_zero_cube_sums_with_power():
    # every neighborhood of an interior lattice point is centrally symmetric,
    # so its third moment along any axis is 0 in exact arithmetic and its
    # rounded cube sum lies far inside the 1e-12 fallback margin; on this
    # lattice the product cubes alone orient some of those rows the other
    # way from ``p ** 3``, so only the fallback keeps the frames equal
    basis = np.array([[1.0, 0.3, 0.1], [0.2, 0.7, -0.1], [0.5, -0.1, 0.6]])
    pts = np.array(list(np.ndindex(9, 9, 9)), dtype=float) @ basis
    nbr = radius_neighbors(PointCloud(pts), 0.9, 32)
    offsets = neighbor_offsets(pts, nbr)
    want = einsum_local_reference_frames(pts, nbr)
    assert np.array_equal(local_reference_frames(offsets, nbr), want)
    cubes = np.einsum("qhi,qi->qh", offsets, want[:, 0]) ** 3
    near_zero = np.abs(cubes.sum(axis=1)) <= 1e-12 * np.abs(cubes).sum(axis=1)
    assert np.count_nonzero(near_zero) >= 100


@pytest.mark.parametrize("radius", [0.175, 1.0, 37.5])
def test_expanded_influence_within_1e7_with_neighbors_on_kernel_points(radius):
    # the kernel itself as the cloud: row 0's offsets are the kernel points,
    # where |r|^2 + |k|^2 - 2 k.r cancels to rounding error
    kernel = SEG_KERNEL * radius
    rng = np.random.default_rng(51)
    extra = rng.normal(size=(40, 3)) * radius / 2.0
    pts = np.vstack([kernel, extra])
    # kernel points on the ball's surface may round to just past the radius
    nbr = radius_neighbors(PointCloud(pts), 1.001 * radius, 64)
    slots = [np.flatnonzero(nbr[0] == j) for j in range(15)]
    assert all(s.size == 1 for s in slots)
    args = (nbr, kernel, radius / SIGMA_RATIO)
    got = expand_influence(conv_influence(neighbor_offsets(pts, nbr), *args), nbr)
    want = oneshot_conv_influence(pts, *args)
    assert all(want[0, j, s[0]] == 1.0 for j, s in enumerate(slots))
    assert np.max(np.abs(got.astype(np.float64) - want)) <= 1e-7
