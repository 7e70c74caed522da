"""Kernel-point convolution, pyramid, and network-level tests."""

import numpy as np
import pytest

from segreg import geometry
from segreg.autodiff import Tape, Tensor, backward, finite_difference_gradient, max_relative_error, sum_
from segreg.geometry import PointCloud, voxel_grid_subsample
from segreg.gumbel import straight_through_mask
from segreg.kpconv import (
    SIGMA_RATIO,
    build_pyramid,
    conv_influence,
    kernel_disposition,
    kpconv,
    kpconv_apply,
    local_reference_frames,
)
from segreg.networks import (
    RegNetConfig,
    SegNetConfig,
    build_context,
    init_reg_params,
    init_seg_params,
    reg_backbone_forward,
    seg_forward,
)
from segreg.phantom import PhantomConfig, generate_phantom


def surface_cloud(rng, n, colors=True):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    pos *= rng.uniform(0.7, 1.0, size=(n, 1))
    return PointCloud(pos, colors=rng.uniform(0, 1, size=(n, 3)) if colors else None)


# -- kernel disposition ------------------------------------------------------

def test_disposition_single_point_at_origin():
    disp = kernel_disposition(1, seed=0)
    np.testing.assert_array_equal(disp.points, np.zeros((1, 3)))


def test_disposition_spread_and_pinning():
    disp = kernel_disposition(15, seed=0)
    assert np.array_equal(disp.points[0], np.zeros(3))
    d = np.linalg.norm(disp.points[:, None] - disp.points[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0.2
    assert np.all(np.linalg.norm(disp.points, axis=1) <= 1 + 1e-12)


def test_disposition_deterministic():
    a = kernel_disposition(20, seed=5).points
    b = kernel_disposition(20, seed=5).points
    assert np.array_equal(a, b)


# -- convolution -------------------------------------------------------------

def test_kpconv_zero_features_give_zero_output():
    rng = np.random.default_rng(0)
    cloud = surface_cloud(rng, 50, colors=False)
    kern = kernel_disposition(15, 0).scaled(0.5)
    from segreg.geometry import radius_neighbors
    nbr = radius_neighbors(cloud, cloud, 0.5, 10)
    w = Tensor(rng.normal(size=(15, 3, 4)))
    feats = Tensor(np.zeros((50, 3)))
    out = kpconv(cloud, cloud, feats, nbr, kern, w)
    np.testing.assert_array_equal(out.data, np.zeros((50, 4)))


def test_kpconv_single_point_identity():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    kern = kernel_disposition(1, 0).scaled(1.0)
    nbr = np.array([[0]])
    feats = Tensor([[2.0, -3.0]])
    w = Tensor(np.eye(2)[None, :, :])  # K=1, identity mixing
    out = kpconv(cloud, cloud, feats, nbr, kern, w)
    np.testing.assert_allclose(out.data, feats.data)


def test_kpconv_rejects_weight_kernel_mismatch():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    kern = kernel_disposition(5, 0)
    with pytest.raises(ValueError):
        kpconv(cloud, cloud, Tensor([[1.0]]), np.array([[0]]), kern,
               Tensor(np.ones((3, 1, 2))))


def test_kpconv_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    cloud = surface_cloud(rng, 30, colors=False)
    from segreg.geometry import radius_neighbors
    nbr = radius_neighbors(cloud, cloud, 0.6, 8)
    kern = kernel_disposition(6, 2).scaled(0.6)
    infl = conv_influence(cloud.positions, cloud.positions, nbr, kern, 0.6 / SIGMA_RATIO)
    f0 = rng.uniform(-2, 2, size=(30, 3))
    w0 = rng.uniform(-2, 2, size=(6, 3, 4))
    proj = rng.uniform(-1, 1, size=(30, 4))

    def f(arrays):
        feats, weights = arrays
        valid = nbr < 30
        safe = np.where(valid, nbr, 0)
        gathered = feats[safe] * valid[:, :, None]
        mixed = np.matmul(infl.astype(np.float64), gathered)
        return float(np.sum(mixed.reshape(30, -1) @ weights.reshape(-1, 4) * proj))

    fd = finite_difference_gradient(f, [f0, w0])
    with Tape():
        feats = Tensor(f0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        out = kpconv_apply(infl, nbr, 30, feats, w)
        backward(sum_(out * Tensor(proj)))
    assert max_relative_error(feats.grad, fd[0]) < 1e-5
    assert max_relative_error(w.grad, fd[1]) < 1e-5


def test_kpconv_locality_bit_exact():
    # Moving a support point that is nobody's neighbor cannot change outputs.
    rng = np.random.default_rng(2)
    query = surface_cloud(rng, 40, colors=False)
    support_pos = np.vstack([query.positions, [[5.0, 5.0, 5.0]]])
    support = PointCloud(support_pos)
    from segreg.geometry import radius_neighbors
    nbr = radius_neighbors(query, support, 0.4, 8)
    assert not np.any(nbr == 40)  # the far point is not a neighbor of anyone
    kern = kernel_disposition(6, 3).scaled(0.4)
    w = Tensor(rng.normal(size=(6, 2, 3)))
    feats = rng.normal(size=(41, 2))

    out1 = kpconv(query, support, Tensor(feats), nbr, kern, w)
    moved = support_pos.copy()
    moved[40] += 1.0
    out2 = kpconv(query, PointCloud(moved), Tensor(feats), nbr, kern, w)
    assert np.array_equal(out1.data, out2.data)


def test_kpconv_mask_gating_is_additive_and_local():
    rng = np.random.default_rng(3)
    cloud = surface_cloud(rng, 60, colors=False)
    from segreg.geometry import radius_neighbors
    nbr = radius_neighbors(cloud, cloud, 0.5, 10)
    kern = kernel_disposition(8, 4).scaled(0.5)
    w = Tensor(rng.normal(size=(8, 1, 3)))
    mask = np.ones((60, 1))
    base = kpconv(cloud, cloud, Tensor(mask), nbr, kern, w).data

    i = 17
    toggled = mask.copy()
    toggled[i] = 0.0
    out = kpconv(cloud, cloud, Tensor(toggled), nbr, kern, w).data
    affected = np.any(nbr == i, axis=1)
    # bit-identical where i is not a neighbor
    assert np.array_equal(out[~affected], base[~affected])
    # exactly i's additive contribution elsewhere (first-layer linearity)
    only_i = mask * 0.0
    only_i[i] = 1.0
    contrib = kpconv(cloud, cloud, Tensor(only_i), nbr, kern, w).data
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
        want, prov = voxel_grid_subsample(fine, pyr.voxel_sizes[l + 1])
        np.testing.assert_array_equal(pyr.pools[l], prov)
        np.testing.assert_allclose(pyr.levels[l + 1].positions, want.positions)
        # upsampling: nearest coarse point per fine point
        for i in range(0, len(fine), 97):
            d = np.linalg.norm(pyr.levels[l + 1].positions - fine.positions[i], axis=1)
            assert pyr.ups[l][i] == int(np.argmin(d))
    # provenance is total
    assert pyr.input_to_level0.shape[0] == len(cloud)
    assert np.all(pyr.fine_to_level(2) < len(pyr.levels[2]))


# -- networks ----------------------------------------------------------------

TINY_SEG = SegNetConfig(widths=(2, 2, 2, 2, 2), width_factor=1.0,
                        initial_voxel=0.12, max_neighbors=8)
TINY_REG = RegNetConfig(widths=(2, 2, 4), width_factor=1.0, initial_voxel=0.08,
                        max_neighbors=8, superpoint_dim=4, dense_dim=3)


def test_seg_forward_shape_and_color_requirement():
    rng = np.random.default_rng(7)
    cloud = surface_cloud(rng, 300)
    ctx = build_context(cloud, TINY_SEG)
    params = init_seg_params(TINY_SEG, rng)
    logits = seg_forward(params, ctx, TINY_SEG)
    assert logits.shape == (300, 2)

    bare = PointCloud(cloud.positions)
    ctx2 = build_context(bare, TINY_SEG)
    with pytest.raises(ValueError, match="colors"):
        seg_forward(params, ctx2, TINY_SEG)


def test_seg_forward_identical_points_identical_logits():
    rng = np.random.default_rng(8)
    cloud = surface_cloud(rng, 200)
    pos = np.vstack([cloud.positions, cloud.positions[:1]])
    col = np.vstack([cloud.colors, cloud.colors[:1]])
    doubled = PointCloud(pos, colors=col)
    ctx = build_context(doubled, TINY_SEG)
    params = init_seg_params(TINY_SEG, rng)
    logits = seg_forward(params, ctx, TINY_SEG).data
    np.testing.assert_array_equal(logits[0], logits[-1])


def test_seg_forward_permutation_equivariance():
    rng = np.random.default_rng(9)
    cloud = surface_cloud(rng, 250)
    params = init_seg_params(TINY_SEG, rng)
    base = seg_forward(params, build_context(cloud, TINY_SEG), TINY_SEG).data

    perm = rng.permutation(250)
    shuffled = PointCloud(cloud.positions[perm], colors=cloud.colors[perm])
    out = seg_forward(params, build_context(shuffled, TINY_SEG), TINY_SEG).data
    np.testing.assert_allclose(out, base[perm], atol=1e-9)


def test_seg_forward_all_param_gradcheck():
    rng = np.random.default_rng(10)
    cloud = surface_cloud(rng, 80)
    ctx = build_context(cloud, TINY_SEG)
    params = init_seg_params(TINY_SEG, rng)
    names = sorted(params)
    proj = Tensor(rng.uniform(-1, 1, size=(80, 2)))

    def f(arrays):
        trial = {n: Tensor(a) for n, a in zip(names, arrays)}
        return float(np.sum(seg_forward(trial, ctx, TINY_SEG).data * proj.data))

    arrays = [params[n].data.copy() for n in names]
    fd = finite_difference_gradient(f, arrays)
    with Tape():
        backward(sum_(seg_forward(params, ctx, TINY_SEG) * proj))
    for n, g_fd in zip(names, fd):
        g = params[n].grad
        assert g is not None, n
        assert max_relative_error(g, g_fd) < 1e-4, n


def test_reg_backbone_zero_mask_zeroes_first_conv():
    rng = np.random.default_rng(11)
    cloud = surface_cloud(rng, 300, colors=False)
    ctx = build_context(cloud, TINY_REG)
    params = init_reg_params(TINY_REG, rng)
    from segreg.kpconv import kpconv_apply as raw_conv
    from segreg.autodiff import scatter_mean
    feats0 = scatter_mean(Tensor(np.zeros((300, 1))), ctx.pyramid.input_to_level0,
                          len(ctx.pyramid.levels[0]))
    first = raw_conv(ctx.influences[0], ctx.pyramid.neighbors[0],
                     len(ctx.pyramid.levels[0]), feats0, params["reg_enc0_w"])
    np.testing.assert_array_equal(first.data, np.zeros_like(first.data))


def test_reg_backbone_shapes_and_shared_params():
    rng = np.random.default_rng(12)
    pre = surface_cloud(rng, 400, colors=False)
    intra = surface_cloud(rng, 350, colors=False)
    params = init_reg_params(TINY_REG, rng)
    ctx_pre = build_context(pre, TINY_REG)
    ctx_intra = build_context(intra, TINY_REG)
    sp_p, dn_p = reg_backbone_forward(params, ctx_pre, Tensor(np.ones((400, 1))), TINY_REG)
    sp_i, dn_i = reg_backbone_forward(params, ctx_intra, Tensor(np.ones((350, 1))), TINY_REG)
    assert sp_p.shape == (len(ctx_pre.pyramid.levels[-1]), 4)
    assert sp_i.shape == (len(ctx_intra.pyramid.levels[-1]), 4)
    assert dn_p.shape == (len(ctx_pre.pyramid.levels[0]), 3)
    assert dn_i.shape == (len(ctx_intra.pyramid.levels[0]), 3)


def test_gradient_reaches_mask_logits_through_backbone():
    rng = np.random.default_rng(13)
    cloud = surface_cloud(rng, 300)
    seg_ctx = build_context(cloud, TINY_SEG)
    reg_ctx = build_context(cloud, TINY_REG)
    seg_params = init_seg_params(TINY_SEG, rng)
    reg_params = init_reg_params(TINY_REG, rng)
    with Tape():
        logits = seg_forward(seg_params, seg_ctx, TINY_SEG)
        mask, _, _ = straight_through_mask(logits, 1.0, np.random.default_rng(3))
        sp, dense = reg_backbone_forward(reg_params, reg_ctx, mask, TINY_REG)
        backward(sum_(dense * dense))
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
    snapped_reg = RegNetConfig(widths=(2, 2, 4), initial_voxel=grid, max_neighbors=8)
    cases = []
    for cloud, cfg in ((sample.intraoperative, TINY_SEG), (snapped, snapped_reg)):
        pyr = build_pyramid(cloud, cfg.stages, cfg.initial_voxel,
                            cfg.base_radius_mult, cfg.max_neighbors)
        kernel = kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
        want = []
        for l, lvl in enumerate(pyr.levels):
            pts = lvl.positions
            nbr = loop_radius_table(pts, pyr.radii[l], cfg.max_neighbors)
            ups = (loop_nearest(pts, pyr.levels[l + 1].positions)
                   if l + 1 < pyr.stages else None)
            frames = local_reference_frames(pts, nbr) if cfg is snapped_reg else None
            infl = loop_influence(pts, nbr, kernel.scaled(pyr.radii[l]).points,
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
                np.testing.assert_array_equal(ctx.pyramid.neighbors[l], nbr)
                if ups is not None:
                    np.testing.assert_array_equal(ctx.pyramid.ups[l], ups)
                assert ctx.influences[l].dtype == np.float32
                np.testing.assert_array_equal(ctx.influences[l], infl)
    assert len(fallback_rows) > 0
