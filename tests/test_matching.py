"""Matcher tests: overlap labels, coarse/fine matching, Procrustes, losses."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from segreg import autodiff as ad, matching
from segreg.autodiff import (
    NonFiniteError,
    Tape,
    Tensor,
    backward,
    sum_,
)
from segreg.geometry import PointCloud, RigidTransform, random_rigid, rotation_angle_deg
from segreg.kpconv import build_pyramid
from segreg.matching import (
    K_CORR,
    LOG_SCALE,
    NEG_MARGIN,
    OVERLAP_PATCH_RADIUS,
    POS_MARGIN,
    POSITIVE_OVERLAP,
    NoPositivePairsError,
    PatchedSuperpoints,
    build_patches,
    coarse_loss,
    coarse_match,
    coarse_targets,
    distance_histograms,
    fine_loss,
    fine_match,
    ground_truth_patch_matches,
    l2_normalize_rows,
    normalize_scores_with_slack,
    patch_scores,
    procrustes_stack,
    refine_transform,
    superpoint_overlap_labels,
    weighted_procrustes,
)
from segreg.networks import RegNetConfig, SegNetConfig, reg_backbone_forward
from segreg.phantom import PhantomConfig, RegistrationSample, generate_phantom
from segreg.pipeline import MatcherConfig, prepare_sample
from segreg.training import init_params
from reference_ops import (
    LoopPatches,
    composed_normalize_scores_with_slack,
    full_stack_distance_histograms,
    loop_build_patches,
    loop_distance_histograms,
    loop_fine_match,
    loop_ground_truth,
    loop_superpoint_overlap_labels,
    overlap_coarse_loss,
    scalar_weighted_procrustes,
    slack_normalize_2d,
)


def surface_cloud(rng, n):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    pos *= rng.uniform(0.7, 1.0, size=(n, 1))
    return PointCloud(pos)


def make_views(rng, n=600):
    cloud = surface_cloud(rng, n)
    pyr = build_pyramid(cloud, 3, 0.08, 2.5)
    return build_patches(pyr, patch_size=24), pyr


def overlap_of(prepared):
    """The superpoint overlap that ``prepare_sample`` derived its targets
    from; the prepared sample keeps only the targets."""
    return superpoint_overlap_labels(prepared.pre_view, prepared.intra_view,
                                     prepared.sample.T_gt)


def members(view, b):
    """Level-0 indices of superpoint b's patch."""
    return view.patch_indices[b, : view.sizes[b]]


def one_matrix(s):
    """A slack-padded (R+1, C+1) matrix with no pads as a stack of one, and
    its real row and column counts."""
    return Tensor(s[None]), [s.shape[0] - 1], [s.shape[1] - 1]


# -- overlap labels ----------------------------------------------------------

def test_overlap_identity_diagonal_is_one():
    rng = np.random.default_rng(0)
    view, _ = make_views(rng)
    ov = superpoint_overlap_labels(view, view, RigidTransform.identity())
    assert np.allclose(np.diag(ov), 1.0)


def test_overlap_disjoint_clouds_zero():
    rng = np.random.default_rng(1)
    view, _ = make_views(rng)
    far = RigidTransform(np.eye(3), np.array([50.0, 0.0, 0.0]))
    ov = superpoint_overlap_labels(view, view, far)
    assert np.all(ov == 0.0)


def test_overlap_matches_brute_force():
    rng = np.random.default_rng(2)
    pre_view, _ = make_views(rng, 280)
    intra_view, _ = make_views(rng, 300)
    T = random_rigid(0.05, 15.0, rng)
    radius = OVERLAP_PATCH_RADIUS
    got = superpoint_overlap_labels(pre_view, intra_view, T)

    mp = pre_view.points.shape[0]
    mi = intra_view.points.shape[0]
    want = np.zeros((mp, mi))
    for a in range(mp):
        pts = T.apply_points(pre_view.fine_points[members(pre_view, a)])
        for b in range(mi):
            q = intra_view.fine_points[members(intra_view, b)]
            if len(q) == 0 or len(pts) == 0:
                continue
            d = np.linalg.norm(pts[:, None, :] - q[None, :, :], axis=-1)
            want[a, b] = np.mean(d.min(axis=1) <= radius)
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- coarse matching ---------------------------------------------------------

def test_coarse_match_identical_features_rank_diagonal_first():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(20, 8))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    pairs, scores = coarse_match(feats, feats, np.zeros((20, 20)))
    assert len(pairs) == K_CORR
    assert np.all(pairs[:20, 0] == pairs[:20, 1])
    assert np.all(np.diff(scores) <= 1e-15)


def test_coarse_match_uniform_falls_back_to_index_order():
    flat = np.ones((8, 8)) / np.sqrt(8.0)   # all-equal rows: every score ties
    pairs, scores = coarse_match(flat, flat, np.zeros((8, 8)))
    assert np.allclose(scores, scores[0])
    # deterministic row-major order on ties, cut at K_CORR of the 64 cells
    np.testing.assert_array_equal(pairs, np.argwhere(np.ones((8, 8)))[:K_CORR])


def test_coarse_match_selects_the_head_of_a_stable_sort_through_tied_scores():
    # one-hot features make every product exact, so the score of a cell
    # depends only on its row's and its column's class: ties in blocks
    rng = np.random.default_rng(5)
    pre = np.eye(4)[rng.integers(0, 3, size=23)]
    intra = np.eye(4)[rng.integers(0, 4, size=31)]
    bonus = np.zeros((23, 31))
    pairs, scores = coarse_match(pre, intra, bonus)
    sim = Tensor(pre @ intra.T)
    flat = (ad.softmax(sim, axis=1).data * ad.softmax(sim, axis=0).data).reshape(-1)
    full = np.argsort(-flat, kind="stable")
    assert flat[full[K_CORR - 1]] == flat[full[K_CORR]]        # the cut splits a tie
    np.testing.assert_array_equal(pairs, np.stack(np.unravel_index(full[:K_CORR],
                                                                   (23, 31)), axis=1))
    assert np.array_equal(scores, flat[full[:K_CORR]])


def test_coarse_match_truncates_excess_k():
    feats = np.eye(3)
    pairs, scores = coarse_match(feats, feats, np.zeros((3, 3)))
    assert K_CORR > 9 and len(pairs) == 9


def test_geometric_bonus_is_rotation_invariant():
    rng = np.random.default_rng(4)
    cloud = surface_cloud(rng, 500)
    pyr = build_pyramid(cloud, 3, 0.08, 2.5)
    view = build_patches(pyr, 24)
    h1 = distance_histograms(view)

    T = random_rigid(0.0, 170.0, rng)
    rotated = PointCloud(T.apply_points(cloud.positions))
    pyr2 = build_pyramid(rotated, 3, 0.08, 2.5)
    view2 = build_patches(pyr2, 24)
    h2 = distance_histograms(view2)
    # same cloud rigidly moved: histogram sets should be near-identical up to
    # voxel-grid regrouping; compare distributions coarsely
    assert abs(h1.mean() - h2.mean()) < 0.05


# -- fine matching -----------------------------------------------------------

def test_normalize_uniform_rows_and_concentration():
    u = normalize_scores_with_slack(*one_matrix(np.zeros((5, 7))))
    np.testing.assert_allclose(u.data, 1.0 / 7.0)
    np.testing.assert_allclose(u.data.sum(axis=2), 1.0)

    s = np.full((4, 4), -30.0)
    np.fill_diagonal(s, 30.0)
    c = normalize_scores_with_slack(*one_matrix(s))
    assert np.all(np.diag(c.data[0])[:3] > 0.99)


def test_normalize_zeroes_pads_and_keeps_real_marginals():
    rng = np.random.default_rng(18)
    s = np.zeros((2, 7, 7))
    s[:, :6, :6] = rng.normal(size=(2, 6, 6))
    n_rows, n_cols = np.array([4, 6]), np.array([3, 6])
    p = normalize_scores_with_slack(Tensor(s), n_rows, n_cols).data
    assert np.all(p[0, 4:6] == 0.0) and np.all(p[0, :, 3:6] == 0.0)
    np.testing.assert_allclose(p[0, :4].sum(axis=1), 1.0)
    np.testing.assert_allclose(p[1, :6].sum(axis=1), 1.0)


@pytest.mark.parametrize("augment_slack", [False, True])
@pytest.mark.parametrize("iterations", [0, 1, 5])
def test_fused_sinkhorn_equals_composed_reference(iterations, augment_slack, monkeypatch):
    monkeypatch.setattr(matching, "NORM_ITERATIONS", iterations)
    rng = np.random.default_rng(17)
    # pair 0 has a pad row and a pad column, pair 1 none; pads score 0 as
    # patch_scores' shadow slots do
    n_rows, n_cols = np.array([7, 8]), np.array([10, 11])
    s0 = np.zeros((2, 9, 12))
    for k in range(2):
        s0[k, : n_rows[k], : n_cols[k]] = rng.normal(size=(n_rows[k], n_cols[k])) * 4.0
    proj = rng.normal(size=(2, 9, 12))
    results = []
    for normalize in (normalize_scores_with_slack, composed_normalize_scores_with_slack):
        with Tape():
            scores = Tensor(s0, requires_grad=True)
            p = normalize(scores, n_rows, n_cols, augment_slack=augment_slack)
            backward(sum_(ad.mul(p, Tensor(proj))))
        results.append((p.data, scores.grad))
    (p_fused, g_fused), (p_ref, g_ref) = results
    assert np.array_equal(p_fused, p_ref)
    assert np.array_equal(g_fused, g_ref)


@pytest.mark.parametrize("augment_slack", [False, True])
def test_padded_normalization_equals_unpadded_matrix(augment_slack):
    rng = np.random.default_rng(19)
    size = 32
    for n_rows, n_cols in ((1, 1), (5, 3), (7, 12), (20, 31), (32, 32)):
        s = np.zeros((n_rows + 1, n_cols + 1))
        s[:n_rows, :n_cols] = rng.normal(size=(n_rows, n_cols)) * 4.0
        padded = np.zeros((1, size + 1, size + 1))
        rows, cols = np.r_[:n_rows, size], np.r_[:n_cols, size]
        padded[0][np.ix_(rows, cols)] = s
        p = normalize_scores_with_slack(Tensor(padded), [n_rows], [n_cols],
                                        augment_slack=augment_slack).data[0]
        # a row sum of the padded matrix adds 33 entries, zeros included,
        # where the unpadded one adds n_cols + 1: numpy's pairwise summation
        # groups them differently, so the last bits differ
        np.testing.assert_allclose(p[np.ix_(rows, cols)],
                                   slack_normalize_2d(s, augment_slack), rtol=0, atol=1e-13)
        p[np.ix_(rows, cols)] = 0.0
        assert np.all(p == 0.0)


def test_pair_scored_alone_equals_its_slice_of_the_stack():
    rng = np.random.default_rng(20)
    view, _ = make_views(rng, 400)
    desc = rng.normal(size=(len(view.fine_points), 16)) * 2.0
    m = len(view.points)
    pairs = np.stack([rng.integers(0, m, 9), rng.integers(0, m, 9)], axis=1)
    for augment_slack in (False, True):
        def scored(sel):
            scores = patch_scores(Tensor(desc), Tensor(desc[::-1].copy()), view, view, sel)
            return normalize_scores_with_slack(scores, view.sizes[sel[:, 0]],
                                               view.sizes[sel[:, 1]], augment_slack).data
        stack = scored(pairs)
        for k in range(len(pairs)):
            assert np.array_equal(scored(pairs[k : k + 1])[0], stack[k])


@pytest.mark.parametrize("normalize", [normalize_scores_with_slack,
                                       composed_normalize_scores_with_slack])
def test_sinkhorn_zero_column_sum_raises_nonfinite(normalize):
    s = np.zeros((4, 5))
    s[:, 2] = -1e4                    # exp underflows to 0: the column sums to 0
    with pytest.raises(NonFiniteError):
        normalize(*one_matrix(s))


def test_fine_match_identity_on_distinct_descriptors():
    rng = np.random.default_rng(5)
    view, _ = make_views(rng, 400)
    n0 = view.fine_points.shape[0]
    desc = rng.normal(size=(n0, 16)) * 4.0
    pairs = np.stack([np.arange(len(view.patch_indices))] * 2, axis=1)
    pre_idx, intra_idx, _, _ = fine_match(desc, desc, pairs, view, view)
    assert len(pre_idx) > 0
    assert np.array_equal(pre_idx, intra_idx)


def test_fine_match_noise_descriptors_mostly_slack():
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(4000, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)  # true 2-D surface
    pyr = build_pyramid(PointCloud(pos), 3, 0.08, 2.5)
    view = build_patches(pyr, 24)
    n0 = view.fine_points.shape[0]
    desc = rng.normal(size=(n0, 16))
    independent = rng.normal(size=(n0, 16))
    pairs = np.stack([np.arange(len(view.patch_indices))] * 2, axis=1)
    matched_same = len(fine_match(desc, desc, pairs, view, view)[2])
    matched_noise = len(fine_match(desc, independent, pairs, view, view)[2])
    assert matched_noise < 0.2 * matched_same


# -- Procrustes and refinement -----------------------------------------------

def test_procrustes_identity():
    rng = np.random.default_rng(7)
    p = rng.uniform(-1, 1, size=(25, 3))
    T = weighted_procrustes(p, p, np.ones(25))
    assert rotation_angle_deg(T.rotation) < 1e-10
    assert np.linalg.norm(T.translation) < 1e-10


def test_procrustes_exact_recovery():
    rng = np.random.default_rng(8)
    p = rng.uniform(-1, 1, size=(30, 3))
    T = random_rigid(0.1, 45.0, rng)
    q = T.apply_points(p)
    w = rng.uniform(0.2, 1.0, size=30)
    got = weighted_procrustes(p, q, w)
    delta = got.compose(T.invert())
    assert rotation_angle_deg(delta.rotation) < np.degrees(1e-8)
    assert np.linalg.norm(got.translation - T.translation) < 1e-9


def test_procrustes_reflection_guard():
    # Mirror correspondences would prefer det = -1; output must stay +1.
    p = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.3, 0.3, 0.3],
                  [1, 1, 0.0], [0.5, 0, 1.0]])
    q = p.copy()
    q[:, 2] *= -1.0  # reflection through z = 0
    T = weighted_procrustes(p, q, np.ones(6))
    assert np.linalg.det(T.rotation) == pytest.approx(1.0, abs=1e-9)


def test_procrustes_rejects_degenerate_input():
    with pytest.raises(ValueError, match="3 matches"):
        weighted_procrustes(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="weight"):
        weighted_procrustes(np.eye(3), np.eye(3), np.zeros(3))
    line = np.linspace(0, 1, 10)[:, None] * np.array([[1.0, 0, 0]])
    with pytest.raises(ValueError, match="collinear|rank"):
        weighted_procrustes(line, line, np.ones(10))


def test_procrustes_local_optimality():
    rng = np.random.default_rng(9)
    p = rng.uniform(-1, 1, size=(15, 3))
    T = random_rigid(0.1, 30.0, rng)
    q = T.apply_points(p) + rng.normal(scale=0.02, size=(15, 3))
    w = rng.uniform(0.1, 1.0, size=15)
    sol = weighted_procrustes(p, q, w)

    def sse(Tr):
        r = Tr.apply_points(p) - q
        return float(np.sum(w * np.einsum("ij,ij->i", r, r)))

    best = sse(sol)
    for _ in range(1000):
        peturb = random_rigid(0.02, 2.0, rng)
        assert sse(peturb.compose(sol)) >= best - 1e-12


def test_procrustes_equivariance_under_common_transform():
    rng = np.random.default_rng(10)
    p = rng.uniform(-1, 1, size=(20, 3))
    q = random_rigid(0.1, 40.0, rng).apply_points(p) + rng.normal(scale=0.01, size=(20, 3))
    w = rng.uniform(0.2, 1.0, size=20)
    base = weighted_procrustes(p, q, w)
    G = random_rigid(0.2, 60.0, rng)
    conj = weighted_procrustes(G.apply_points(p), G.apply_points(q), w)
    want = G.compose(base).compose(G.invert())
    assert np.max(np.abs(conj.rotation - want.rotation)) < 1e-8
    assert np.linalg.norm(conj.translation - want.translation) < 1e-8


@pytest.mark.parametrize("n", [3, 7, 400])
def test_procrustes_stack_rows_equal_scalar_solve(n):
    rng = np.random.default_rng(n)
    b = 12
    p = rng.uniform(-1, 1, size=(b, n, 3))
    q = np.empty_like(p)
    for i in range(b):
        q[i] = random_rigid(0.3, 170.0, rng).apply_points(p[i])
    q += rng.normal(scale=0.05, size=q.shape)
    w = rng.uniform(0.05, 1.0, size=(b, n))
    q[1] = p[1] * np.array([1.0, 1.0, -1.0])        # mirror: det must be flipped
    p[2] = rng.uniform(-1, 1, size=(n, 1)) * rng.normal(size=3)   # collinear
    q[3] = 0.5                                      # coincident targets
    R, t, valid = procrustes_stack(p, q, w)
    assert valid.tolist() == [True, True, False, False] + [True] * (b - 4)
    for i in range(b):
        if not valid[i]:
            with pytest.raises(ValueError, match="rank"):
                scalar_weighted_procrustes(p[i], q[i], w[i])
            with pytest.raises(ValueError, match="rank"):
                weighted_procrustes(p[i], q[i], w[i])
            continue
        ref = scalar_weighted_procrustes(p[i], q[i], w[i])
        assert np.array_equal(R[i], ref.rotation), i
        assert np.array_equal(t[i], ref.translation), i
        got = weighted_procrustes(p[i], q[i], w[i])
        assert np.array_equal(got.rotation, ref.rotation)
        assert np.array_equal(got.translation, ref.translation)
    assert np.linalg.det(R[1]) == pytest.approx(1.0)


def test_refine_all_inliers_is_fixed_point():
    rng = np.random.default_rng(11)
    p = rng.uniform(-1, 1, size=(30, 3))
    T = random_rigid(0.05, 20.0, rng)
    q = T.apply_points(p)
    w = np.ones(30)
    T0 = weighted_procrustes(p, q, w)
    refined, inliers = refine_transform(T0, p, q, w, inlier_radius=0.05)
    assert inliers == 30
    assert np.max(np.abs(refined.rotation - T0.rotation)) < 1e-12


def test_refine_recovers_through_gross_outliers():
    rng = np.random.default_rng(12)
    p = rng.uniform(-1, 1, size=(50, 3))
    T = random_rigid(0.1, 45.0, rng)
    q = T.apply_points(p)
    bad = rng.choice(50, size=15, replace=False)
    q[bad] += rng.uniform(0.3, 0.7, size=(15, 3)) * rng.choice([-1, 1], size=(15, 3))
    w = np.ones(50)
    T0 = weighted_procrustes(p, q, w)
    refined, inliers = refine_transform(T0, p, q, w, inlier_radius=0.05)
    assert inliers > 0
    delta = refined.compose(T.invert())
    assert rotation_angle_deg(delta.rotation) < 0.5


def test_refine_zero_radius_returns_input_with_no_inliers():
    rng = np.random.default_rng(13)
    p = rng.uniform(-1, 1, size=(10, 3))
    T0 = RigidTransform.identity()
    refined, inliers = refine_transform(T0, p, p + 0.01, np.ones(10), inlier_radius=0.0)
    assert inliers == 0
    assert refined is T0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_refine_below_three_matches_returns_input_with_its_inliers(n):
    rng = np.random.default_rng(14)
    p = rng.uniform(-1, 1, size=(n, 3))
    T0 = random_rigid(0.1, 30.0, rng)
    refined, inliers = refine_transform(T0, p, T0.apply_points(p) + 0.01, np.ones(n),
                                        inlier_radius=0.05)
    assert inliers == n
    assert refined is T0


def matched_set(rng, T, n, noise=0.0):
    """(p, q, w): n random points, their images under ``T`` plus noise, and weights."""
    p = rng.uniform(-1, 1, size=(n, 3))
    q = T.apply_points(p) + rng.normal(scale=noise, size=(n, 3))
    return p, q, rng.uniform(0.1, 1.0, size=n)


def fine_from_pairs(sets):
    """The (p, q, w) fine matches of per-pair matched sets, and each one's pair."""
    parts = list(zip(*sets))
    pair_idx = np.repeat(np.arange(len(sets)), [len(w) for w in parts[2]])
    return tuple(np.concatenate(part) for part in parts), pair_idx


def test_local_to_global_stack_equals_per_pair_fits(monkeypatch):
    rng = np.random.default_rng(15)
    coarse = matched_set(rng, random_rigid(0.3, 90.0, rng), 48, noise=0.05)
    counts = [5, 2, 0, 7, 3, 1, 12, 3]
    sets = [matched_set(rng, random_rigid(0.3, 90.0, rng), n, noise=0.01) for n in counts]
    fine, pair_idx = fine_from_pairs(sets)
    shuffle = rng.permutation(len(pair_idx))
    fine, pair_idx = tuple(part[shuffle] for part in fine), pair_idx[shuffle]
    stacks = []

    def recorded(*args):
        stacks.append(procrustes_stack(*args))
        return stacks[-1]

    monkeypatch.setattr(matching, "procrustes_stack", recorded)
    winner, T, votes = matching.local_to_global(coarse, fine, pair_idx, 0.0625)
    (R, t, valid), = stacks
    fitted = [k for k, n in enumerate(counts) if n >= 3]
    assert valid.tolist() == [True] * (1 + len(fitted))
    want = [weighted_procrustes(*coarse)] + [weighted_procrustes(*sets[k]) for k in fitted]
    for h, ref in enumerate(want):
        np.testing.assert_allclose(R[h], ref.rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t[h], ref.translation, rtol=0, atol=1e-12)
    assert np.array_equal(T.rotation, R[winner])
    assert np.array_equal(T.translation, t[winner])
    assert votes.shape == (1 + len(fitted),) and votes[winner] == votes.max()


def test_local_to_global_first_best_wins_so_hypothesis_0_wins_ties():
    rng = np.random.default_rng(16)
    T_0, T_a, T_b = (random_rigid(0.5, 150.0, rng) for _ in range(3))
    radius = 0.0625

    def solve(T_coarse, pair_transforms, n=3):
        coarse = matched_set(rng, T_coarse, 48)
        fine, pair_idx = fine_from_pairs([matched_set(rng, T, n) for T in pair_transforms])
        return matching.local_to_global(coarse, fine, pair_idx, radius)

    def close(T, want):
        return (np.allclose(T.rotation, want.rotation, atol=1e-9)
                and np.allclose(T.translation, want.translation, atol=1e-9))

    # no hypothesis places another pair's matches: every vote count is 0
    winner, T, votes = solve(T_0, [T_a, T_b])
    assert winner == 0 and close(T, T_0) and votes.tolist() == [0, 0, 0]
    # T_a (hypothesis 0) and each T_b pair hold 3 votes
    winner, T, votes = solve(T_a, [T_a, T_b, T_b])
    assert winner == 0 and close(T, T_a) and votes.tolist() == [3, 0, 3, 3]
    # a third T_b pair gives each T_b hypothesis 6: the first of them wins
    winner, T, votes = solve(T_a, [T_a, T_b, T_b, T_b])
    assert winner == 2 and close(T, T_b) and votes.tolist() == [3, 0, 6, 6, 6]
    # two T_a pairs: hypothesis 0 places both, each of them the other
    winner, T, votes = solve(T_a, [T_a, T_a, T_b])
    assert winner == 0 and votes.tolist() == [6, 3, 3, 0]
    # pairs of 2 matches fit no hypothesis: only the superpoint fit votes
    winner, T, votes = solve(T_a, [T_a, T_b, T_a], n=2)
    assert winner == 0 and votes.tolist() == [4]


def test_local_to_global_without_a_valid_fit_returns_none():
    rng = np.random.default_rng(17)
    line = np.linspace(-1, 1, 48)[:, None] * rng.normal(size=3)
    coarse = (line, line + 0.1, np.ones(48))
    fine = (line[:12], line[:12], np.ones(12))
    winner, T, votes = matching.local_to_global(coarse, fine, np.repeat([0, 1, 2, 3], 3),
                                                0.0625)
    assert (winner, T) == (-1, None) and votes.tolist() == [-1] * 5


# -- losses ------------------------------------------------------------------

def test_coarse_loss_satisfied_margins_near_zero():
    # two superpoints: positives identical (d=0), negatives antipodal (d=2)
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    overlap = np.eye(2)
    loss = coarse_loss(Tensor(feats), Tensor(feats), coarse_targets(overlap))
    assert loss.item() < 0.01


def test_coarse_loss_equal_distances_strictly_positive():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    overlap = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = coarse_loss(Tensor(feats), Tensor(feats), coarse_targets(overlap))
    assert loss.item() > 0.0


def test_coarse_loss_requires_positives():
    """Targets build for any overlap; the loss raises.  With no positive
    cell, and with positives whose every row and column lacks a negative
    (a full overlap band), no anchor scores."""
    no_positives = coarse_targets(np.zeros((3, 3)))
    with pytest.raises(NoPositivePairsError, match="no positive"):
        coarse_loss(Tensor(np.eye(3)), Tensor(np.eye(3)), no_positives)
    no_anchors = coarse_targets(np.full((3, 3), 0.5))
    assert no_anchors.positives == 9
    assert all(axis.anchors.size == 0 for axis in no_anchors.axes)
    with pytest.raises(NoPositivePairsError, match="no anchor"):
        coarse_loss(Tensor(np.eye(3)), Tensor(np.eye(3)), no_anchors)


def overflowing_similarity():
    feats = np.full((2, 3), 1e200)
    coarse_loss(Tensor(feats), Tensor(-feats), coarse_targets(np.eye(2)))


def underflowing_column(augment_slack):
    """Column 1's exponentials all underflow to 0, so its sum is 0."""
    scores = np.zeros((1, 4, 4))
    scores[0, :, 1] = -1000.0
    normalize_scores_with_slack(Tensor(scores), [3], [3], augment_slack)


def overflowing_patch_scores():
    """Dense rows whose products overflow, at inference."""
    view, _ = make_views(np.random.default_rng(21), 400)
    dense = np.full((len(view.fine_points), 16), 1e160)
    fine_match(dense, dense, np.array([[0, 0], [1, 1]]), view, view)


@pytest.mark.parametrize("case", [
    overflowing_similarity,
    lambda: underflowing_column(False),
    lambda: underflowing_column(True),
    overflowing_patch_scores,
], ids=["coarse_loss", "slack_underflow", "augmented_slack_underflow", "patch_scores"])
def test_overflow_raises_nonfinite_error_without_a_warning(case):
    # pytest turns a RuntimeWarning into an error, so none may fire first
    with pytest.raises(NonFiniteError):
        case()


def circle_loss_reference(pre, intra, overlap):
    """GeoTransformer's overlap-weighted circle loss, stated in numpy."""
    dists = np.sqrt(np.maximum(2.0 - 2.0 * pre @ intra.T, 0.0) + 1e-12)
    terms = []
    for d, w in ((dists, overlap), (dists.T, overlap.T)):
        pos, neg = w > POSITIVE_OVERLAP, w == 0.0
        rows = pos.any(axis=1) & neg.any(axis=1)
        if rows.any():
            lse_pos = logsumexp(LOG_SCALE * np.sqrt(w) * (d - POS_MARGIN), b=pos, axis=1)
            lse_neg = logsumexp(LOG_SCALE * (NEG_MARGIN - d), b=neg, axis=1)
            terms.append(np.mean(np.logaddexp(0.0, lse_pos[rows] + lse_neg[rows])))
    return np.mean(terms) / LOG_SCALE


def gradcheck_toy_features():
    """Unit feature rows and overlaps shaped like the ``coarse_circle_loss``
    gradcheck row's, with its ignored overlap band."""
    rng = np.random.default_rng(19)
    overlap = np.zeros((6, 6))
    overlap[np.arange(6), np.arange(6)] = rng.uniform(0.3, 1.0, 6)
    overlap[0, 1] = 0.05
    pre, intra = (l2_normalize_rows(Tensor(rng.normal(size=(6, 4)))).data for _ in "ab")
    return pre, intra, overlap


def phantom_superpoint_features():
    """Normalized superpoint features of a full-size phantom under untrained
    weights, with the ground-truth mask as the intra input, and its overlap."""
    sample = generate_phantom(PhantomConfig(seed=2000))
    seg, reg = SegNetConfig(), RegNetConfig()
    prepared = prepare_sample(sample, seg, reg, MatcherConfig())
    params = init_params(seg, reg, 0)
    intra_ctx = prepared.reg_ctx_intra.holding(Tensor(sample.gt_mask.reshape(-1, 1)))
    pre, intra = (l2_normalize_rows(reg_backbone_forward(params, ctx)[0]).data
                  for ctx in (prepared.reg_ctx_pre, intra_ctx))
    return pre, intra, overlap_of(prepared)


@pytest.mark.parametrize("features", [gradcheck_toy_features, phantom_superpoint_features])
def test_coarse_loss_is_one_node_equal_to_the_numpy_circle_loss(features):
    pre, intra, overlap = features()
    tape = Tape()
    with tape:
        loss = coarse_loss(Tensor(pre, requires_grad=True), Tensor(intra, requires_grad=True),
                           coarse_targets(overlap))
        assert len(tape) == 1
    assert loss.item() == pytest.approx(circle_loss_reference(pre, intra, overlap),
                                        rel=1e-12, abs=0)


def dense_band_features():
    """Random unit features and an overlap with many positives per row and
    column, so each positive row sum adds several terms in its pairwise
    order, plus a row and a column with positives but no negative, a row
    with no positive, and an ignored band."""
    rng = np.random.default_rng(23)
    m, n = 37, 41
    overlap = np.where(rng.random((m, n)) < 0.3, rng.uniform(0.11, 1.0, (m, n)), 0.0)
    overlap[rng.random((m, n)) < 0.05] = 0.07
    overlap[3] = rng.uniform(0.2, 1.0, n)
    overlap[:, 5] = rng.uniform(0.2, 1.0, m)
    overlap[7] = 0.0
    pre, intra = (l2_normalize_rows(Tensor(rng.normal(size=(k, 8)))).data for k in (m, n))
    return pre, intra, overlap


@pytest.mark.parametrize("features", [gradcheck_toy_features, phantom_superpoint_features,
                                      dense_band_features])
def test_coarse_loss_from_targets_equals_the_overlap_reference_bit_for_bit(features):
    """The loss read from targets built once, and both feature gradients,
    are the bits of the circle loss that derives everything from the
    overlap at every call."""
    pre, intra, overlap = features()
    results = []
    for loss_fn, targets in ((coarse_loss, coarse_targets(overlap)),
                             (overlap_coarse_loss, overlap)):
        feats = Tensor(pre, requires_grad=True), Tensor(intra, requires_grad=True)
        with Tape():
            loss = loss_fn(*feats, targets)
            backward(loss)
        results.append((loss.data, feats[0].grad, feats[1].grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_coarse_loss_gradcheck(gradcheck_rows_pass):
    """The circle loss through ``l2_normalize_rows``, with an ignored
    overlap band: its ``segreg gradcheck`` row."""
    gradcheck_rows_pass("matcher", "coarse_circle_loss")


def uniform_stack(n_rows, n_cols, size):
    """Normalized all-zero scores: every real row and the slack row read
    1 / (n_cols + 1) on their real and slack entries."""
    k = len(n_rows)
    return normalize_scores_with_slack(Tensor(np.zeros((k, size + 1, size + 1))),
                                       np.array(n_rows), np.array(n_cols))


def test_fine_loss_concentrated_is_small_uniform_is_log():
    s = np.full((5, 5), -30.0)
    np.fill_diagonal(s, 30.0)
    conc = normalize_scores_with_slack(*one_matrix(s))
    assert fine_loss(conc, np.arange(4)[None], [4], [4]).item() < 0.01

    # pair 0 pads 2 rows, pair 1 none; both read log 7
    uni = uniform_stack([4, 6], [6, 6], 6)
    gt_cols = np.array([[0, 1, -1, -1, -1, -1], [5, -1, 2, -1, -1, -1]])
    loss = fine_loss(uni, gt_cols, np.array([4, 6]), np.array([6, 6]))
    assert loss.item() == pytest.approx(np.log(7.0), abs=1e-9)


def test_fine_loss_blends_each_pair_then_averages_pairs():
    rng = np.random.default_rng(14)
    n_rows, n_cols = np.array([3, 2]), np.array([2, 3])
    s = np.zeros((2, 4, 4))
    s[:, :3, :3] = rng.normal(size=(2, 3, 3))
    probs = normalize_scores_with_slack(Tensor(s), n_rows, n_cols)
    gt_cols = np.array([[1, -1, 0], [2, 0, -1]])
    p = probs.data
    # pair 0: matched (0,1), (2,0); slack row 1; every column claimed
    # pair 1: matched (0,2), (1,0); no slack row; column 1 unclaimed
    def nll(*entries):
        return -np.mean(np.log(np.array(entries) + 1e-12))

    terms = [0.7 * nll(p[0, 0, 1], p[0, 2, 0]) + 0.3 * nll(p[0, 1, 3]),
             0.7 * nll(p[1, 0, 2], p[1, 1, 0]) + 0.3 * nll(p[1, 3, 1])]
    loss = fine_loss(probs, gt_cols, n_rows, n_cols)
    assert loss.item() == pytest.approx(np.mean(terms), abs=1e-12)
    # a pair with no slack target keeps its matched mean
    square = normalize_scores_with_slack(Tensor(s[:1]), [2], [2])
    assert fine_loss(square, np.array([[1, 0, -1]]), [2], [2]).item() == pytest.approx(
        nll(*square.data[0, [0, 1], [1, 0]]), abs=1e-12)


def test_fine_loss_rejects_pairs_without_matches():
    uni = uniform_stack([3, 3], [3, 3], 3)
    gt_cols = np.array([[0, -1, -1], [-1, -1, -1]])
    with pytest.raises(ValueError):
        fine_loss(uni, gt_cols, np.array([3, 3]), np.array([3, 3]))
    with pytest.raises(ValueError):
        fine_loss(uni, np.empty((0, 3), np.int64), np.empty(0), np.empty(0))


def test_fine_loss_gradcheck(gradcheck_rows_pass):
    """The fine loss through the slack Sinkhorn on a padded stack: its
    ``segreg gradcheck`` row, and the row of the Sinkhorn alone."""
    gradcheck_rows_pass("matcher", "fine_nll_loss", "normalize_scores_with_slack")


def test_dual_loss_additivity():
    from segreg.matching import DualLoss
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    c = coarse_loss(Tensor(feats), Tensor(feats), coarse_targets(np.eye(2)))
    f = fine_loss(uniform_stack([4], [6], 6), np.array([[0, 1, -1, -1, -1, -1]]), [4], [6])
    dual = DualLoss(ad.add(c, f), c, f)
    assert dual.total.item() == pytest.approx(dual.coarse.item() + dual.fine.item(), abs=1e-12)


def test_ground_truth_patch_matches_identity():
    rng = np.random.default_rng(16)
    view, _ = make_views(rng, 400)
    a = 0
    [cols] = ground_truth_patch_matches(view, view, np.array([[a, a]]),
                                        RigidTransform.identity(), 0.01)
    n = view.sizes[a]
    np.testing.assert_array_equal(cols, np.r_[np.arange(n), np.full(cols.size - n, -1)])
    assert ground_truth_patch_matches(view, view, np.empty((0, 2), np.int64),
                                      RigidTransform.identity(), 0.01).shape == (0, 24)


# -- the patch table against the per-patch loops it replaced -------------------

def lattice_sample():
    """A 16 x 16 x 4 lattice (spacing 1/32, one point per level-0 voxel) and
    its copy shifted half a spacing along x.  Truncated patches cut through
    tied distances, each pre point has two nearest intra points, and each
    intra point is nearest to two pre points.  The intra copy is grey, as
    the segmentation context reads its colors."""
    s = 1.0 / 32
    g = np.arange(16) * s
    pts = np.stack(np.meshgrid(g, g, g[:4], indexing="ij"), axis=-1).reshape(-1, 3)
    intra = PointCloud(pts + [s / 2, 0.0, 0.0], colors=np.full(pts.shape, 0.5))
    return RegistrationSample(PointCloud(pts), intra,
                              RigidTransform.identity(), np.zeros((3, 3)),
                              np.zeros(len(pts), dtype=np.int64), 1.0, np.zeros(3),
                              PhantomConfig())


class LatticeSeg(SegNetConfig):
    """Two stages: the lattice collapses before a five-stage pyramid ends."""
    widths = (16, 32)


class LatticeMatcher(MatcherConfig):
    """Patches small enough that truncation cuts through the lattice's ties."""
    patch_size = 12


PATCH_CASES = {
    "lattice": (lattice_sample, LatticeSeg(), LatticeMatcher()),
    "phantom1000": (lambda: generate_phantom(PhantomConfig(seed=1000)),
                    SegNetConfig(), MatcherConfig()),
    "phantom12000": (lambda: generate_phantom(PhantomConfig(seed=12000)),
                     SegNetConfig(), MatcherConfig()),
}


@pytest.fixture(scope="module", params=sorted(PATCH_CASES))
def patch_case(request):
    """A prepared sample and the loop-built patches of its two pyramids."""
    make, seg_cfg, match_cfg = PATCH_CASES[request.param]
    prepared = prepare_sample(make(), seg_cfg, RegNetConfig(), match_cfg)
    loops = [loop_build_patches(ctx.pyramid, match_cfg.patch_size)
             for ctx in (prepared.reg_ctx_pre, prepared.reg_ctx_intra)]
    return prepared, loops


def test_patch_table_holds_the_loop_patches(patch_case):
    prepared, loops = patch_case
    for view, loop in zip((prepared.pre_view, prepared.intra_view), loops):
        assert len(view.sizes) == len(loop.patch_indices)
        for b, loop_members in enumerate(loop.patch_indices):
            assert np.array_equal(members(view, b), loop_members)


def test_lattice_truncation_cuts_through_tied_distances():
    reg, size = RegNetConfig(), PATCH_CASES["lattice"][2].patch_size
    pyr = build_pyramid(lattice_sample().preoperative, len(reg.widths), reg.initial_voxel,
                        reg.base_radius_mult)
    first = pyr.fine_to_level(pyr.stages - 1) == 0
    d = np.sort(np.linalg.norm(pyr.levels[0].positions[first] - pyr.levels[-1].positions[0],
                               axis=1))
    assert d.size > size and d[size - 1] == d[size]


def test_distance_histograms_equal_loop_reference(patch_case):
    prepared, loops = patch_case
    for view, loop in zip((prepared.pre_view, prepared.intra_view), loops):
        assert np.array_equal(distance_histograms(view), loop_distance_histograms(loop))


@pytest.mark.parametrize("patch_size", [2, 32])
def test_distance_histograms_of_one_and_two_member_patches_equal_references(patch_size):
    # patches of one member have no pair and those of two have one; some
    # distances lie past HIST_MAX_DIST, in the last bin
    rng = np.random.default_rng(61)
    fine = rng.uniform(-0.3, 0.3, size=(200, 3))
    sizes = np.minimum([1, 2, 1, 2, 3, 32, 17, 2], patch_size)
    table = np.full((len(sizes), patch_size), len(fine))
    ends = np.cumsum(sizes)
    members_of = np.split(rng.permutation(len(fine))[:ends[-1]], ends[:-1])
    for row, patch in zip(table, members_of):
        row[:patch.size] = patch
    view = PatchedSuperpoints(rng.normal(size=(len(sizes), 3)), table, sizes, fine)
    got = distance_histograms(view)
    assert np.array_equal(got, full_stack_distance_histograms(view))
    loop = LoopPatches(view.points, members_of, fine, np.full(len(fine), -1))
    assert np.array_equal(got, loop_distance_histograms(loop))
    assert not got[sizes == 1].any()
    assert np.all(np.count_nonzero(got[sizes == 2], axis=1) == 1)
    assert got[:, -1].any()


def test_overlap_and_ground_truth_equal_loop_reference(patch_case):
    prepared, (pre, intra) = patch_case
    T = prepared.sample.T_gt
    overlap = loop_superpoint_overlap_labels(pre, intra, T, OVERLAP_PATCH_RADIUS)
    assert np.array_equal(overlap_of(prepared), overlap)
    fine_pairs, gt_fine = loop_ground_truth(pre, intra, overlap, T, POSITIVE_OVERLAP,
                                            RegNetConfig().initial_voxel)
    gt_cols = np.full((len(fine_pairs), prepared.pre_view.patch_indices.shape[1]), -1)
    for row, key in zip(gt_cols, fine_pairs):
        row[gt_fine[key][0]] = gt_fine[key][1]
    assert fine_pairs
    assert np.array_equal(prepared.gt_pairs, np.array(fine_pairs).reshape(-1, 2))
    assert np.array_equal(prepared.gt_cols, gt_cols)


def test_fine_match_equals_loop_reference(patch_case):
    prepared, _ = patch_case
    rng = np.random.default_rng(0)
    # intra descriptors copy the nearest pre point's under the true pose, so
    # many entries survive the mutual and slack tests
    moved = prepared.sample.T_gt.apply_points(prepared.pre_view.fine_points)
    nearest = cKDTree(moved).query(prepared.intra_view.fine_points)[1]
    dense_pre = 3.0 * rng.normal(size=(len(moved), 16))
    dense_intra = dense_pre[nearest] + 0.3 * rng.normal(size=(len(nearest), 16))
    overlap = overlap_of(prepared)
    top = np.argsort(-overlap, axis=None, kind="stable")[:64]
    pairs = np.stack(np.unravel_index(top, overlap.shape), axis=1)
    got = fine_match(dense_pre, dense_intra, pairs, prepared.pre_view, prepared.intra_view)
    want = loop_fine_match(dense_pre, dense_intra, pairs, prepared.pre_view,
                           prepared.intra_view)
    assert len(got[2]) > 50
    assert len(got) == len(want) == 4
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part)
