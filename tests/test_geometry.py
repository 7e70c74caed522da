"""Geometry unit tests: transforms, subsampling, neighbors."""

import numpy as np
import pytest

from segreg.geometry import (
    PointCloud,
    RigidTransform,
    knn,
    radius_neighbors,
    random_rigid,
    rotation_angle_deg,
    rotation_defects,
    voxel_grid_subsample,
)
from segreg.phantom import PhantomConfig, generate_phantom
from reference_ops import unique_voxel_grid_subsample


def random_cloud(rng, n, colors=False, labels=False):
    return PointCloud(
        rng.uniform(-1, 1, size=(n, 3)),
        colors=rng.uniform(0, 1, size=(n, 3)) if colors else None,
        labels=rng.integers(0, 2, size=n) if labels else None,
    )


# -- transforms --------------------------------------------------------------

def test_apply_identity_and_translation():
    points = np.zeros((1, 3))
    assert np.array_equal(RigidTransform.identity().apply_points(points), points)
    t = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(t.apply_points(points), [[0, 0, 1]])


def test_rotation_defects_flag_each_stacked_matrix_at_its_tolerance():
    R = random_rigid(0.0, 90.0, np.random.default_rng(4)).rotation
    mirror = R @ np.diag([1.0, 1.0, -1.0])
    stack = np.stack([R, R * (1 + 1e-7), mirror, R * 2.0])
    not_orthonormal, not_proper = rotation_defects(stack)
    assert not_orthonormal.tolist() == [False, True, False, True]
    assert not_proper.tolist() == [False, True, True, True]
    not_orthonormal, not_proper = rotation_defects(stack, 1e-6)
    assert not_orthonormal.tolist() == [False, False, False, True]
    assert not_proper.tolist() == [False, False, True, True]
    for bad, message in ((R * (1 + 1e-7), "not orthonormal"), (mirror, "determinant"),
                         (np.eye(2), "3 x 3")):
        with pytest.raises(ValueError, match=message):
            RigidTransform(bad, np.zeros(3))


def test_non_finite_rotation_is_a_defect_and_non_finite_transform_is_rejected():
    nan_rotation = np.eye(3)
    nan_rotation[2, 2] = np.nan
    not_orthonormal, not_proper = rotation_defects(np.stack([np.eye(3), nan_rotation]))
    assert not_orthonormal.tolist() == [False, True]
    assert not_proper.tolist() == [False, True]
    with pytest.raises(ValueError, match="not orthonormal"):
        RigidTransform(nan_rotation, np.zeros(3))
    with pytest.raises(ValueError, match="translation must be finite"):
        RigidTransform(np.eye(3), [0.0, np.inf, 0.0])


def test_inverse_round_trip_on_cloud():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 64)
    T = random_rigid(0.5, 90.0, rng)
    back = T.invert().apply_points(T.apply_points(cloud.positions))
    assert np.max(np.abs(back - cloud.positions)) < 1e-10


def test_compose_identity_and_invert():
    rng = np.random.default_rng(4)
    T = random_rigid(0.3, 60.0, rng)
    I = RigidTransform.identity()
    np.testing.assert_allclose(I.compose(T).rotation, T.rotation)
    np.testing.assert_allclose(I.compose(T).translation, T.translation)
    np.testing.assert_allclose(I.invert().rotation, np.eye(3))
    round_trip = T.invert().compose(T)
    assert rotation_angle_deg(round_trip.rotation) < np.degrees(1e-9)
    assert np.linalg.norm(round_trip.translation) < 1e-10


def test_compose_order_applies_second_argument_first():
    rng = np.random.default_rng(5)
    a = random_rigid(0.2, 30.0, rng)
    b = random_rigid(0.2, 30.0, rng)
    p = rng.uniform(-1, 1, size=(7, 3))
    np.testing.assert_allclose(
        a.compose(b).apply_points(p), a.apply_points(b.apply_points(p)), atol=1e-12
    )


def test_orthonormality_preserved_through_chains():
    rng = np.random.default_rng(6)
    T = RigidTransform.identity()
    for _ in range(200):
        T = T.compose(random_rigid(0.1, 45.0, rng))
    # constructor re-checks orthonormality at 1e-9; also check explicitly
    assert np.max(np.abs(T.rotation.T @ T.rotation - np.eye(3))) < 1e-9


def test_random_rigid_zero_bounds_gives_identity():
    rng = np.random.default_rng(7)
    T = random_rigid(0.0, 0.0, rng)
    np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(T.translation, np.zeros(3), atol=1e-15)


def test_random_rigid_respects_bounds():
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        T = random_rigid(0.1, 45.0, rng)
        assert rotation_angle_deg(T.rotation) <= 45.0 + 1e-9
        assert np.linalg.norm(T.translation) <= 0.1 + 1e-12


def test_random_rigid_deterministic():
    a = random_rigid(0.1, 45.0, np.random.default_rng(42))
    b = random_rigid(0.1, 45.0, np.random.default_rng(42))
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)


# -- voxel subsampling -------------------------------------------------------

def test_voxel_single_point_and_midpoint():
    one = PointCloud([[0.5, 0.5, 0.5]])
    out, prov = voxel_grid_subsample(one, 1.0)
    np.testing.assert_array_equal(out.positions, one.positions)
    np.testing.assert_array_equal(prov, [0])

    two = PointCloud([[0.1, 0.1, 0.1], [0.3, 0.1, 0.1]])
    out, prov = voxel_grid_subsample(two, 1.0)
    assert len(out) == 1
    np.testing.assert_allclose(out.positions, [[0.2, 0.1, 0.1]])
    np.testing.assert_array_equal(prov, [0, 0])


def test_voxel_matches_brute_force_grouping():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, 1000, colors=True, labels=True)
    voxel = 0.04
    out, prov = voxel_grid_subsample(cloud, voxel)

    groups = {}
    for i, p in enumerate(cloud.positions):
        key = tuple(int(v) for v in np.floor(p / voxel))
        groups.setdefault(key, []).append(i)
    assert len(out) == len(groups)
    # provenance is total and consistent with the hash grouping
    for key in sorted(groups):
        members = groups[key]
        targets = {prov[i] for i in members}
        assert len(targets) == 1
        j = targets.pop()
        np.testing.assert_allclose(
            out.positions[j], cloud.positions[members].mean(axis=0), atol=1e-12
        )
    # levels hold positions only: the networks pool features themselves
    assert out.colors is None and out.labels is None


def test_voxel_sorted_grouping_equals_unique_grouping():
    cases = []
    for seed in (1000, 2000):
        sample = generate_phantom(PhantomConfig(seed=seed))
        for cloud in (sample.preoperative, sample.intraoperative):
            cases += [(cloud, voxel) for voxel in (0.01, 0.025, 0.05, 0.1, 0.4)]
    # quarter-unit lattice points around the origin, some repeated: every
    # voxel size below is a multiple of the spacing, so points lie on faces
    rng = np.random.default_rng(15)
    pts = shuffled_lattice(rng, n=6) * 0.25 - 0.75
    lattice = PointCloud(rng.permutation(np.vstack([pts, pts[:40]])))
    cases += [(lattice, voxel) for voxel in (0.25, 0.5, 0.75, 1.0)]
    for cloud, voxel in cases:
        out, prov = voxel_grid_subsample(cloud, voxel)
        want, want_prov = unique_voxel_grid_subsample(cloud, voxel)
        assert prov.dtype == want_prov.dtype
        assert np.array_equal(prov, want_prov)
        assert np.array_equal(out.positions, want.positions)


# -- neighbor queries --------------------------------------------------------

def brute_radius(cloud, radius, max_neighbors):
    n = len(cloud)
    table = np.full((n, max_neighbors), n, dtype=np.int64)
    for i, q in enumerate(cloud.positions):
        cand = []
        for j, s in enumerate(cloud.positions):
            d2 = float(np.sum((s - q) ** 2))
            if d2 <= radius * radius:
                cand.append((d2, j))
        cand.sort()
        for slot, (_, j) in enumerate(cand[:max_neighbors]):
            table[i, slot] = j
    return table


def test_radius_self_neighbor():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    table = radius_neighbors(cloud, 0.5, 3)
    np.testing.assert_array_equal(table, [[0, 1, 1]])


def test_radius_no_support_in_range_gives_shadow_row():
    # each point's only neighbor within the radius is itself
    cloud = PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    table = radius_neighbors(cloud, 0.5, 2)
    np.testing.assert_array_equal(table, [[0, 2], [1, 2]])


def test_radius_matches_brute_force():
    rng = np.random.default_rng(10)
    cloud = random_cloud(rng, 500)
    got = radius_neighbors(cloud, 0.2, 12)
    want = brute_radius(cloud, 0.2, 12)
    np.testing.assert_array_equal(got, want)


def shuffled_lattice(rng, keep=lambda p: True, n=5):
    """Integer lattice points in [0, n)^3 (or as filtered) in random order."""
    pts = np.array([p for p in np.ndindex(n, n, n) if keep(np.array(p))], dtype=float)
    return pts[rng.permutation(len(pts))]


def test_radius_cap_cutting_a_tie_shell_keeps_lower_indices(fallback_rows):
    # interior points have 1 + 6 + 12 neighbors within 1.5 (shells 0, 1,
    # sqrt 2); a cap of 10 cuts the sqrt-2 shell, so the tree's candidate
    # list ends inside a tie and those rows must be recomputed exactly
    cloud = PointCloud(shuffled_lattice(np.random.default_rng(13)))
    got = radius_neighbors(cloud, 1.5, 10)
    np.testing.assert_array_equal(got, brute_radius(cloud, 1.5, 10))
    assert len(fallback_rows) > 0


def test_radius_rows_are_recomputed_exactly_where_the_cap_ends_inside_a_tie(fallback_rows):
    # a cap of 6 keeps a point and at most 5 of its unit-distance lattice
    # neighbors; the one candidate past the cap ties the last kept one
    # exactly on the rows whose 6th and 7th nearest are equidistant, so those
    # rows, and no others, are recomputed and keep the lower indices
    pts = shuffled_lattice(np.random.default_rng(15))
    cloud = PointCloud(pts)
    got = radius_neighbors(cloud, 1.5, 6)
    np.testing.assert_array_equal(got, brute_radius(cloud, 1.5, 6))
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.sort(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    tied = d2[:, 5] == d2[:, 6]
    assert 0 < np.count_nonzero(tied) < len(pts)
    recomputed = sorted(map(tuple, fallback_rows))
    assert recomputed == sorted(map(tuple, pts[tied]))


def brute_nearest(query, support):
    """Nearest support index per query by (squared distance, index)."""
    return np.array([min((float(np.sum((sp - qp) ** 2)), j)
                         for j, sp in enumerate(support.positions))[1]
                     for qp in query.positions])


def test_knn_equidistant_support_picks_lowest_index(fallback_rows):
    # 30 lattice points lie at distance 3 from the origin ((3,0,0) and
    # (1,2,2) up to sign and order) and none nearer
    support = PointCloud(shuffled_lattice(np.random.default_rng(14),
                                          keep=lambda p: (p - 4) @ (p - 4) >= 9, n=9) - 4.0)
    shell = np.flatnonzero(np.einsum("ij,ij->i", support.positions,
                                     support.positions) == 9.0)
    assert shell.size == 30
    query = PointCloud(np.vstack([np.zeros(3), [[0.5, 0.5, 0.5], [4.0, 4.0, 0.0]]]))
    got = knn(query, support)
    assert got[0] == shell.min()
    np.testing.assert_array_equal(got, brute_nearest(query, support))
    assert len(fallback_rows) > 0


def test_knn_exact_match_and_tie_rule():
    q = PointCloud([[0.0, 0.0, 0.0]])
    s = PointCloud([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(knn(q, s), [1])
    # indices 0 and 2 are equidistant and nearest; the lower index wins
    s = PointCloud([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(knn(q, s), [0])


def test_knn_matches_brute_force():
    rng = np.random.default_rng(11)
    q = random_cloud(rng, 300)
    s = random_cloud(rng, 400)
    np.testing.assert_array_equal(knn(q, s), brute_nearest(q, s))


def test_neighbor_queries_exact_on_larger_clouds():
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, 2000)
    radius, cap = 0.15, 20
    got = radius_neighbors(cloud, radius, cap)
    # spot-check 100 random rows against an independent scan
    for i in rng.choice(2000, size=100, replace=False):
        diff = cloud.positions - cloud.positions[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        inside = sorted((float(d2[j]), j) for j in range(2000) if d2[j] <= radius**2)
        want = [j for _, j in inside[:cap]]
        want += [2000] * (cap - len(want))
        np.testing.assert_array_equal(got[i], want)
