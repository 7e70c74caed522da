"""Geometry unit tests: transforms, normalization, subsampling, neighbors."""

import numpy as np
import pytest

from segreg.geometry import (
    PointCloud,
    RigidTransform,
    denormalize,
    knn,
    normalize_unit_sphere,
    radius_neighbors,
    random_rigid,
    rotation_angle_deg,
    voxel_grid_subsample,
)


def random_cloud(rng, n, colors=False, labels=False):
    return PointCloud(
        rng.uniform(-1, 1, size=(n, 3)),
        colors=rng.uniform(0, 1, size=(n, 3)) if colors else None,
        labels=rng.integers(0, 2, size=n) if labels else None,
    )


# -- normalization -----------------------------------------------------------

def test_normalize_two_points():
    cloud = PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    out, center, scale = normalize_unit_sphere(cloud)
    np.testing.assert_allclose(center, [1.0, 0.0, 0.0])
    assert scale == pytest.approx(1.0)
    np.testing.assert_allclose(out.positions, [[-1, 0, 0], [1, 0, 0]])


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    cloud, _, _ = normalize_unit_sphere(random_cloud(rng, 50))
    out, center, scale = normalize_unit_sphere(cloud)
    assert abs(scale - 1.0) < 1e-12
    assert np.max(np.abs(out.positions - cloud.positions)) < 1e-12


def test_normalize_round_trip():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 100)
    out, center, scale = normalize_unit_sphere(cloud)
    assert np.max(np.linalg.norm(out.positions, axis=1)) == pytest.approx(1.0, abs=1e-12)
    back = denormalize(out, center, scale)
    assert np.max(np.abs(back.positions - cloud.positions)) < 1e-12


def test_normalize_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize_unit_sphere(PointCloud(np.ones((4, 3))))


# -- transforms --------------------------------------------------------------

def test_apply_identity_and_translation():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    assert np.array_equal(RigidTransform.identity().apply(cloud).positions, cloud.positions)
    t = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(t.apply(cloud).positions, [[0, 0, 1]])


def test_apply_carries_colors_and_labels():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 10, colors=True, labels=True)
    T = random_rigid(0.1, 45.0, rng)
    out = T.apply(cloud)
    np.testing.assert_array_equal(out.colors, cloud.colors)
    np.testing.assert_array_equal(out.labels, cloud.labels)


def test_inverse_round_trip_on_cloud():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 64)
    T = random_rigid(0.5, 90.0, rng)
    back = T.invert().apply(T.apply(cloud))
    assert np.max(np.abs(back.positions - cloud.positions)) < 1e-10


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
        np.testing.assert_allclose(
            out.colors[j], cloud.colors[members].mean(axis=0), atol=1e-12
        )
        votes = cloud.labels[members]
        expected = 1 if 2 * votes.sum() >= len(votes) else 0
        assert out.labels[j] == expected


def test_voxel_label_tie_resolves_to_one():
    cloud = PointCloud([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]], labels=[0, 1])
    out, _ = voxel_grid_subsample(cloud, 1.0)
    assert out.labels[0] == 1


# -- neighbor queries --------------------------------------------------------

def brute_radius(query, support, radius, max_neighbors):
    ns = len(support)
    table = np.full((len(query), max_neighbors), ns, dtype=np.int64)
    for i, q in enumerate(query.positions):
        cand = []
        for j, s in enumerate(support.positions):
            d2 = float(np.sum((s - q) ** 2))
            if d2 <= radius * radius:
                cand.append((d2, j))
        cand.sort()
        for slot, (_, j) in enumerate(cand[:max_neighbors]):
            table[i, slot] = j
    return table


def test_radius_self_neighbor():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    table = radius_neighbors(cloud, cloud, 0.5, 3)
    np.testing.assert_array_equal(table, [[0, 1, 1]])


def test_radius_no_support_in_range_gives_shadow_row():
    q = PointCloud([[0.0, 0.0, 0.0]])
    s = PointCloud([[10.0, 0.0, 0.0]])
    table = radius_neighbors(q, s, 0.5, 2)
    np.testing.assert_array_equal(table, [[1, 1]])


def test_radius_matches_brute_force():
    rng = np.random.default_rng(10)
    q = random_cloud(rng, 500)
    s = random_cloud(rng, 500)
    got = radius_neighbors(q, s, 0.2, 12)
    want = brute_radius(q, s, 0.2, 12)
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
    got = radius_neighbors(cloud, cloud, 1.5, 10)
    np.testing.assert_array_equal(got, brute_radius(cloud, cloud, 1.5, 10))
    assert len(fallback_rows) > 0


def test_knn_equidistant_support_picks_lowest_index(fallback_rows):
    # 30 lattice points lie at distance 3 from the origin ((3,0,0) and
    # (1,2,2) up to sign and order) and none nearer
    support = PointCloud(shuffled_lattice(np.random.default_rng(14),
                                          keep=lambda p: (p - 4) @ (p - 4) >= 9, n=9) - 4.0)
    shell = np.flatnonzero(np.einsum("ij,ij->i", support.positions,
                                     support.positions) == 9.0)
    assert shell.size == 30
    query = PointCloud(np.vstack([np.zeros(3), [[0.5, 0.5, 0.5], [4.0, 4.0, 0.0]]]))
    got = knn(query, support, 1)
    assert got[0, 0] == shell.min()
    for i, qp in enumerate(query.positions):
        d2 = [(float(np.sum((sp - qp) ** 2)), j) for j, sp in enumerate(support.positions)]
        assert got[i, 0] == min(d2)[1]
    assert len(fallback_rows) > 0


def test_knn_exact_match_and_tie_rule():
    q = PointCloud([[0.0, 0.0, 0.0]])
    s = PointCloud([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(knn(q, s, 1), [[1]])
    # indices 0 and 2 are equidistant; lower index first
    np.testing.assert_array_equal(knn(q, s, 3), [[1, 0, 2]])


def test_knn_matches_brute_force():
    rng = np.random.default_rng(11)
    q = random_cloud(rng, 300)
    s = random_cloud(rng, 400)
    got = knn(q, s, 7)
    for i, qp in enumerate(q.positions):
        d2 = [(float(np.sum((sp - qp) ** 2)), j) for j, sp in enumerate(s.positions)]
        want = [j for _, j in sorted(d2)[:7]]
        np.testing.assert_array_equal(got[i], want)


def test_knn_rejects_k_too_large():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        knn(cloud, cloud, 4)


def test_neighbor_queries_exact_on_larger_clouds():
    rng = np.random.default_rng(12)
    q = random_cloud(rng, 2000)
    s = random_cloud(rng, 2000)
    radius, cap = 0.15, 20
    got = radius_neighbors(q, s, radius, cap)
    # spot-check 100 random rows against an independent scan
    for i in rng.choice(2000, size=100, replace=False):
        diff = s.positions - q.positions[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        inside = sorted((float(d2[j]), j) for j in range(2000) if d2[j] <= radius**2)
        want = [j for _, j in inside[:cap]]
        want += [2000] * (cap - len(want))
        np.testing.assert_array_equal(got[i], want)
