"""Baseline registration tests: trimmed ICP and RANSAC + ICP."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from segreg import baselines
from segreg.baselines import (
    DESCRIPTOR_BINS,
    DESCRIPTOR_RADIUS,
    ICP_MAX_ITER,
    ICP_TRIM_FRACTION,
    NORMAL_NEIGHBORS,
    RANSAC_CANDIDATES,
    RANSAC_INLIER_RADIUS,
    RANSAC_ITERATIONS,
    _hypothesis_inliers,
    _mutual_matches,
    estimate_normals,
    icp,
    local_descriptors,
    ransac_icp,
)
from segreg.evaluation import tre
from segreg.geometry import PointCloud, RigidTransform, random_rigid, rotation_angle_deg
from segreg.kpconv import neighbor_offsets
from segreg.matching import weighted_procrustes
from segreg.phantom import PhantomConfig, generate_phantom
from reference_ops import (
    einsum_local_reference_frames,
    scalar_weighted_procrustes,
    where_neighbor_offsets,
)


def bumpy_surface(rng, n=800):
    """A non-symmetric bumpy hemisphere; enough structure for descriptors."""
    u = rng.uniform(0, 1, size=n)
    v = rng.uniform(0, 1, size=n)
    theta = np.arccos(u)             # upper hemisphere
    phi = 2 * np.pi * v
    r = 1.0 + 0.15 * np.sin(3 * phi) * np.cos(4 * theta) + 0.1 * np.sin(7 * theta)
    pos = np.stack([
        r * np.sin(theta) * np.cos(phi),
        r * np.sin(theta) * np.sin(phi),
        r * np.cos(theta),
    ], axis=1)
    return PointCloud(pos)


def test_icp_identity_on_identical_clouds():
    rng = np.random.default_rng(0)
    cloud = bumpy_surface(rng)
    report = icp(cloud, cloud)
    assert report.converged
    assert report.iterations_used <= 2
    assert report.final_rms < 1e-10
    assert np.max(np.abs(report.transform.rotation - np.eye(3))) < 1e-12
    assert np.linalg.norm(report.transform.translation) < 1e-12


def test_icp_recovers_small_misalignment():
    rng = np.random.default_rng(1)
    target = bumpy_surface(rng)
    T_small = random_rigid(0.01, 5.0, rng)
    source = PointCloud(T_small.apply_points(target.positions))
    report = icp(source, target)
    # exact recovery of the inverse on clean identical geometry
    delta = report.transform.compose(T_small)
    assert rotation_angle_deg(delta.rotation) < 0.1
    assert np.linalg.norm(delta.translation) < 1e-3
    assert report.converged


def test_icp_rms_monotone_and_bounded_iterations(monkeypatch):
    rng = np.random.default_rng(2)
    target = bumpy_surface(rng)
    T = random_rigid(0.05, 20.0, rng)
    noisy = PointCloud(T.apply_points(target.positions) + rng.normal(scale=0.005, size=(len(target), 3)))
    keep = max(3, int(np.ceil(len(target) * (1.0 - ICP_TRIM_FRACTION))))
    rms = []

    class RecordingTree:
        """Each round's trimmed RMS, from the distances its query returns."""

        def __init__(self, positions):
            self.tree = cKDTree(positions)

        def query(self, points):
            dists, nn = self.tree.query(points)
            rms.append(float(np.sqrt(np.mean(np.sort(dists)[:keep] ** 2))))
            return dists, nn

    monkeypatch.setattr(baselines, "cKDTree", RecordingTree)
    report = icp(noisy, target)
    assert 1 < report.iterations_used <= ICP_MAX_ITER
    assert len(rms) == report.iterations_used
    assert np.all(np.diff(rms) <= 1e-9)
    assert rms[-1] == report.final_rms


def test_icp_rejects_tiny_clouds():
    c = PointCloud(np.zeros((2, 3)) + np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError):
        icp(c, c)


def test_ransac_icp_recovers_large_misalignment():
    rng = np.random.default_rng(4)
    target = bumpy_surface(rng, 700)
    T = random_rigid(0.1, 45.0, rng)
    source = PointCloud(T.apply_points(target.positions))
    report = ransac_icp(source, target, np.random.default_rng(7))
    delta = report.transform.compose(T)
    assert rotation_angle_deg(delta.rotation) < 1.0
    assert np.linalg.norm(delta.translation) < 0.02


def test_ransac_icp_deterministic_per_seed():
    rng = np.random.default_rng(5)
    target = bumpy_surface(rng, 400)
    T = random_rigid(0.08, 30.0, rng)
    source = PointCloud(T.apply_points(target.positions))
    a = ransac_icp(source, target, np.random.default_rng(11))
    b = ransac_icp(source, target, np.random.default_rng(11))
    assert np.array_equal(a.transform.rotation, b.transform.rotation)
    assert np.array_equal(a.transform.translation, b.transform.translation)


def test_ransac_icp_rejects_tiny_clouds():
    c = PointCloud(np.random.default_rng(6).uniform(size=(5, 3)))
    with pytest.raises(ValueError):
        ransac_icp(c, c, np.random.default_rng(0))


def test_icp_pose_equals_icp_through_scalar_procrustes(monkeypatch):
    sample = generate_phantom(PhantomConfig(seed=5, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    got = icp(sample.preoperative, sample.intraoperative)
    monkeypatch.setattr(baselines, "weighted_procrustes", scalar_weighted_procrustes)
    want = icp(sample.preoperative, sample.intraoperative)
    assert got.iterations_used == want.iterations_used > 2
    assert got.final_rms == want.final_rms
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation, want.transform.translation)


def test_icp_raises_when_the_trimmed_rms_rises(monkeypatch):
    # a tree whose distances grow each round breaks the invariant; the check
    # is an explicit raise, so it also holds under python -O
    class RisingTree:
        def __init__(self, positions):
            self.rounds = 0

        def query(self, moved):
            self.rounds += 1
            return np.full(len(moved), 0.01 * self.rounds), np.arange(len(moved))

    cloud = bumpy_surface(np.random.default_rng(3), 100)
    monkeypatch.setattr(baselines, "cKDTree", RisingTree)
    with pytest.raises(RuntimeError, match="trimmed RMS increased"):
        icp(cloud, cloud)


def test_icp_aligns_a_half_target_from_45_degrees():
    # the target covers only half of the source: each target point has a
    # source counterpart, so querying the source from the target converges
    # where the converse stalls in a wrong basin (> 2 degrees)
    rng = np.random.default_rng(8)
    full = bumpy_surface(rng, 800)
    half = PointCloud(full.positions[full.positions[:, 0] > 0.0])
    T = random_rigid(0.1, 45.0, rng)
    source = PointCloud(T.apply_points(full.positions))
    plain = icp(source, half)
    assert rotation_angle_deg(plain.transform.compose(T).rotation) < 0.1


def test_icp_indexes_the_source_once_and_queries_every_target_point(monkeypatch):
    built, queried = [], []

    class CountingTree:
        def __init__(self, positions):
            built.append(positions)
            self.tree = cKDTree(positions)

        def query(self, points):
            queried.append(len(points))
            return self.tree.query(points)

    sample = small_phantom()
    monkeypatch.setattr(baselines, "cKDTree", CountingTree)
    report = icp(sample.preoperative, sample.intraoperative)
    assert len(built) == 1
    assert np.array_equal(built[0], sample.preoperative.positions)
    assert queried == [len(sample.intraoperative)] * report.iterations_used


@pytest.mark.parametrize("seed", [3000, 3001, 3002])
def test_icp_on_the_oracle_bone_points_lands_within_a_millimetre(seed):
    # full-size phantoms; querying the other way (pre->intra) reads 6.4-6.5 mm
    sample = generate_phantom(PhantomConfig(seed=seed))
    bone = PointCloud(sample.intraoperative.positions[sample.gt_mask == 1])
    report = icp(sample.preoperative, bone)
    err = tre(sample.landmarks, report.transform, sample.T_gt, sample.scale)["mm"]
    assert np.median(err) <= 1.0


def test_estimate_normals_of_noisy_plane_are_vertical():
    rng = np.random.default_rng(20)
    pos = np.column_stack([rng.uniform(-1, 1, (500, 2)), 1e-3 * rng.normal(size=500)])
    normals = estimate_normals(PointCloud(pos))
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.min(np.abs(normals[:, 2])) > 0.99


@pytest.mark.parametrize("n", [1, 2])
def test_estimate_normals_of_fewer_than_three_points_are_vertical(n):
    # no neighborhood of 1 or 2 points has a unique least-spread axis
    pos = np.random.default_rng(22).normal(size=(n, 3))
    assert np.array_equal(estimate_normals(PointCloud(pos)), np.tile((0.0, 0.0, 1.0), (n, 1)))


def test_estimate_normals_match_per_point_covariance_eigenvectors():
    cloud = bumpy_surface(np.random.default_rng(21))
    _, nn = cKDTree(cloud.positions).query(cloud.positions, k=NORMAL_NEIGHBORS)
    reference = np.empty((len(cloud), 3))
    for i, idx in enumerate(nn):
        block = cloud.positions[idx] - cloud.positions[idx].mean(axis=0)
        reference[i] = np.linalg.eigh(block.T @ block)[1][:, 0]
    dots = np.abs(np.sum(estimate_normals(cloud) * reference, axis=1))
    assert np.min(dots) >= 1.0 - 1e-12


@pytest.mark.parametrize("seed", [3000, 3001])
def test_normal_offsets_and_frames_equal_where_gather_references(seed):
    # the H = NORMAL_NEIGHBORS k-NN tables that estimate_normals reads, on the
    # clouds ransac_icp describes and on a bumpy surface
    sample = generate_phantom(PhantomConfig(seed=seed))
    bumpy = bumpy_surface(np.random.default_rng(seed))
    for cloud in (sample.preoperative, sample.intraoperative, bumpy):
        pos = cloud.positions
        nn = cKDTree(pos).query(pos, k=NORMAL_NEIGHBORS)[1]
        assert np.array_equal(neighbor_offsets(pos, nn), where_neighbor_offsets(pos, nn))
        assert np.array_equal(estimate_normals(cloud), einsum_local_reference_frames(pos, nn))


# -- references: the per-point and per-hypothesis loops ----------------------

def loop_descriptors(cloud, radius):
    """One ball query and two np.histogram calls per point."""
    bins = DESCRIPTOR_BINS
    normals = estimate_normals(cloud)
    neighborhoods = cKDTree(cloud.positions).query_ball_point(cloud.positions, radius)
    desc = np.zeros((len(cloud), 2 * bins))
    d_edges = np.linspace(0.0, radius, bins + 1)
    a_edges = np.linspace(0.0, 1.0, bins + 1)
    for i, idx in enumerate(neighborhoods):
        idx = [j for j in idx if j != i]
        if not idx:
            continue
        d = np.linalg.norm(cloud.positions[idx] - cloud.positions[i], axis=1)
        hist_d, _ = np.histogram(np.clip(d, 0, radius - 1e-12), bins=d_edges)
        cos = np.abs(normals[idx] @ normals[i])
        hist_a, _ = np.histogram(np.clip(cos, 0, 1 - 1e-12), bins=a_edges)
        v = np.concatenate([hist_d, hist_a]).astype(np.float64)
        norm = np.linalg.norm(v)
        if norm > 0:
            desc[i] = v / norm
    return desc


def dense_matches(src_desc, tgt_desc):
    """Row and column argmax of the whole similarity matrix, and row maxima."""
    sim = src_desc @ tgt_desc.T
    fwd = np.argmax(sim, axis=1)
    return fwd, np.argmax(sim, axis=0), sim[np.arange(len(sim)), fwd]


def ransac_candidates(source, target):
    """The mutual descriptor matches that ransac_icp samples from."""
    fwd, bwd, strength = dense_matches(local_descriptors(source, DESCRIPTOR_RADIUS),
                                       local_descriptors(target, DESCRIPTOR_RADIUS))
    mutual = np.flatnonzero(bwd[fwd] == np.arange(len(source)))
    if mutual.size > RANSAC_CANDIDATES:
        mutual = mutual[np.argsort(-strength[mutual], kind="stable")[:RANSAC_CANDIDATES]]
    return source.positions[mutual], target.positions[fwd[mutual]]


def loop_hypotheses(picks, cand_src, cand_tgt):
    """One weighted_procrustes per hypothesis; the first strictly best wins.

    Returns the per-hypothesis inlier counts (-1 where the solve raised) and
    the winning pose, or None when every hypothesis was skipped.
    """
    counts, best_T, best_count = [], None, -1
    for pick in picks:
        try:
            T = weighted_procrustes(cand_src[pick], cand_tgt[pick], np.ones(3))
        except ValueError:
            counts.append(-1)
            continue
        count = int(np.sum(np.linalg.norm(T.apply_points(cand_src) - cand_tgt, axis=1)
                           <= RANSAC_INLIER_RADIUS))
        counts.append(count)
        if count > best_count:
            best_count, best_T = count, T
    return np.array(counts), best_T


def draw_picks(rng, m):
    return np.array([rng.choice(m, size=3, replace=False) for _ in range(RANSAC_ITERATIONS)])


def lattice_cloud():
    """Two perpendicular 0.25-spaced planes and one isolated point.

    With radius 1, in-plane distances fall exactly on the radius and on the
    inner bin edges k/8.
    """
    g = np.arange(9) * 0.25
    flat = [(x, y, 0.0) for x in g for y in g]
    wall = [(2.85, y, z) for y in g for z in g]
    return PointCloud(np.array(flat + wall + [(10.0, 10.0, 10.0)]))


def small_phantom():
    return generate_phantom(PhantomConfig(seed=3, n_vertebrae=2, points_pre=1024,
                                          points_intra=512))


def lines_and_surface(rng):
    """A bumpy patch plus three irregularly sampled lines, and a moved copy.

    Triples drawn from one line are collinear, so some hypotheses are
    rank-deficient.
    """
    parts = [bumpy_surface(rng, 150).positions]
    for _ in range(3):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s = np.cumsum(rng.uniform(0.005, 0.04, 50))
        parts.append(rng.uniform(-0.3, 0.3, 3) + (s - s.mean())[:, None] * axis)
    source = PointCloud(np.vstack(parts))
    T = random_rigid(0.1, 30.0, rng)
    return source, PointCloud(T.apply_points(source.positions))


# -- descriptors --------------------------------------------------------------

def test_local_descriptors_match_loop_on_small_phantom():
    sample = small_phantom()
    for cloud in (sample.preoperative, sample.intraoperative):
        assert np.array_equal(local_descriptors(cloud, 0.15), loop_descriptors(cloud, 0.15))


def test_local_descriptors_match_loop_on_lattice_bin_edges():
    cloud = lattice_cloud()
    normals = np.abs(estimate_normals(cloud)[:-1])
    assert np.array_equal(np.unique(normals, axis=0), [[0, 0, 1], [1, 0, 0]])
    pairs = cKDTree(cloud.positions).query_pairs(1.0, output_type="ndarray")
    d = np.linalg.norm(cloud.positions[pairs[:, 0]] - cloud.positions[pairs[:, 1]], axis=1)
    assert {0.25, 0.5, 0.75, 1.0} <= set(d.tolist())
    desc = local_descriptors(cloud, 1.0)
    assert np.array_equal(desc, loop_descriptors(cloud, 1.0))
    assert not desc[-1].any()
    # both |cos| = 0 (across the planes) and 1 (within one) are binned
    assert np.any(desc[:-1, 8] > 0)
    assert np.all(desc[:-1, 15] > 0)


def test_local_descriptors_do_not_depend_on_the_pair_block(monkeypatch):
    # the counts are integer sums, so an odd block that splits every
    # endpoint's pairs across passes changes nothing
    monkeypatch.setattr(baselines, "_PAIR_BLOCK", 7)
    sample = small_phantom()
    for cloud, radius in ((sample.intraoperative, 0.15), (lattice_cloud(), 1.0)):
        assert np.array_equal(local_descriptors(cloud, radius), loop_descriptors(cloud, radius))


# -- mutual matching ----------------------------------------------------------

def tied_descriptors():
    """Small-integer descriptors whose products are exact and tie often.

    Exact products round alike in every BLAS block shape, so the blocked and
    the dense argmax see the same ties.  Source rows 2 and 3 are equal and
    rows 4 and 9 are zero; target rows 1 and 5 are equal, and rows 0 and 6
    are zero, so their similarity columns tie on every source row.
    """
    rng = np.random.default_rng(40)
    src = rng.integers(0, 3, size=(11, 4)).astype(np.float64)
    tgt = rng.integers(0, 3, size=(8, 4)).astype(np.float64)
    src[3] = src[2]
    src[[4, 9]] = 0.0
    tgt[5] = tgt[1]
    tgt[[0, 6]] = 0.0
    return src, tgt


@pytest.mark.parametrize("block", [None, 1, 3, 4])
def test_mutual_matches_equal_the_dense_argmax_under_ties(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(baselines, "_MATCH_BLOCK", block)
    src, tgt = tied_descriptors()
    sim = src @ tgt.T
    # with blocks of 3, rows 2 and 3 share a column maximum across a boundary
    assert np.any((sim[2] == sim.max(axis=0)) & (sim[3] == sim[2]))
    binary = np.random.default_rng(42).integers(0, 2, size=(40, 4)).astype(np.float64)
    cases = [(src, tgt), (tgt, src), (np.zeros((5, 4)), tgt), (src, np.zeros((6, 4))),
             (binary, binary[:25])]
    for a, b in cases:
        for got, want in zip(_mutual_matches(a, b), dense_matches(a, b)):
            assert np.array_equal(got, want)


def test_mutual_matches_never_hold_the_dense_matrix():
    rng = np.random.default_rng(41)
    src, tgt = rng.uniform(size=(6000, 16)), rng.uniform(size=(3000, 16))
    dense_bytes = 8 * len(src) * len(tgt)
    tracemalloc.start()
    try:
        _mutual_matches(src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


# -- hypothesis scoring -------------------------------------------------------

def test_batched_scoring_skips_collinear_triples_like_the_loop():
    source, target = lines_and_surface(np.random.default_rng(30))
    cand_src, cand_tgt = ransac_candidates(source, target)
    picks = draw_picks(np.random.default_rng(12), len(cand_src))
    counts, best_T = loop_hypotheses(picks, cand_src, cand_tgt)
    assert np.sum(counts == -1) > 0
    assert np.array_equal(_hypothesis_inliers(picks, cand_src, cand_tgt), counts)
    expected = icp(source, target, init=best_T).transform
    got = ransac_icp(source, target, np.random.default_rng(12)).transform
    assert np.array_equal(got.rotation, expected.rotation)
    assert np.array_equal(got.translation, expected.translation)


def test_ransac_icp_with_only_collinear_candidates_finds_no_hypothesis():
    s = np.cumsum(np.random.default_rng(31).uniform(0.01, 0.05, 40))
    line = PointCloud(np.column_stack([s, np.zeros_like(s), np.zeros_like(s)]))
    cand_src, cand_tgt = ransac_candidates(line, line)
    picks = draw_picks(np.random.default_rng(0), len(cand_src))
    assert np.all(loop_hypotheses(picks, cand_src, cand_tgt)[0] == -1)
    with pytest.raises(ValueError, match="RANSAC found no valid hypothesis"):
        ransac_icp(line, line, np.random.default_rng(0))
