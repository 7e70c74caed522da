"""Baseline registration tests: trimmed ICP and RANSAC + ICP."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from segreg.baselines import estimate_normals, icp, ransac_icp
from segreg.geometry import PointCloud, RigidTransform, random_rigid, rotation_angle_deg


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


def test_icp_rms_monotone_and_bounded_iterations():
    rng = np.random.default_rng(2)
    target = bumpy_surface(rng)
    T = random_rigid(0.05, 20.0, rng)
    noisy = PointCloud(T.apply_points(target.positions) + rng.normal(scale=0.005, size=(len(target), 3)))
    report = icp(noisy, target, max_iter=40)
    assert report.iterations_used <= 40
    assert report.final_rms >= 0


def test_icp_rejects_tiny_clouds():
    c = PointCloud(np.zeros((2, 3)) + np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError):
        icp(c, c)


def test_icp_trim_zero_is_vanilla():
    rng = np.random.default_rng(3)
    cloud = bumpy_surface(rng, 200)
    report = icp(cloud, cloud, trim_fraction=0.0)
    assert report.final_rms < 1e-10


def test_ransac_icp_recovers_large_misalignment():
    rng = np.random.default_rng(4)
    target = bumpy_surface(rng, 700)
    T = random_rigid(0.1, 45.0, rng)
    source = PointCloud(T.apply_points(target.positions))
    report = ransac_icp(source, target, np.random.default_rng(7), n_iter=2000)
    delta = report.transform.compose(T)
    assert rotation_angle_deg(delta.rotation) < 1.0
    assert np.linalg.norm(delta.translation) < 0.02


def test_ransac_icp_deterministic_per_seed():
    rng = np.random.default_rng(5)
    target = bumpy_surface(rng, 400)
    T = random_rigid(0.08, 30.0, rng)
    source = PointCloud(T.apply_points(target.positions))
    a = ransac_icp(source, target, np.random.default_rng(11), n_iter=500)
    b = ransac_icp(source, target, np.random.default_rng(11), n_iter=500)
    assert np.array_equal(a.transform.rotation, b.transform.rotation)
    assert np.array_equal(a.transform.translation, b.transform.translation)


def test_ransac_icp_rejects_tiny_clouds():
    c = PointCloud(np.random.default_rng(6).uniform(size=(5, 3)))
    with pytest.raises(ValueError):
        ransac_icp(c, c, np.random.default_rng(0))


def test_icp_initialization_sensitivity_on_low_overlap():
    # regression expectation: raw ICP stalls in a wrong basin when the target
    # covers only part of the source and the misalignment is large
    rng = np.random.default_rng(8)
    full = bumpy_surface(rng, 800)
    half = PointCloud(full.positions[full.positions[:, 0] > 0.0])
    T = random_rigid(0.1, 45.0, rng)
    source = PointCloud(T.apply_points(full.positions))
    plain = icp(source, half)
    err_plain = rotation_angle_deg(plain.transform.compose(T).rotation)
    assert err_plain > 2.0


def test_estimate_normals_of_noisy_plane_are_vertical():
    rng = np.random.default_rng(20)
    pos = np.column_stack([rng.uniform(-1, 1, (500, 2)), 1e-3 * rng.normal(size=500)])
    normals = estimate_normals(PointCloud(pos))
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.min(np.abs(normals[:, 2])) > 0.99


def test_estimate_normals_match_per_point_covariance_eigenvectors():
    cloud = bumpy_surface(np.random.default_rng(21))
    k = 12
    _, nn = cKDTree(cloud.positions).query(cloud.positions, k=k)
    reference = np.empty((len(cloud), 3))
    for i, idx in enumerate(nn):
        block = cloud.positions[idx] - cloud.positions[idx].mean(axis=0)
        reference[i] = np.linalg.eigh(block.T @ block)[1][:, 0]
    dots = np.abs(np.sum(estimate_normals(cloud, k) * reference, axis=1))
    assert np.min(dots) >= 1.0 - 1e-12
