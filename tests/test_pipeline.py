"""Pipeline: ``prepare_sample``'s ground truth, ``register_pair`` on a small
phantom, and its pose chain on one full-size phantom per path."""

import numpy as np
import pytest

from segreg import pipeline
from segreg.matching import POSITIVE_OVERLAP, ground_truth_patch_matches
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import PhantomConfig, generate_phantom
from segreg.training import init_params
from reference_ops import reference_pose_chain


def test_register_pair_is_valid_and_repeatable():
    sample = generate_phantom(PhantomConfig(seed=6, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    seg, reg, match = SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig()
    params = init_params(seg, reg, 0)
    prepared = pipeline.prepare_sample(sample, seg, reg, match, with_ground_truth=False)
    first = pipeline.register_pair(params, prepared, seg, reg, match)
    again = pipeline.register_pair(params, prepared, seg, reg, match)
    R, t = first.transform.rotation, first.transform.translation
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(t))
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert np.linalg.det(R) > 0
    assert np.array_equal(R, again.transform.rotation)
    assert np.array_equal(t, again.transform.translation)
    assert np.array_equal(first.mask, again.mask)
    assert first.info == again.info
    # the keys the benchmark's register workload reads
    assert {"n_coarse", "n_fine", "inliers", "path", "mask_mean"} <= first.info.keys()
    assert first.info["path"] in ("fine", "coarse", "coarse+fine")
    assert first.mask.shape == (len(sample.intraoperative),)
    assert set(np.unique(first.mask)) <= {0, 1}
    assert first.info["mask_mean"] == float(first.mask.mean())


def test_prepare_sample_ground_truth_invariants():
    sample = generate_phantom(PhantomConfig(seed=6, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    match, reg = pipeline.MatcherConfig(), RegNetConfig()
    prepared = pipeline.prepare_sample(sample, SegNetConfig(), reg, match)
    pre, intra = prepared.pre_view, prepared.intra_view
    for view in (pre, intra):
        n0, size = len(view.fine_points), match.patch_size
        assert view.patch_indices.shape == (len(view.points), size)
        assert np.all((view.sizes >= 1) & (view.sizes <= size))
        members = np.arange(size) < view.sizes[:, None]
        # front-packed and shadow-padded, each level-0 point in one patch at most
        assert np.all(view.patch_indices[members] < n0)
        assert np.all(view.patch_indices[~members] == n0)
        assert np.unique(view.patch_indices[members]).size == members.sum()
        owner = np.full(n0, -1)
        owner[view.patch_indices[members]] = np.nonzero(members)[0]
        assert np.array_equal(view.fine_to_sp, owner)
    assert prepared.overlap.shape == (len(pre.points), len(intra.points))
    assert np.all((prepared.overlap >= 0.0) & (prepared.overlap <= 1.0))

    positive = np.argwhere(prepared.overlap > POSITIVE_OVERLAP)
    every = ground_truth_patch_matches(pre, intra, positive, sample.T_gt,
                                       reg.initial_voxel)
    assert every.shape == (len(positive), match.patch_size)
    usable = (every >= 0).any(axis=1)
    assert usable.any()
    assert np.array_equal(prepared.gt_pairs, positive[usable])
    assert np.array_equal(prepared.gt_cols, every[usable])
    for (a, b), cols in zip(prepared.gt_pairs, prepared.gt_cols):
        rows = np.flatnonzero(cols >= 0)
        cols = cols[rows]
        assert np.all(rows < pre.sizes[a])
        assert np.unique(cols).size == cols.size and np.all(cols < intra.sizes[b])
        p = sample.T_gt.apply_points(pre.fine_points[pre.patch_indices[a, rows]])
        q = intra.fine_points[intra.patch_indices[b, cols]]
        assert np.all(np.linalg.norm(p - q, axis=1) <= reg.initial_voxel + 1e-12)


# phantom seed -> (path, n_fine, inliers) with init_params(..., 0): one
# phantom per branch of register_pair's pose chain
PATH_LOCK = {1000: ("coarse", 4, 6), 1001: ("fine", 12, 1), 1002: ("coarse+fine", 9, 1)}


@pytest.mark.parametrize("seed", sorted(PATH_LOCK))
def test_register_pair_pose_chain_equals_reference(seed, monkeypatch):
    seg, reg, match = SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig()
    params = init_params(seg, reg, 0)
    prepared = pipeline.prepare_sample(generate_phantom(PhantomConfig(seed=seed)), seg, reg,
                                       match, with_ground_truth=False)
    seen = {}

    def recorded(name, fn):
        def call(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(pipeline, name, call)

    recorded("coarse_match", pipeline.coarse_match)
    recorded("fine_match", pipeline.fine_match)
    result = pipeline.register_pair(params, prepared, seg, reg, match)
    path, n_fine, inliers = PATH_LOCK[seed]
    assert (result.info["path"], result.info["n_fine"], result.info["inliers"]) == (
        path, n_fine, inliers)
    assert result.info["refine_flagged"] is False
    pairs, scores = seen["coarse_match"]
    T, want_path, want_inliers = reference_pose_chain(
        seen["fine_match"], pairs, scores, prepared.pre_view, prepared.intra_view,
        2.5 * reg.initial_voxel)
    assert (want_path, want_inliers) == (path, inliers)
    assert np.array_equal(result.transform.rotation, T.rotation)
    assert np.array_equal(result.transform.translation, T.translation)
