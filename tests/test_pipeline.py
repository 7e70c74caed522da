"""Pipeline: ``prepare_sample``'s ground truth, ``register_pair`` on a small
phantom, and its pose on full-size phantoms through mostly wrong matches."""

import pickle

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from segreg import pipeline
from segreg.evaluation import tre
from segreg.geometry import rotation_angle_deg
from segreg.matching import (
    POSITIVE_OVERLAP,
    ground_truth_patch_matches,
    superpoint_overlap_labels,
)
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import PhantomConfig, generate_phantom
from segreg.training import init_params


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
    assert first.info["path"] in ("coarse", "local")
    assert first.mask.shape == (len(sample.intraoperative),)
    assert set(np.unique(first.mask)) <= {0, 1}
    assert first.info["mask_mean"] == float(first.mask.mean())


@pytest.mark.parametrize("seed", [6, 7])
def test_register_pair_reports_the_rotation_angle_of_its_pose(seed):
    sample = generate_phantom(PhantomConfig(seed=seed, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    seg, reg, match = SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig()
    prepared = pipeline.prepare_sample(sample, seg, reg, match, with_ground_truth=False)
    result = pipeline.register_pair(init_params(seg, reg, seed), prepared, seg, reg, match)
    angle = result.info["rotation_deg"]
    assert type(angle) is float
    assert angle == rotation_angle_deg(result.transform.rotation)
    magnitude = Rotation.from_matrix(result.transform.rotation).magnitude()
    assert abs(angle - np.degrees(magnitude)) < 1e-6


@pytest.mark.parametrize("winner,votes,margin", [
    (0, [5, 2, -1, 3], 2),      # lead over the runner-up
    (2, [1, -1, 4, 4], 0),      # a tie with a later hypothesis
    (1, [-1, 7, -1], 7),        # no other valid hypothesis: its own votes
])
def test_register_pair_reports_the_winners_votes_and_margin(monkeypatch, winner, votes,
                                                            margin):
    sample = generate_phantom(PhantomConfig(seed=6, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    seg, reg, match = SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig()
    prepared = pipeline.prepare_sample(sample, seg, reg, match, with_ground_truth=False)
    solve = pipeline.local_to_global

    def hand_built_votes(*args):
        return winner, solve(*args)[1], np.array(votes)

    monkeypatch.setattr(pipeline, "local_to_global", hand_built_votes)
    info = pipeline.register_pair(init_params(seg, reg, 0), prepared, seg, reg, match).info
    assert (info["votes"], info["vote_margin"]) == (votes[winner], margin)
    assert info["path"] == ("coarse" if winner == 0 else "local")


def test_prepare_sample_is_the_same_bits_at_every_width_factor():
    """The width factor shapes parameters only: the contexts with their held
    inputs and mixes, the patches and the ground truth pickle to the same
    bytes at 0.25 and 1.0."""
    sample = generate_phantom(PhantomConfig(seed=6, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    a, b = (pickle.dumps(pipeline.prepare_sample(sample, SegNetConfig(width_factor=f),
                                                 RegNetConfig(width_factor=f),
                                                 pipeline.MatcherConfig()))
            for f in (0.25, 1.0))
    assert a == b


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
    overlap = superpoint_overlap_labels(pre, intra, sample.T_gt)
    assert overlap.shape == (len(pre.points), len(intra.points))
    assert np.all((overlap >= 0.0) & (overlap <= 1.0))

    positive = np.argwhere(overlap > POSITIVE_OVERLAP)
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


def corrupted_matches(prepared, rng):
    """Coarse and fine matches where most pairs are wrong: ten ground-truth
    pairs with their ground-truth matches and 38 pairs without any overlap,
    each given a random injective map of the smaller patch's slots, shuffled,
    all with unit weight; the fine matches in ``fine_match``'s order."""
    pre, intra = prepared.pre_view, prepared.intra_view
    good = rng.choice(len(prepared.gt_pairs), size=10, replace=False)
    overlap = superpoint_overlap_labels(pre, intra, prepared.sample.T_gt)
    disjoint = np.argwhere(overlap == 0)
    bad = disjoint[rng.choice(len(disjoint), size=38, replace=False)]
    slots = [(np.flatnonzero(cols >= 0), cols[cols >= 0]) for cols in prepared.gt_cols[good]]
    for a, b in bad:
        n = min(pre.sizes[a], intra.sizes[b])
        slots.append((rng.permutation(pre.sizes[a])[:n], rng.permutation(intra.sizes[b])[:n]))
    order = rng.permutation(len(slots))
    pairs = np.concatenate([prepared.gt_pairs[good], bad])[order]
    slots = [slots[i] for i in order]
    pre_idx = np.concatenate([pre.patch_indices[a, r] for (a, _), (r, _) in zip(pairs, slots)])
    intra_idx = np.concatenate([intra.patch_indices[b, c]
                                for (_, b), (_, c) in zip(pairs, slots)])
    pair_idx = np.repeat(np.arange(len(pairs)), [len(r) for r, _ in slots])
    by_point = np.lexsort((intra_idx, pre_idx))
    fine = (pre_idx[by_point], intra_idx[by_point], np.ones(len(by_point)),
            pair_idx[by_point])
    return (pairs, np.ones(len(pairs))), fine


def test_register_pair_recovers_pose_through_corrupted_matches(monkeypatch):
    """Ten phantoms whose coarse pairs are 38 of 48 wrong: a pose fitted to
    all fine matches, or to the superpoint pairs, follows the outliers, while
    the best-supported local hypothesis recovers the true pose."""
    seg, reg, match = SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig()
    params = init_params(seg, reg, 0)
    errors = []
    for seed in range(3000, 3010):
        sample = generate_phantom(PhantomConfig(seed=seed))
        prepared = pipeline.prepare_sample(sample, seg, reg, match)
        coarse, fine = corrupted_matches(prepared, np.random.default_rng(seed))
        monkeypatch.setattr(pipeline, "coarse_match", lambda *args, **kwargs: coarse)
        monkeypatch.setattr(pipeline, "fine_match", lambda *args, **kwargs: fine)
        result = pipeline.register_pair(params, prepared, seg, reg, match)
        assert result.info["n_coarse"] == 48 and result.info["n_fine"] == len(fine[0])
        errors.append(np.median(tre(sample.landmarks, result.transform, sample.T_gt,
                                    sample.scale)["mm"]))
    assert np.median(errors) <= 2.0
    assert np.sum(np.array(errors) <= 5.0) >= 7
