"""Inference pipeline: ``register_pair`` on a small phantom."""

import numpy as np

from segreg import pipeline
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
    assert first.info["path"] in ("fine", "coarse", "coarse+fine")
    assert first.mask.shape == (len(sample.intraoperative),)
    assert set(np.unique(first.mask)) <= {0, 1}
    assert first.info["mask_mean"] == float(first.mask.mean())
