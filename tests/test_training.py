"""Training loop: divergence is reported as TrainingDiverged, and the fused
tape nodes train exactly as the composed operations they replace."""

import numpy as np
import pytest

from segreg import autodiff, kpconv, matching, networks, pipeline
from segreg.phantom import PhantomConfig, generate_phantom
from segreg.training import TrainConfig, TrainingDiverged, train
from reference_ops import add_at_rows, composed_norm_act, composed_normalize_scores_with_slack


def tiny_phantom():
    return generate_phantom(PhantomConfig(seed=0, n_vertebrae=2, points_pre=1024,
                                          points_intra=512))


def test_exploding_learning_rate_raises_training_diverged():
    sample = tiny_phantom()
    cfg = TrainConfig(lr0=1e300, warmup_iters=0, total_iters=4, checkpoint_every=0)
    with pytest.raises(TrainingDiverged) as info:
        train([sample], cfg)
    assert info.value.step == 1
    assert info.value.checkpoint is None


@pytest.mark.parametrize("mode", ["end_to_end", "two_step"])
def test_fused_nodes_train_exactly_as_composed_ops(mode, monkeypatch):
    sample = tiny_phantom()
    cfg = TrainConfig(lr0=1e-2, warmup_iters=0, total_iters=3, checkpoint_every=0,
                      mode=mode, phase1_iters=1)
    prepared = [pipeline.prepare_sample(sample, networks.SegNetConfig(),
                                        networks.RegNetConfig(), pipeline.MatcherConfig())]
    fused = train([sample], cfg, prepared=prepared)
    for module in (pipeline, matching):
        monkeypatch.setattr(module, "normalize_scores_with_slack",
                            composed_normalize_scores_with_slack)
    monkeypatch.setattr(networks, "_norm_act", composed_norm_act)
    for module in (autodiff, kpconv):
        monkeypatch.setattr(module, "scatter_add_rows", add_at_rows)
    composed = train([sample], cfg, prepared=prepared)
    assert len(fused.curve) == 3 and np.all(np.isfinite([row[2] for row in fused.curve]))
    assert fused.curve == composed.curve
    assert fused.params.keys() == composed.params.keys()
    for name, param in fused.params.items():
        assert np.array_equal(param.data, composed.params[name].data), name
