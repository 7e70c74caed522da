"""Training loop: divergence is reported as TrainingDiverged."""

import pytest

from segreg.phantom import PhantomConfig, generate_phantom
from segreg.training import TrainConfig, TrainingDiverged, train


def test_exploding_learning_rate_raises_training_diverged():
    sample = generate_phantom(PhantomConfig(seed=0, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    cfg = TrainConfig(lr0=1e300, warmup_iters=0, total_iters=4, checkpoint_every=0)
    with pytest.raises(TrainingDiverged) as info:
        train([sample], cfg)
    assert info.value.step == 1
    assert info.value.checkpoint is None
