"""Straight-through Gumbel-Softmax contract tests."""

import numpy as np
import pytest

from segreg import autodiff as ad
from segreg.autodiff import Tape, Tensor, backward, sum_
from segreg.gumbel import gumbel_softmax, hard_mask, sample_gumbel, straight_through_mask

EULER_MASCHERONI = 0.5772156649015329


def test_gumbel_noise_finite():
    g = sample_gumbel(1000, 2, np.random.default_rng(0))
    assert np.all(np.isfinite(g))


def test_gumbel_noise_mean_matches_euler_mascheroni():
    g = sample_gumbel(50_000, 2, np.random.default_rng(1))
    assert abs(g.mean() - EULER_MASCHERONI) < 0.01


def test_gumbel_noise_deterministic_per_seed():
    a = sample_gumbel(100, 2, np.random.default_rng(42))
    b = sample_gumbel(100, 2, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_gumbel_softmax_symmetry():
    z = Tensor(np.zeros((5, 2)))
    g = np.zeros((5, 2))
    for tau in (0.1, 1.0, 5.0):
        out = gumbel_softmax(z, g, tau)
        np.testing.assert_allclose(out.data, 0.5)


def test_gumbel_softmax_low_temperature_sharpens():
    z = Tensor(np.array([[2.0, 0.0]]))
    out = gumbel_softmax(z, np.zeros((1, 2)), 0.01)
    # 1 - 1e-20 is not representable below 1.0 in float64; the relaxation
    # saturates to exactly 1.0 here, which satisfies the near-one-hot bound.
    assert out.data[0, 0] >= 1 - 1e-20


def test_gumbel_softmax_rejects_bad_tau():
    with pytest.raises(ValueError):
        gumbel_softmax(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), 0.0)


def test_gumbel_softmax_forward_equals_the_numpy_formula():
    rng = np.random.default_rng(2)
    z, g, tau = rng.uniform(-2, 2, size=(4, 2)), sample_gumbel(4, 2, rng), 0.5
    y = (z + g) / tau
    e = np.exp(y - y.max(axis=1, keepdims=True))
    np.testing.assert_allclose(gumbel_softmax(Tensor(z), g, tau).data,
                               e / e.sum(axis=1, keepdims=True), rtol=1e-12, atol=0)


def test_straight_through_forward_is_exactly_binary():
    rng = np.random.default_rng(3)
    z = Tensor(rng.uniform(-2, 2, size=(200, 2)), requires_grad=True)
    with Tape():
        mask, noise = straight_through_mask(z, 1.0, np.random.default_rng(7))
    assert set(np.unique(mask.data)) <= {0.0, 1.0}
    np.testing.assert_array_equal(mask.data[:, 0], np.argmax(z.data + noise, axis=1))


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 5.0])
def test_straight_through_gradient_equals_relaxed_gradient(tau):
    rng = np.random.default_rng(4)
    z0 = rng.uniform(-2, 2, size=(50, 2))

    with Tape():
        z = Tensor(z0, requires_grad=True)
        mask, noise = straight_through_mask(z, tau, np.random.default_rng(9))
        backward(sum_(mask))
    ste_grad = z.grad.copy()

    with Tape():
        z2 = Tensor(z0, requires_grad=True)
        soft = gumbel_softmax(z2, noise, tau)
        backward(sum_(ad.mul(soft, np.tile([0.0, 1.0], (len(z0), 1)))))
    assert np.array_equal(ste_grad, z2.grad)
    assert np.linalg.norm(ste_grad) > 0


def test_strong_logits_give_all_ones_mask():
    # logit gap 20: P(Y=0) = sigma(-20) ~ 2e-9 per point
    z = Tensor(np.tile([0.0, 20.0], (500, 1)))
    with Tape():
        mask, _ = straight_through_mask(z, 1.0, np.random.default_rng(11))
    assert np.all(mask.data == 1.0)


def test_gumbel_max_frequency_matches_logistic_cdf():
    gap = 0.8
    z = Tensor(np.tile([0.0, gap], (50_000, 1)))
    mask, _ = straight_through_mask(z, 1.0, np.random.default_rng(12))
    expected = 1.0 / (1.0 + np.exp(-gap))
    assert abs(mask.data.mean() - expected) < 0.01


def test_hard_mask_is_noise_free_argmax():
    rng = np.random.default_rng(13)
    z = Tensor(rng.uniform(-1, 1, size=(30, 2)))
    np.testing.assert_array_equal(hard_mask(z), np.argmax(z.data, axis=1))


def test_rows_of_relaxation_sum_to_one():
    rng = np.random.default_rng(14)
    z = Tensor(rng.uniform(-5, 5, size=(100, 2)))
    g = sample_gumbel(100, 2, rng)
    out = gumbel_softmax(z, g, 0.7)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_straight_through_mask_records_one_node_on_the_relaxation():
    z0 = np.random.default_rng(15).uniform(-2, 2, size=(20, 2))
    with Tape() as tape:
        gumbel_softmax(Tensor(z0, requires_grad=True), np.zeros((20, 2)), 1.0)
        relaxed = len(tape)
    with Tape() as tape:
        straight_through_mask(Tensor(z0, requires_grad=True), 1.0, np.random.default_rng(0))
        assert len(tape) == relaxed + 1
