"""Straight-through Gumbel-Softmax sampling of binary per-point masks.

The forward mask is the hard argmax of noise-perturbed logits (exactly 0/1);
the backward pass routes gradients through the softmax relaxation instead:
one tape node hands the mask's gradient to the relaxation's class-1 column.
At inference the mask is the plain argmax of the logits with no noise.
"""

from __future__ import annotations

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor

__all__ = [
    "sample_gumbel",
    "gumbel_softmax",
    "straight_through_mask",
    "hard_mask",
]

_U_CLIP = 1e-12


def sample_gumbel(n: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel(0,1) noise via -log(-log(u)), u clamped off {0,1}."""
    u = rng.uniform(0.0, 1.0, size=(n, c))
    u = np.clip(u, _U_CLIP, 1.0 - _U_CLIP)
    return -np.log(-np.log(u))


def gumbel_softmax(z: Tensor, g: np.ndarray, tau: float) -> Tensor:
    """Softmax of (z + g) / tau along the class axis; differentiable in z."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    shifted = ad.add(z, Tensor(np.asarray(g, dtype=np.float64)))
    return ad.softmax(ad.mul(shifted, 1.0 / tau), axis=-1)


def straight_through_mask(z: Tensor, tau: float, rng: np.random.Generator
                          ) -> tuple[Tensor, np.ndarray]:
    """Sample a hard binary mask whose backward pass uses the relaxation.

    Returns the straight-through mask as an (N, 1) tensor holding the
    class-1 indicator of ``argmax(z + noise)``, and the (N, C) Gumbel noise
    that was added to the logits.
    """
    n = z.data.shape[0]
    g = sample_gumbel(n, z.data.shape[1], rng)
    soft = gumbel_softmax(z, g, tau)
    hard = np.argmax(z.data + g, axis=1)

    def bwd(grad):
        full = np.zeros_like(soft.data)
        full[:, 1:2] = grad
        ad.accumulate_grad(soft, full)

    mask = ad.record_custom(hard.astype(np.float64).reshape(n, 1), soft.requires_grad, bwd)
    return mask, g


def hard_mask(z: Tensor) -> np.ndarray:
    """Deterministic inference mask: argmax of the logits, no noise."""
    return np.argmax(z.data, axis=1)

