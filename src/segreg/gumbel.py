"""Straight-through Gumbel-Softmax sampling of binary per-point masks.

The forward mask is the hard argmax of noise-perturbed logits (exactly 0/1);
the backward pass routes gradients through the softmax relaxation instead,
via ``hard - stop_gradient(soft) + soft``.  At inference the mask is the
plain argmax of the logits with no noise.
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
    return ad.softmax(shifted * (1.0 / tau), axis=-1)


def straight_through_mask(z: Tensor, tau: float, rng: np.random.Generator
                          ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Sample a hard binary mask whose backward pass uses the relaxation.

    Returns the straight-through mask as an (N, 1) tensor holding the
    class-1 indicator, the hard labels as an int array, and the (N, C)
    Gumbel noise that was added to the logits.
    """
    n = z.data.shape[0]
    g = sample_gumbel(n, z.data.shape[1], rng)
    soft = gumbel_softmax(z, g, tau)
    hard = np.argmax(z.data + g, axis=1)
    soft_one = ad.narrow(soft, 1, 1, 2)
    hard_one = Tensor(hard.astype(np.float64).reshape(n, 1))
    mask = ad.add(ad.sub(hard_one, ad.stop_gradient(soft_one)), soft_one)
    return mask, hard, g


def hard_mask(z: Tensor | np.ndarray) -> np.ndarray:
    """Deterministic inference mask: argmax of the logits, no noise."""
    data = z.data if isinstance(z, Tensor) else np.asarray(z)
    return np.argmax(data, axis=1)

