"""Reference versions of fused or stacked library paths.

The tape references build their result from the elementary autodiff
operations (or ``np.add.at``), the way the library did before those paths
were fused; ``scalar_weighted_procrustes`` is the one-set solve that
``matching.procrustes_stack`` replaced.  Tests require the library versions
to match them bit for bit.
"""

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tensor
from segreg.geometry import RigidTransform


def add_at_rows(index, values, n):
    """``np.add.at`` into zeros: the reference for ``scatter_add_rows``."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def composed_normalize_scores_with_slack(scores, iterations=5, augment_slack=False):
    nr, nc = scores.shape
    row_target = np.ones((nr, 1))
    col_target = np.ones((1, nc))
    if augment_slack:
        row_target[-1, 0] = nc - 1
        col_target[0, -1] = nr - 1
    p = ad.exp(ad.sub(scores, float(np.max(scores.data))))
    for _ in range(iterations):
        csum = ad.sum_(p, axis=0, keepdims=True)
        p = ad.mul(p, ad.expand(ad.div(Tensor(col_target), csum), p.shape))
        rsum = ad.sum_(p, axis=1, keepdims=True)
        p = ad.mul(p, ad.expand(ad.div(Tensor(row_target), rsum), p.shape))
    return p


def composed_norm_act(params, name, y, eps, slope):
    mu = ad.mean_(y, axis=0, keepdims=True)
    centered = ad.sub(y, ad.expand(mu, y.shape))
    var = ad.mean_(ad.mul(centered, centered), axis=0, keepdims=True)
    std = ad.sqrt(ad.add(var, eps))
    normed = ad.div(centered, ad.expand(std, y.shape))
    affine = ad.add(ad.mul(normed, ad.expand(params[f"{name}_gamma"], y.shape)),
                    ad.expand(params[f"{name}_beta"], y.shape))
    return ad.leaky_relu(affine, slope)


def scalar_weighted_procrustes(matches, pre, intra):
    """One weighted Procrustes solve, raising where the stacked solve is invalid."""
    p_all = np.asarray(pre, dtype=np.float64)
    q_all = np.asarray(intra, dtype=np.float64)
    if len(matches) < 3:
        raise ValueError(f"need at least 3 matches, got {len(matches)}")
    w = matches.weights
    total = w.sum()
    if total <= 0:
        raise ValueError("total match weight must be positive")
    p = p_all[matches.pre_indices]
    q = q_all[matches.intra_indices]
    wn = (w / total)[:, None]
    p_bar = (wn * p).sum(axis=0)
    q_bar = (wn * q).sum(axis=0)
    H = (wn * (p - p_bar)).T @ (q - q_bar)
    u, s, vt = np.linalg.svd(H)
    if s[0] <= 0 or s[1] / s[0] < 1e-9:
        raise ValueError(f"rank-deficient match covariance; singular values {s}")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    R = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = q_bar - R @ p_bar
    return RigidTransform(R, t)
