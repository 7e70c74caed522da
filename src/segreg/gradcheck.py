"""Finite-difference verification of every differentiable operator.

Each check runs one operator (or a composed network/loss) forward through a
fixed random projection to a scalar, computes the tape gradient, and compares
it against central finite differences.  The checks back the ``gradcheck`` CLI
command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import (
    Tape,
    Tensor,
    backward,
    finite_difference_gradient,
    max_relative_error,
    sum_,
)
from segreg.geometry import PointCloud, radius_neighbors
from segreg.gumbel import gumbel_softmax, sample_gumbel, straight_through_mask
from segreg.kpconv import SIGMA_RATIO, conv_influence, kernel_disposition, kpconv_apply
from segreg.matching import (
    coarse_loss,
    fine_loss,
    l2_normalize_rows,
    normalize_scores_with_slack,
)
from segreg.networks import SegNetConfig, build_context, init_seg_params, seg_forward

__all__ = ["CheckResult", "run_checks", "COMPONENTS"]

COMPONENTS = ("tensor", "stgs", "kpconv", "network", "matcher")


@dataclass
class CheckResult:
    component: str
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _surface(rng, n, colors=False):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    pos *= rng.uniform(0.7, 1.0, size=(n, 1))
    return PointCloud(pos, colors=rng.uniform(0, 1, (n, 3)) if colors else None)


def _fd_check(f, arrays, tape_fn, tol):
    fd = finite_difference_gradient(f, arrays)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        backward(tape_fn(tensors))
    err = max(max_relative_error(t.grad if t.grad is not None else np.zeros_like(t.data), g)
              for t, g in zip(tensors, fd))
    return err


# ---------------------------------------------------------------------------
# component checks
# ---------------------------------------------------------------------------

def _tensor_checks(seed):
    rng = np.random.default_rng(seed)
    results = []

    for op, ref in ((ad.add, np.add), (ad.sub, np.subtract), (ad.mul, np.multiply)):
        a = rng.uniform(-2, 2, (4, 5))
        b = rng.uniform(-2, 2, (4, 5))
        w = rng.uniform(-1, 1, (4, 5))
        err = _fd_check(
            lambda arrs, ref=ref: float(np.sum(ref(arrs[0], arrs[1]) * w)),
            [a, b],
            lambda ts, op=op: sum_(op(ts[0], ts[1]) * Tensor(w)),
            1e-5)
        results.append(CheckResult("tensor", op.__name__, err, 1e-5))

    for op, ref, lo in ((ad.exp, np.exp, -2.0), (ad.log, np.log, 0.3),
                        (ad.relu, lambda x: np.maximum(x, 0), -2.0)):
        x = rng.uniform(lo, 2, (4, 5))
        if op is ad.relu:
            x[np.abs(x) < 1e-3] = 0.7
        w = rng.uniform(-1, 1, (4, 5))
        err = _fd_check(
            lambda arrs, ref=ref: float(np.sum(ref(arrs[0]) * w)),
            [x],
            lambda ts, op=op: sum_(op(ts[0]) * Tensor(w)),
            1e-5)
        results.append(CheckResult("tensor", op.__name__, err, 1e-5))

    a = rng.uniform(-2, 2, (4, 5))
    b = rng.uniform(-2, 2, (5, 3))
    w = rng.uniform(-1, 1, (4, 3))
    err = _fd_check(lambda arrs: float(np.sum(arrs[0] @ arrs[1] * w)), [a, b],
                    lambda ts: sum_(ad.matmul(ts[0], ts[1]) * Tensor(w)), 1e-5)
    results.append(CheckResult("tensor", "matmul", err, 1e-5))

    x = rng.uniform(-2, 2, (3, 6))
    w = rng.uniform(-1, 1, (3, 6))

    def soft_ref(arrs):
        e = np.exp(arrs[0] - arrs[0].max(axis=1, keepdims=True))
        return float(np.sum(e / e.sum(axis=1, keepdims=True) * w))

    err = _fd_check(soft_ref, [x], lambda ts: sum_(ad.softmax(ts[0]) * Tensor(w)), 1e-5)
    results.append(CheckResult("tensor", "softmax", err, 1e-5))

    src = rng.uniform(-2, 2, (6, 3))
    idx = np.array([0, 5, 5, 2, 6, 1, 4])
    w = rng.uniform(-1, 1, (7, 3))

    def gather_ref(arrs):
        padded = np.vstack([arrs[0], np.zeros((1, 3))])
        return float(np.sum(padded[idx] * w))

    err = _fd_check(gather_ref, [src],
                    lambda ts: sum_(ad.gather_rows(ts[0], idx) * Tensor(w)), 1e-5)
    results.append(CheckResult("tensor", "gather_rows", err, 1e-5))
    return results


def _stgs_checks(seed):
    rng = np.random.default_rng(seed)
    results = []
    z0 = rng.uniform(-2, 2, (5, 2))
    g = sample_gumbel(5, 2, rng)
    w = rng.uniform(-1, 1, (5, 2))

    def ref(arrs):
        y = arrs[0] + g
        e = np.exp(y - y.max(axis=1, keepdims=True))
        return float(np.sum(e / e.sum(axis=1, keepdims=True) * w))

    err = _fd_check(ref, [z0],
                    lambda ts: sum_(gumbel_softmax(ts[0], g, 1.0) * Tensor(w)), 1e-6)
    results.append(CheckResult("stgs", "gumbel_softmax_jacobian", err, 1e-6))

    # straight-through identity: mask gradient equals the relaxed gradient
    z1 = rng.uniform(-2, 2, (40, 2))
    noise_rng = np.random.default_rng(seed + 1)
    with Tape():
        t = Tensor(z1, requires_grad=True)
        mask, _, noise = straight_through_mask(t, 1.0, noise_rng)
        binary = float(np.max(np.abs(mask.data * (1 - mask.data))))
        backward(sum_(mask))
    ste_grad = t.grad.copy()
    with Tape():
        t2 = Tensor(z1, requires_grad=True)
        soft = gumbel_softmax(t2, noise, 1.0)
        backward(sum_(ad.narrow(soft, 1, 1, 2)))
    err = float(np.max(np.abs(ste_grad - t2.grad)))
    results.append(CheckResult("stgs", "straight_through_identity", err, 1e-12))
    results.append(CheckResult("stgs", "forward_discreteness", binary, 1e-15))
    return results


def _kpconv_checks(seed):
    rng = np.random.default_rng(seed)
    cloud = _surface(rng, 30)
    nbr = radius_neighbors(cloud, cloud, 0.6, 8)
    kern = kernel_disposition(6, seed).scaled(0.6)
    infl = conv_influence(cloud.positions, cloud.positions, nbr, kern,
                          0.6 / SIGMA_RATIO)
    f0 = rng.uniform(-2, 2, (30, 3))
    w0 = rng.uniform(-2, 2, (6, 3, 4))
    proj = rng.uniform(-1, 1, (30, 4))

    def ref(arrs):
        feats, weights = arrs
        valid = nbr < 30
        safe = np.where(valid, nbr, 0)
        gathered = feats[safe] * valid[:, :, None]
        mixed = np.matmul(infl.astype(np.float64), gathered)
        return float(np.sum(mixed.reshape(30, -1) @ weights.reshape(-1, 4) * proj))

    err = _fd_check(ref, [f0, w0],
                    lambda ts: sum_(kpconv_apply(infl, nbr, 30, ts[0], ts[1]) * Tensor(proj)),
                    1e-5)
    return [CheckResult("kpconv", "conv_feats_and_weights", err, 1e-5)]


_TOY_SEG = SegNetConfig(widths=(2, 2, 2, 2, 2), width_factor=1.0,
                        initial_voxel=0.12, max_neighbors=8)


def _network_checks(seed):
    rng = np.random.default_rng(seed)
    cloud = _surface(rng, 50, colors=True)
    ctx = build_context(cloud, _TOY_SEG)
    params = init_seg_params(_TOY_SEG, rng)
    names = sorted(params)
    proj = rng.uniform(-1, 1, (50, 2))

    def ref(arrays):
        trial = {n: Tensor(a) for n, a in zip(names, arrays)}
        return float(np.sum(seg_forward(trial, ctx, _TOY_SEG).data * proj))

    arrays = [params[n].data.copy() for n in names]
    fd = finite_difference_gradient(ref, arrays)
    with Tape():
        backward(sum_(seg_forward(params, ctx, _TOY_SEG) * Tensor(proj)))
    err = max(max_relative_error(params[n].grad, g) for n, g in zip(names, fd))
    return [CheckResult("network", "seg_forward_all_params", err, 1e-4)]


def _matcher_checks(seed):
    rng = np.random.default_rng(seed)
    results = []

    raw = rng.normal(size=(6, 4))
    overlap = np.zeros((6, 6))
    overlap[np.arange(6), np.arange(6)] = rng.uniform(0.3, 1.0, 6)

    def circle_ref(arrs):
        x = arrs[0] / np.linalg.norm(arrs[0], axis=1, keepdims=True)
        return coarse_loss(Tensor(x), Tensor(x.copy()), overlap).item()

    fd = finite_difference_gradient(circle_ref, [raw])
    with Tape():
        t = Tensor(raw, requires_grad=True)
        nf = l2_normalize_rows(t)
        backward(coarse_loss(nf, nf, overlap))
    err = max_relative_error(t.grad, fd[0])
    results.append(CheckResult("matcher", "coarse_circle_loss", err, 1e-4))

    s0 = rng.normal(size=(5, 6))
    gt = (np.array([0, 2]), np.array([1, 3]))

    def fine_ref(arrs):
        return fine_loss([normalize_scores_with_slack(Tensor(arrs[0]))], [gt]).item()

    fd = finite_difference_gradient(fine_ref, [s0])
    with Tape():
        s = Tensor(s0, requires_grad=True)
        backward(fine_loss([normalize_scores_with_slack(s)], [gt]))
    err = max_relative_error(s.grad, fd[0])
    results.append(CheckResult("matcher", "fine_nll_loss", err, 1e-4))
    return results


_CHECKS = {
    "tensor": _tensor_checks,
    "stgs": _stgs_checks,
    "kpconv": _kpconv_checks,
    "network": _network_checks,
    "matcher": _matcher_checks,
}


def run_checks(component: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the finite-difference oracles; optionally only one component."""
    if component is not None and component not in _CHECKS:
        raise ValueError(f"unknown component {component!r}; "
                         f"choose from {', '.join(COMPONENTS)}")
    selected = [component] if component else list(COMPONENTS)
    results = []
    for comp in selected:
        results.extend(_CHECKS[comp](seed))
    return results
