"""Finite-difference verification of every differentiable operator.

One table holds every check.  A row names its component, its tolerance,
its input arrays and a function of their tensors; there is one row per
tape op of ``autodiff`` and one per fused node or composite of the model.
One harness projects a row's output onto fixed random weights, takes the
tape gradient of that scalar, and compares it by ``max_relative_error``
with central finite differences of the same function run off the tape
(``finite_difference_gradient``, which only calls it on perturbed copies of
its inputs).  The straight-through mask adds two exact checks: its
gradient is the relaxation's, and its forward is binary: 24 checks in all.
A component's inputs come from ``default_rng([seed, component index])``; a
component with more than one group of rows draws group k > 0 from
``default_rng([seed, component index, k])``, so a group added later leaves
the earlier groups' draws as they were.  The checks back the ``gradcheck``
CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segreg import autodiff as ad
from segreg.autodiff import Tape, Tensor, backward, sum_
from segreg.geometry import PointCloud, radius_neighbors
from segreg.gumbel import gumbel_softmax, sample_gumbel, straight_through_mask
from segreg.kpconv import (
    SIGMA_RATIO,
    conv_influence,
    kernel_disposition,
    kpconv_apply,
    neighbor_offsets,
)
from segreg.matching import (
    PatchedSuperpoints,
    coarse_loss,
    coarse_targets,
    fine_loss,
    l2_normalize_rows,
    normalize_scores_with_slack,
    patch_scores,
)
from segreg.networks import (
    RegNetConfig,
    SegNetConfig,
    build_context,
    init_weights,
    reg_backbone_forward,
    seg_forward,
)

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


FD_STEP = 1e-5  # central-difference step of finite_difference_gradient


def finite_difference_gradient(f, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Central finite differences (step ``FD_STEP``) of scalar ``f(arrays)``
    w.r.t. every entry."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.reshape(-1)
        base = [x.copy() for x in arrays]
        for i in range(a.size):
            plus = [x.copy() for x in base]
            minus = [x.copy() for x in base]
            plus[k].reshape(-1)[i] += FD_STEP
            minus[k].reshape(-1)[i] -= FD_STEP
            flat[i] = (f(plus) - f(minus)) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|), the gradcheck metric."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _fd_error(rng, arrays, fn) -> float:
    """Largest relative error between the tape gradient of
    ``sum(fn(tensors) * w)``, ``w`` fixed random weights, and its central
    finite differences with ``fn`` run off the tape."""
    w = rng.uniform(-1, 1, fn([Tensor(a) for a in arrays]).shape)
    fd = finite_difference_gradient(
        lambda arrs: float(np.sum(fn([Tensor(a) for a in arrs]).data * w)), arrays)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        backward(sum_(ad.mul(fn(tensors), w)))
    return max(max_relative_error(np.zeros_like(t.data) if t.grad is None else t.grad, g)
               for t, g in zip(tensors, fd))


# ---------------------------------------------------------------------------
# the table: rows (name, tolerance, input arrays, function of their tensors).
# Each tolerance is 7.1-32.3x the largest error its row reached over seeds
# 0-29, except reg_pair_all_params, which fails at seed 22 (reg_enc2_w).
# ---------------------------------------------------------------------------

def _tensor_rows(rng):
    def u(*shape, lo=-2.0):
        return rng.uniform(lo, 2.0, shape)

    index = ad.RowMap([0, 5, 5, 2, 1, 4], 6)      # row 3 stays unread
    group = ad.RowMap([0, 0, 1, 3, 3, 3, 1], 4)   # group 2 stays empty
    return [
        ("add", 1e-9, [u(4, 5), u(4, 5)], lambda t: ad.add(*t)),
        ("mul", 1e-9, [u(4, 5), u(4, 5)], lambda t: ad.mul(*t)),
        ("div", 5e-9, [u(4, 5), u(4, 5, lo=0.5)], lambda t: ad.div(*t)),
        ("neg", 1e-9, [u(4, 5)], lambda t: ad.neg(t[0])),
        ("log", 5e-9, [u(4, 5, lo=0.3)], lambda t: ad.log(t[0])),
        ("sqrt", 2e-9, [u(4, 5, lo=0.3)], lambda t: ad.sqrt(t[0])),
        ("softmax", 5e-10, [u(3, 6)], lambda t: ad.softmax(t[0])),
        ("sum_", 1e-9, [u(4, 5)], lambda t: ad.sum_(t[0], axis=1)),
        ("mean_", 5e-10, [u(4, 5)], lambda t: ad.mean_(t[0], axis=0, keepdims=True)),
        ("expand", 2e-9, [u(1, 4)], lambda t: ad.expand(t[0], (5, 4))),
        ("reshape", 1e-9, [u(4, 5)], lambda t: ad.reshape(t[0], (2, 10))),
        ("concat", 2e-9, [u(4, 2), u(4, 3)], lambda t: ad.concat(t)),
        ("gather_rows", 1e-9, [u(6, 3)], lambda t: ad.gather_rows(t[0], index)),
        ("scatter_mean", 5e-10, [u(7, 2)], lambda t: ad.scatter_mean(t[0], group)),
    ]


def _stgs_rows(rng):
    g = sample_gumbel(5, 2, rng)
    return [("gumbel_softmax_jacobian", 5e-10, [rng.uniform(-2, 2, (5, 2))],
             lambda t: gumbel_softmax(t[0], g, 1.0))]


def _surface(rng, n, colors=False):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    pos *= rng.uniform(0.7, 1.0, size=(n, 1))
    return PointCloud(pos, colors=rng.uniform(0, 1, (n, 3)) if colors else None)


def _kpconv_rows(rng):
    cloud = _surface(rng, 30)
    nbr = radius_neighbors(cloud, 0.6, 8)
    k = SegNetConfig.kernel_size
    infl = conv_influence(neighbor_offsets(cloud.positions, nbr), nbr,
                          kernel_disposition(k, SegNetConfig.kernel_seed) * 0.6,
                          0.6 / SIGMA_RATIO)
    return [("conv_feats_and_weights", 1e-8,
             [rng.uniform(-2, 2, (30, 3)), rng.uniform(-2, 2, (k, 3, 4))],
             lambda t: kpconv_apply(infl, *t))]


# both networks at two channels a layer, on a pyramid coarse enough for 30-50 points
class _ToySeg(SegNetConfig):
    widths = (2, 2, 2, 2, 2)
    initial_voxel = 0.12
    max_neighbors = 8


class _ToyReg(RegNetConfig):
    widths = (2, 2, 2)
    initial_voxel = 0.12
    max_neighbors = 8


_TOY_SEG, _TOY_REG = _ToySeg(width_factor=1.0), _ToyReg(width_factor=1.0)


def _seg_rows(rng):
    """Every parameter of the segmentation net, through its fused norm and
    head nodes."""
    ctx = build_context(_surface(rng, 50, colors=True), _TOY_SEG)
    params = init_weights(_TOY_SEG, rng)
    names = sorted(params)
    return [("seg_forward_all_params", 5e-6, [params[n].data for n in names],
             lambda t: seg_forward(dict(zip(names, t)), ctx))]


def _reg_pair_rows(rng):
    """Two clouds through one registration parameter set, as
    ``pipeline._pair_forward`` runs them, so each node's gradients add into
    shared weights; the second cloud's held point features are an input too."""
    ctxs = [build_context(_surface(rng, 40), _TOY_REG),
            build_context(_surface(rng, 30), _TOY_REG)]
    params = init_weights(_TOY_REG, rng)
    names = sorted(params)

    def reg_pair(t):
        shared = dict(zip(names, t))
        outs = [*reg_backbone_forward(shared, ctxs[0]),
                *reg_backbone_forward(shared, ctxs[1].holding(t[-1]))]
        return ad.concat([ad.reshape(o, (1, o.size)) for o in outs])

    return [("reg_pair_all_params", 1e-5,
             [params[n].data for n in names] + [rng.uniform(0, 1, (30, 1))], reg_pair)]


def _matcher_rows(rng):
    overlap = np.zeros((6, 6))
    overlap[np.arange(6), np.arange(6)] = rng.uniform(0.3, 1.0, 6)
    overlap[0, 1] = 0.05                      # the ignored band
    targets = coarse_targets(overlap)
    # patch 1 has 2 shadow slots; pair (0, 1) repeats, so gradients of one
    # dense row add up across pairs
    view = PatchedSuperpoints(np.zeros((2, 3)), np.array([[0, 1, 2, 3], [4, 5, 6, 6]]),
                              np.array([4, 2]), np.zeros((6, 3)))
    pairs = np.array([[0, 1], [1, 0], [0, 1]])
    # a stack of two 5-slot pairs with pad rows and columns
    n_rows, n_cols = np.array([5, 3]), np.array([4, 5])
    gt_cols = np.array([[1, -1, 3, -1, -1], [0, 4, -1, -1, -1]])
    return [
        ("coarse_circle_loss", 5e-9, [rng.normal(size=(6, 4)), rng.normal(size=(6, 4))],
         lambda t: coarse_loss(l2_normalize_rows(t[0]), l2_normalize_rows(t[1]), targets)),
        ("patch_scores", 1e-9, [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))],
         lambda t: patch_scores(t[0], t[1], view, view, pairs)),
        ("normalize_scores_with_slack", 1e-9, [rng.normal(size=(2, 6, 6))],
         lambda t: normalize_scores_with_slack(t[0], n_rows, n_cols)),
        ("fine_nll_loss", 1e-9, [rng.normal(size=(2, 6, 6))],
         lambda t: fine_loss(normalize_scores_with_slack(t[0], n_rows, n_cols),
                             gt_cols, n_rows, n_cols)),
    ]


# each component's row groups; group k > 0 draws from its own generator
_ROWS = {
    "tensor": (_tensor_rows,),
    "stgs": (_stgs_rows,),
    "kpconv": (_kpconv_rows,),
    "network": (_seg_rows, _reg_pair_rows),
    "matcher": (_matcher_rows,),
}


def _straight_through_checks(rng) -> list[CheckResult]:
    """The mask's gradient equals the relaxation's class-1 gradient exactly,
    and its forward is exactly binary."""
    z = rng.uniform(-2, 2, (40, 2))
    with Tape():
        t = Tensor(z, requires_grad=True)
        mask, noise = straight_through_mask(t, 1.0, rng)
        binary = float(np.max(np.abs(mask.data * (1 - mask.data))))
        backward(sum_(mask))
    with Tape():
        t2 = Tensor(z, requires_grad=True)
        backward(sum_(ad.mul(gumbel_softmax(t2, noise, 1.0), np.tile([0.0, 1.0], (40, 1)))))
    return [CheckResult("stgs", "straight_through_identity",
                        float(np.max(np.abs(t.grad - t2.grad))), 1e-12),
            CheckResult("stgs", "forward_discreteness", binary, 1e-15)]


def run_checks(component: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the finite-difference oracles; optionally only one component."""
    if component is not None and component not in _ROWS:
        raise ValueError(f"unknown component {component!r}; "
                         f"choose from {', '.join(COMPONENTS)}")
    results = []
    for comp in [component] if component else COMPONENTS:
        for group, rows in enumerate(_ROWS[comp]):
            rng = np.random.default_rng([seed, COMPONENTS.index(comp)] + [group] * (group > 0))
            results += [CheckResult(comp, name, _fd_error(rng, arrays, fn), tol)
                        for name, tol, arrays, fn in rows(rng)]
        if comp == "stgs":
            results += _straight_through_checks(rng)
    return results
