"""Tensor/tape unit tests, including the finite-difference gradient checks."""

import numpy as np
import pytest

from segreg import autodiff as ad
from segreg.autodiff import (
    Tape,
    Tensor,
    backward,
    finite_difference_gradient,
    gather_rows,
    matmul,
    max_relative_error,
    mean_,
    scatter_mean,
    softmax,
    stop_gradient,
    sum_,
)


def test_add_basic():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [4.0, 6.0])


def test_mul_by_zero_annihilates_value_and_grad():
    with Tape():
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        out = ad.mul(x, Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros(3))
        backward(sum_(out))
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_exp_zero_forward_and_backward_seed():
    with Tape():
        x = Tensor([0.0], requires_grad=True)
        y = ad.exp(x)
        np.testing.assert_allclose(y.data, [1.0])
        backward(sum_(y))
    np.testing.assert_allclose(x.grad, [1.0])


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(Tensor([1.0, 0.0]))


def test_matmul_identity_and_arithmetic():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    np.testing.assert_array_equal(matmul(Tensor(np.eye(3)), m).data, m.data)
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.uniform(-2, 2, size=(4, 5))
    b0 = rng.uniform(-2, 2, size=(5, 3))
    w = rng.uniform(-1, 1, size=(4, 3))  # fixed projection to a scalar

    def f(arrays):
        return float(np.sum((arrays[0] @ arrays[1]) * w))

    fd = finite_difference_gradient(f, [a0, b0])
    with Tape():
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        backward(sum_(matmul(a, b) * Tensor(w)))
    assert max_relative_error(a.grad, fd[0]) < 1e-6
    assert max_relative_error(b.grad, fd[1]) < 1e-6


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    out = softmax(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 1 - 1e-12 and out[0, 1] < 1e-12


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-2, 2, size=(1, 6))
    w = rng.uniform(-1, 1, size=(1, 6))

    def f(arrays):
        e = np.exp(arrays[0] - arrays[0].max())
        return float(np.sum(e / e.sum() * w))

    fd = finite_difference_gradient(f, [x0])
    with Tape():
        x = Tensor(x0, requires_grad=True)
        backward(sum_(softmax(x) * Tensor(w)))
    assert max_relative_error(x.grad, fd[0]) < 1e-6


def test_gather_duplicated_row_accumulates_grad():
    with Tape():
        src = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = gather_rows(src, np.array([0, 0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [1.0, 2.0]])
        backward(sum_(out))
    np.testing.assert_array_equal(src.grad, [[2.0, 2.0], [0.0, 0.0]])


def test_gather_shadow_row_is_zero_with_zero_grad():
    with Tape():
        src = Tensor([[1.0, 2.0]], requires_grad=True)
        out = gather_rows(src, np.array([1]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])
        backward(sum_(out))
    np.testing.assert_array_equal(src.grad, [[0.0, 0.0]])


def test_gather_rejects_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((2, 2))), np.array([3]))


def test_gather_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    src0 = rng.uniform(-2, 2, size=(5, 3))
    idx = np.array([0, 4, 4, 2, 5, 1])
    w = rng.uniform(-1, 1, size=(6, 3))

    def f(arrays):
        padded = np.vstack([arrays[0], np.zeros((1, 3))])
        return float(np.sum(padded[idx] * w))

    fd = finite_difference_gradient(f, [src0])
    with Tape():
        src = Tensor(src0, requires_grad=True)
        backward(sum_(gather_rows(src, idx) * Tensor(w)))
    assert max_relative_error(src.grad, fd[0]) < 1e-6


def test_scatter_mean_forward_and_gradient():
    rng = np.random.default_rng(3)
    src0 = rng.uniform(-2, 2, size=(6, 2))
    group = np.array([0, 0, 1, 2, 2, 2])
    w = rng.uniform(-1, 1, size=(3, 2))

    def f(arrays):
        acc = np.zeros((3, 2))
        np.add.at(acc, group, arrays[0])
        return float(np.sum(acc / np.bincount(group)[:, None] * w))

    fd = finite_difference_gradient(f, [src0])
    with Tape():
        src = Tensor(src0, requires_grad=True)
        backward(sum_(scatter_mean(src, group, 3) * Tensor(w)))
    assert max_relative_error(src.grad, fd[0]) < 1e-6


def test_stop_gradient_forward_identity():
    x = Tensor(np.random.default_rng(4).uniform(-2, 2, size=(3, 3)))
    assert np.max(np.abs(stop_gradient(x).data - x.data)) == 0.0


def test_stop_gradient_blocks_backward():
    with Tape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_(stop_gradient(x)))
    assert x.grad is None  # no gradient path at all


def test_stop_gradient_straight_through_structure():
    # hard - sg(soft) + soft with hard itself detached: only the bare path counts.
    with Tape():
        x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        y = stop_gradient(x) - stop_gradient(x) + x
        np.testing.assert_array_equal(y.data, x.data)
        backward(sum_(y))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_rejects_non_scalar():
    with Tape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(x)


def test_backward_sum_and_square():
    with Tape():
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        backward(sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones(3))
    with Tape():
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        backward(sum_(x * x))
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 1.0])


def test_tape_consumed_after_backward():
    tape = Tape()
    with tape:
        x = Tensor([1.0], requires_grad=True)
        backward(sum_(x * x))
        assert len(tape) == 0


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2, 2, size=(10, 4))
    r1 = softmax(Tensor(x0)).data
    r2 = softmax(Tensor(x0)).data
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_binary_ops_gradcheck(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a0 = rng.uniform(-2, 2, size=(3, 4))
    b0 = rng.uniform(-2, 2, size=(3, 4))
    ref = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op]
    w = rng.uniform(-1, 1, size=(3, 4))

    def f(arrays):
        return float(np.sum(ref(arrays[0], arrays[1]) * w))

    fd = finite_difference_gradient(f, [a0, b0])
    with Tape():
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        backward(sum_(getattr(ad, op)(a, b) * Tensor(w)))
    assert max_relative_error(a.grad, fd[0]) < 1e-5
    assert max_relative_error(b.grad, fd[1]) < 1e-5


@pytest.mark.parametrize("op,ref", [
    ("exp", np.exp),
    ("log", lambda x: np.log(x)),
    ("relu", lambda x: np.maximum(x, 0.0)),
])
def test_unary_ops_gradcheck(op, ref):
    rng = np.random.default_rng(hash(op) % 2**32)
    x0 = rng.uniform(0.5, 2, size=(3, 4)) if op == "log" else rng.uniform(-2, 2, size=(3, 4))
    if op == "relu":
        x0[np.abs(x0) < 1e-3] = 0.5  # keep clear of the kink
    w = rng.uniform(-1, 1, size=(3, 4))

    def f(arrays):
        return float(np.sum(ref(arrays[0]) * w))

    fd = finite_difference_gradient(f, [x0])
    with Tape():
        x = Tensor(x0, requires_grad=True)
        backward(sum_(getattr(ad, op)(x) * Tensor(w)))
    assert max_relative_error(x.grad, fd[0]) < 1e-5


def test_composite_expression_gradcheck():
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0.2, 2, size=(4, 3))

    def f(arrays):
        x = arrays[0]
        return float(np.mean(np.log(x) * np.exp(-x) + x * x))

    fd = finite_difference_gradient(f, [x0])
    with Tape():
        x = Tensor(x0, requires_grad=True)
        y = mean_(ad.log(x) * ad.exp(ad.neg(x)) + x * x)
        backward(y)
    assert max_relative_error(x.grad, fd[0]) < 1e-5


def test_nonfinite_leaf_rejected():
    with pytest.raises(ValueError):
        Tensor([np.inf, 1.0])


def test_expand_and_narrow_gradients():
    rng = np.random.default_rng(12)
    v0 = rng.uniform(-2, 2, size=(1, 4))
    w = rng.uniform(-1, 1, size=(5, 2))

    def f(arrays):
        tiled = np.broadcast_to(arrays[0], (5, 4))
        return float(np.sum(tiled[:, 1:3] * w))

    fd = finite_difference_gradient(f, [v0])
    with Tape():
        v = Tensor(v0, requires_grad=True)
        y = ad.narrow(ad.expand(v, (5, 4)), 1, 1, 3)
        backward(sum_(y * Tensor(w)))
    assert max_relative_error(v.grad, fd[0]) < 1e-6
