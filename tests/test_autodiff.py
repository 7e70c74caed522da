"""Tensor/tape unit tests.  The finite-difference gradient checks of every
op are rows of ``segreg.gradcheck``; the gradient tests here run those rows
and check the forward against the numpy formula."""

import numpy as np
import pytest

from segreg import autodiff as ad
from segreg.autodiff import (
    RowMap,
    Tape,
    Tensor,
    backward,
    gather_rows,
    scatter_add_rows,
    scatter_mean,
    softmax,
    sum_,
)
from reference_ops import add_at_rows


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


@pytest.mark.parametrize("op, args", [
    (ad.add, ([1e308], [1e308])),
    (ad.mul, ([1e200], [1e200])),
    (ad.div, ([1e200], [1e-200])),
    (ad.div, ([1.0], [0.0])),
    (sum_, ([1e308, 1e308],)),
    (ad.mean_, ([1e308, 1e308, -1e308, -1e308],)),
], ids=["add", "mul", "div", "div_by_zero", "sum", "mean_inf_minus_inf"])
def test_forward_overflow_on_finite_inputs_raises_nonfinite_error(op, args):
    # pytest turns RuntimeWarning into an error here, so numpy must not
    # warn before the finiteness check runs
    with pytest.raises(ad.NonFiniteError):
        op(*(Tensor(a) for a in args))


def test_quiet_enters_nested_and_in_sequence():
    """Each ``quiet()`` is a fresh context: numpy refuses to enter one
    ``np.errstate`` twice, and a training run enters the policy every step."""
    outside = np.geterr()
    big = np.array([1e308])

    @ad.quiet()
    def overflow():
        return big * 10.0

    for _ in range(2):
        with ad.quiet():
            with ad.quiet():
                assert np.isinf(big * 10.0).all()
            assert np.isnan(big * 10.0 - big * 10.0).all()
            assert np.isinf(big / 0.0).all()
        assert np.geterr() == outside
        assert np.isinf(overflow()).all()
    with pytest.raises(RuntimeWarning):
        big * 10.0


def test_softmax_of_a_range_past_the_float_limit_is_finite():
    out = softmax(Tensor([-1e308, 1e308]))
    np.testing.assert_array_equal(out.data, [0.0, 1.0])


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(Tensor([1.0, 0.0]))


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    out = softmax(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 1 - 1e-12 and out[0, 1] < 1e-12


def test_softmax_jacobian_matches_finite_differences(gradcheck_rows_pass):
    x = np.random.default_rng(1).uniform(-2, 2, size=(3, 6))
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert np.array_equal(softmax(Tensor(x)).data, e / e.sum(axis=1, keepdims=True))
    gradcheck_rows_pass("tensor", "softmax")


def test_gather_duplicated_row_accumulates_grad():
    with Tape():
        src = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = gather_rows(src, RowMap([0, 0], 2))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [1.0, 2.0]])
        backward(sum_(out))
    np.testing.assert_array_equal(src.grad, [[2.0, 2.0], [0.0, 0.0]])


def test_gather_rejects_out_of_range():
    with pytest.raises(IndexError):
        RowMap([2], 2)
    with pytest.raises(IndexError):
        RowMap([3], 2)
    with pytest.raises(IndexError):
        RowMap([-1], 2)
    with pytest.raises(ValueError, match="cannot gather"):
        gather_rows(Tensor(np.ones((2, 2))), RowMap([0], 1))


def test_gather_gradient_matches_finite_differences(gradcheck_rows_pass):
    src = np.random.default_rng(2).uniform(-2, 2, size=(5, 3))
    idx = np.array([0, 4, 4, 2, 1])           # row 4 read twice, row 3 never
    assert np.array_equal(gather_rows(Tensor(src), RowMap(idx, 5)).data, src[idx])
    gradcheck_rows_pass("tensor", "gather_rows")


@pytest.mark.parametrize("index,shape,n", [
    (np.array([3, 0, 3, 3, 1, 0]), (6,), 5),          # repeats, 1-D, empty rows
    (np.array([2, 2, 0, 2, 1, 2, 0]), (7, 4), 3),     # repeats, (m, C)
    (np.array([1, 0, 1]), (3, 2, 3), 4),              # trailing dims kept
    (np.empty(0, np.int64), (0,), 4),                 # empty index, 1-D
    (np.empty(0, np.int64), (0, 3), 2),               # empty index, (m, C)
])
def test_scatter_add_rows_equals_add_at(index, shape, n):
    rng = np.random.default_rng(13)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    got = scatter_add_rows(index, values, n)
    assert got.shape == (n,) + shape[1:]
    assert np.array_equal(got, add_at_rows(index, values, n))


def test_scatter_mean_forward_and_gradient(gradcheck_rows_pass):
    src = np.random.default_rng(3).uniform(-2, 2, size=(6, 2))
    group = np.array([0, 0, 1, 3, 3, 3])      # group 2 stays empty and reads 0
    counts = np.maximum(np.bincount(group, minlength=4), 1)[:, None]
    want = add_at_rows(group, src, 4) / counts
    assert np.array_equal(scatter_mean(Tensor(src), RowMap(group, 4)).data, want)
    gradcheck_rows_pass("tensor", "scatter_mean")


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
        backward(sum_(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 1.0])


def test_tape_consumed_after_backward():
    tape = Tape()
    with tape:
        x = Tensor([1.0], requires_grad=True)
        backward(sum_(ad.mul(x, x)))
        assert len(tape) == 0


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2, 2, size=(10, 4))
    r1 = softmax(Tensor(x0)).data
    r2 = softmax(Tensor(x0)).data
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_binary_ops_gradcheck(op, gradcheck_rows_pass):
    rng = np.random.default_rng(6)
    a, b = rng.uniform(-2, 2, size=(3, 4)), rng.uniform(-2, 2, size=(3, 4))
    ref = {"add": np.add, "mul": np.multiply}[op]
    assert np.array_equal(getattr(ad, op)(Tensor(a), Tensor(b)).data, ref(a, b))
    gradcheck_rows_pass("tensor", op)


@pytest.mark.parametrize("op,ref", [
    ("log", lambda x: np.log(x)),
])
def test_unary_ops_gradcheck(op, ref, gradcheck_rows_pass):
    x = np.random.default_rng(7).uniform(-2, 2, size=(3, 4))
    if op == "log":
        x = np.abs(x) + 0.5
    assert np.array_equal(getattr(ad, op)(Tensor(x)).data, ref(x))
    gradcheck_rows_pass("tensor", op)


def test_composite_expression_gradcheck(gradcheck_rows_pass):
    x = np.random.default_rng(11).uniform(0.2, 2, size=(4, 3))
    t = Tensor(x)
    y = ad.mean_(ad.add(ad.mul(ad.log(t), ad.sqrt(t)), ad.neg(ad.mul(t, t))))
    assert y.item() == np.mean(np.log(x) * np.sqrt(x) + -(x * x))
    gradcheck_rows_pass("tensor", "log", "sqrt", "neg", "mul", "add", "mean_")


def test_nonfinite_leaf_rejected():
    with pytest.raises(ValueError):
        Tensor([np.inf, 1.0])


def test_expand_gradients(gradcheck_rows_pass):
    v = np.random.default_rng(12).uniform(-2, 2, size=(1, 4))
    assert np.array_equal(ad.expand(Tensor(v), (5, 4)).data, np.broadcast_to(v, (5, 4)))
    gradcheck_rows_pass("tensor", "expand")


@pytest.mark.parametrize("n_index", [200, 0])
def test_gather_rows_without_shadow_index_equals_add_at(n_index):
    """The backward sums repeated entries' gradients, as ``np.add.at``."""
    rng = np.random.default_rng(15)
    index = rng.integers(0, 8, size=n_index)          # repeats, every entry real
    proj = rng.normal(size=(n_index, 3))
    with Tape():
        src = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        out = gather_rows(src, RowMap(index, 8))
        backward(ad.add(sum_(ad.mul(out, Tensor(proj))), sum_(src)))
    assert out.shape == (n_index, 3) and np.array_equal(out.data, src.data[index])
    assert np.array_equal(src.grad, add_at_rows(index, proj, 8) + 1.0)
