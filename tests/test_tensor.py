"""Tensor core: elementwise ops, matmul, reductions, the tape, and the
finite-difference oracle."""

import numpy as np
import pytest

import secnn.tensor as tc
from secnn.tensor import (
    GradTape,
    NumericError,
    Rng,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# --------------------------------------------------------------------------
# Elementwise

def test_sigmoid_at_zero():
    assert tc.sigmoid(Tensor([0.0])).tolist() == [0.5]


def test_relu_definition():
    assert tc.relu(Tensor([-1.0, 2.0])).tolist() == [0.0, 2.0]


def test_mul_elementwise():
    assert tc.mul(Tensor([5.0, 1.0]), Tensor([2.0, 3.0])).tolist() == [10.0, 3.0]


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        tc.mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    assert "(2,)" in str(exc.value) and "(3,)" in str(exc.value)
    with pytest.raises(ShapeError):  # no scalar broadcasting
        tc.mul(Tensor([1.0, 2.0]), Tensor(2.0))


def test_sigmoid_extreme_inputs_stay_finite():
    out = tc.sigmoid(Tensor([-1000.0, 1000.0]))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_nan_rejected():
    with pytest.raises(NumericError):
        Tensor([float("nan")])
    with pytest.raises(NumericError):
        Tensor([float("inf")])


# --------------------------------------------------------------------------
# Matmul

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert tc.matmul(eye, m).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matmul_dot_product():
    assert tc.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])).tolist() == [[11.0]]


def test_matmul_matches_triple_loop_oracle():
    rng = Rng(9)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = tc.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        tc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_associativity():
    for seed in range(5):
        rng = Rng(seed)
        a = Tensor(rng.uniform(-1, 1, (3, 4)))
        b = Tensor(rng.uniform(-1, 1, (4, 5)))
        c = Tensor(rng.uniform(-1, 1, (5, 2)))
        left = tc.matmul(tc.matmul(a, b), c).data
        right = tc.matmul(a, tc.matmul(b, c)).data
        assert np.max(np.abs(left - right)) < 1e-9


# --------------------------------------------------------------------------
# Reductions

def test_mean_all_axes():
    out = tc.reduce("mean", Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert out.item() == 2.5


def test_sum_axis0():
    out = tc.reduce("sum", Tensor([[1.0, 2.0], [3.0, 4.0]]), axes=0)
    assert out.tolist() == [4.0, 6.0]


def test_mean_of_constant_is_exact():
    for value in (0.3, -7.25, 1e-3):
        t = Tensor(np.full((5, 7), value))
        assert tc.reduce("mean", t).item() == value


def test_reduce_axis_errors():
    t = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        tc.reduce("sum", t, axes=())
    with pytest.raises(ShapeError):
        tc.reduce("sum", t, axes=5)
    with pytest.raises(ShapeError):
        tc.reduce("sum", t, axes=(0, 0))
    with pytest.raises(ValueError, match="unknown reduce op"):
        tc.reduce("max", t)


# --------------------------------------------------------------------------
# Backward

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", x)
    grads = backward(loss, tape)
    assert np.array_equal(grads[x].data, np.ones((2, 3)))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", tc.mul(x, x))
    grads = backward(loss, tape)
    assert grads[x].tolist() == [6.0]


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = tc.mul(x, x)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_tape_is_single_use():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", tc.mul(x, x))
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_gradients_accumulate_across_consumers():
    x = Tensor([2.0], requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", tc.mul(x, x))
    grads = backward(loss, tape)
    assert grads[x].tolist() == [4.0]


def test_tensor_outside_ancestry_gets_no_gradient():
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", tc.mul(x, x))
    grads = backward(loss, tape)
    assert unused not in grads


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_matches_finite_differences(seed):
    rng = Rng(seed)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

    def graph(at, wt, bt):
        return tc.reduce("sum", tc.mul(tc.sigmoid(tc.matmul(at, wt)), tc.relu(bt)))

    with GradTape() as tape:
        loss = graph(a, w, b)
    grads = backward(loss, tape)

    for t, f in (
        (a, lambda x: graph(x, w, b).item()),
        (w, lambda x: graph(a, x, b).item()),
        (b, lambda x: graph(a, w, x).item()),
    ):
        fd = finite_diff_grad(f, t, h=1e-5)
        assert rel_err(grads[t].data, fd.data) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_every_op_matches_finite_differences(seed):
    rng = Rng(seed + 100)
    x = Tensor(rng.uniform(-1.5, 1.5, (2, 3)), requires_grad=True)
    cases = {
        "mul": lambda t: tc.reduce("sum", tc.mul(t, t)),
        "relu": lambda t: tc.reduce("sum", tc.mul(tc.relu(t), tc.relu(t))),
        "sigmoid": lambda t: tc.reduce("sum", tc.sigmoid(t)),
        "mean": lambda t: tc.reduce("mean", t),
        "transpose": lambda t: tc.reduce("sum", tc.sigmoid(tc.transpose(t))),
        "reshape": lambda t: tc.reduce("sum", tc.sigmoid(tc.reshape(t, (3, 2)))),
    }
    for name, f in cases.items():
        with GradTape() as tape:
            loss = f(x)
        grads = backward(loss, tape)
        fd = finite_diff_grad(lambda v: f(v).item(), x, h=1e-5)
        assert rel_err(grads[x].data, fd.data) < 1e-4, name


# --------------------------------------------------------------------------
# Finite differences

def test_fd_square_function():
    fd = finite_diff_grad(lambda t: tc.mul(t, t).item(), Tensor([3.0]), h=1e-3)
    assert abs(fd.data[0] - 6.0) < 1e-6


def test_fd_sum_gives_ones():
    x = Tensor(np.arange(4, dtype=float))
    fd = finite_diff_grad(lambda t: tc.reduce("sum", t).item(), x)
    assert np.allclose(fd.data, 1.0, atol=1e-9)


def test_fd_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)
    with pytest.raises(NumericError):
        finite_diff_grad(lambda t: float("nan"), Tensor([1.0]))


# --------------------------------------------------------------------------
# Rng

def test_same_seed_bit_identical():
    a = Rng(7).uniform(-1, 1, (4, 5))
    b = Rng(7).uniform(-1, 1, (4, 5))
    assert np.array_equal(a, b)


def test_child_streams_are_independent_and_deterministic():
    r = Rng(3)
    a = r.child(1, 5).random((8,))
    b = Rng(3).child(1, 5).random((8,))
    c = Rng(3).child(2, 5).random((8,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        Rng(-1)
