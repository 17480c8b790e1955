"""Tensor core: elementwise ops, the linear layer, reductions, the tape,
and the finite-difference oracle."""

import ast
from pathlib import Path

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

from conftest import weighted_sum


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# --------------------------------------------------------------------------
# Elementwise

def test_sigmoid_at_zero():
    assert tc.sigmoid(Tensor([0.0])).tolist() == [0.5]


def test_relu_definition():
    assert tc.relu(Tensor([-1.0, 2.0])).tolist() == [0.0, 2.0]


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        tc.linear(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3))))
    assert "(1, 2)" in str(exc.value) and "(1, 3)" in str(exc.value)
    with pytest.raises(ShapeError):  # no scalar broadcasting
        tc.linear(Tensor(np.ones((1, 2))), Tensor(2.0))


def test_sigmoid_extreme_inputs_stay_finite():
    out = tc.sigmoid(Tensor([-1000.0, 1000.0]))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_nan_rejected():
    with pytest.raises(NumericError):
        Tensor([float("nan")])
    with pytest.raises(NumericError):
        Tensor([float("inf")])


# --------------------------------------------------------------------------
# Linear

def test_linear_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert tc.linear(m, eye).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_linear_dot_product():
    assert tc.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])).tolist() == [[11.0]]


def test_linear_matches_triple_loop_oracle():
    rng = Rng(9)
    x = rng.uniform(-2, 2, (3, 4))
    w = rng.uniform(-2, 2, (2, 4))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += x[i, k] * w[j, k]
    got = tc.linear(Tensor(x), Tensor(w)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_linear_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        tc.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        tc.linear(Tensor(np.ones(3)), Tensor(np.ones((2, 3))))


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


@pytest.mark.parametrize("op", ["sum", "mean"])
def test_reduce_backward_is_a_broadcast_view(op):
    rng = Rng(31)
    x = Tensor(rng.uniform(-1, 1, (3, 4, 5)), requires_grad=True)
    with GradTape() as tape:
        out = tc.reduce(op, x, axes=(0, 2))
        loss = weighted_sum(out, Tensor(rng.uniform(-1, 1, out.shape)))
    grads = backward(loss, tape)
    gx, gout = grads[x].data, grads[out].data

    full = np.broadcast_to(gout[None, :, None], x.shape)
    materialized = np.ascontiguousarray(full / 15 if op == "mean" else full)
    assert gx.shape == x.shape and gx.tobytes() == materialized.tobytes()
    # every position along the reduced axes reads the same memory
    assert np.shares_memory(gx[0, :, 0], gx[2, :, 4])
    assert np.shares_memory(gx, gout) == (op == "sum")


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
# tc.op: the one way an op makes its output

def _no_grad(g):
    raise AssertionError("backward must not run")


def test_op_requires_grad_when_any_input_does():
    frozen, live = Tensor([1.0]), Tensor([2.0], requires_grad=True)
    assert tc.op(np.zeros(1), (frozen, live), _no_grad).requires_grad
    assert not tc.op(np.zeros(1), (frozen, frozen), _no_grad).requires_grad
    assert not tc.op(np.zeros(1), (), _no_grad).requires_grad


def test_op_records_only_under_an_active_tape_and_only_with_a_gradient():
    live = Tensor([2.0], requires_grad=True)
    tc.op(np.zeros(1), (live,), _no_grad)  # no tape: nothing to record on
    with GradTape() as tape:
        out = tc.op(np.ones(1), (live,), lambda g: (3.0 * g,))
        tc.op(np.zeros(1), (Tensor([1.0]),), _no_grad)  # no input needs a gradient
    assert len(tape) == 1
    assert backward(out, tape)[live].tolist() == [3.0]


def test_op_scan_raises_at_the_op_that_made_a_nan_or_inf():
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError):
            tc.op(np.array([1.0, bad]), (Tensor([1.0]),), _no_grad)


def test_op_without_scan_wraps_the_same_array():
    value = np.array([1.0, np.nan])  # not scanned, so not rejected
    out = tc.op(value, (Tensor([1.0], requires_grad=True),), _no_grad, scan=False)
    assert out.data is value and out.requires_grad


def _referenced_names(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_only_tensor_module_makes_taped_outputs_by_hand():
    # every other module builds its ops with tc.op, so ops are made in one place
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(Path(tc.__file__).resolve().parent.glob("*.py")) if path.name != "tensor.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _referenced_names(node) if name in ("record_op", "_wrap")
    ]
    assert offenders == []


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
        loss = weighted_sum(x, x)
    grads = backward(loss, tape)
    assert grads[x].tolist() == [6.0]


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = tc.sigmoid(x)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_tape_is_single_use():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = weighted_sum(x, x)
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_gradients_accumulate_across_consumers():
    x = Tensor([[2.0]], requires_grad=True)
    with GradTape() as tape:
        loss = tc.linear(x, x)  # x feeds both operands
    grads = backward(loss, tape)
    assert grads[x].tolist() == [[4.0]]


def test_tensor_outside_ancestry_gets_no_gradient():
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = weighted_sum(x, x)
    grads = backward(loss, tape)
    assert unused not in grads


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_matches_finite_differences(seed):
    rng = Rng(seed)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

    def graph(at, wt, bt):
        return weighted_sum(tc.sigmoid(tc.linear(at, wt)), tc.relu(bt))

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
        "weighted_sum": lambda t: weighted_sum(t, t),
        "relu": lambda t: weighted_sum(tc.relu(t), tc.relu(t)),
        "sigmoid": lambda t: tc.reduce("sum", tc.sigmoid(t)),
        "mean": lambda t: tc.reduce("mean", t),
        "linear": lambda t: tc.reduce("sum", tc.sigmoid(tc.linear(t, t))),  # both operands
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
    fd = finite_diff_grad(lambda t: weighted_sum(t, t).item(), Tensor([3.0]), h=1e-3)
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
