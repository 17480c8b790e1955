"""Dense float64 tensors with taped reverse-mode gradients.

Everything array-valued in this package is a :class:`Tensor`: a contiguous
row-major float64 numpy buffer plus a ``requires_grad`` flag (the gradients
:func:`backward` returns are the one exception; see there).  Every
operation makes its output through :func:`op`, which records it on the
active :class:`GradTape`; :func:`backward` replays the tape in exact
reverse order and returns a gradient for every ``requires_grad`` tensor in
the loss ancestry.  :func:`finite_diff_grad` is the independent
central-difference oracle used to verify the analytic gradients.

Scope is deliberately narrow: only the ops the model and the gradient
oracle use, no broadcasting, and one 2-D product, the bias-free ``linear``
layer.  Numerical blow-ups surface at the op that produced them, by the
scan rule stated at :func:`op`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "op",
    "Rng",
    "ShapeError",
    "NumericError",
    "relu",
    "sigmoid",
    "linear",
    "reshape",
    "reduce",
    "backward",
    "finite_diff_grad",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf values."""


class Tensor:
    """A dense float64 array that can participate in gradient recording.

    Tensors are immutable after construction except that the training loop
    may overwrite `.data` of parameter leaves in place between steps.
    Identity (not value) is what the gradient machinery keys on, so Tensor
    is hashable by object identity and defines no `__eq__`.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data: np.typing.ArrayLike, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # 0-d arrays are always contiguous
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains NaN or Inf values")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """`arr` itself as a Tensor: no conversion, copy or finite scan.

        For float64 arrays that need no check: copies or selections of
        checked tensors' values, and the gradients `backward` returns.
        """
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# --------------------------------------------------------------------------
# Gradient tape

class GradTape:
    """Ordered record of executed operations, replayable exactly once.

    Use as a context manager; ops run inside the `with` block are recorded
    when their output requires a gradient.  A tape is single-use: after
    `backward` consumed it, reuse raises.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "mismatched GradTape nesting"

    def __len__(self) -> int:
        return len(self._ops)


_TAPE_STACK: list[GradTape] = []


def _active_tape() -> Optional[GradTape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record_op(
    out: Tensor,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]],
) -> None:
    """Register a primitive on the active tape (no-op when none is active).

    `backward_fn` maps the output gradient to one gradient array (or None)
    per input, each of the input's own shape.
    """
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._ops.append((out, inputs, backward_fn))


def op(
    value: np.typing.ArrayLike,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]],
    *,
    scan: bool = True,
) -> Tensor:
    """The output of one operation: `value` as a Tensor, recorded with
    `record_op`.  It requires a gradient when any input does.

    The scan rule: the output is converted and checked as by `Tensor()`, so
    an op that made a NaN or Inf raises `NumericError`.  Pass `scan=False`
    only for a float64 array that copies, selects or zeroes values of
    already-checked inputs; it is wrapped as it is, without a copy.
    """
    requires_grad = any(t.requires_grad for t in inputs)
    out = Tensor(value, requires_grad) if scan else Tensor._wrap(value, requires_grad)
    record_op(out, inputs, backward_fn)
    return out


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, Tensor]:
    """Reverse-replay `tape` from scalar `loss`, returning a gradient map.

    The map holds one entry per requires_grad tensor reachable from the
    loss; tensors outside the ancestry are absent.  Gradients accumulate
    additively when a tensor feeds multiple consumers.

    The gradients are returned as the backward functions made them: they may
    be read-only broadcast views or strided views of a larger array, and
    they are not scanned for NaN/Inf.  `training.adam_step` scans every
    parameter gradient before it writes anything, so a non-finite gradient
    surfaces there as a `NumericError` naming the parameter.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("GradTape already consumed by a previous backward pass")
    tape._consumed = True

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape._ops):
        gout = grads.get(out)
        if gout is None:
            continue
        for inp, gin in zip(inputs, backward_fn(gout)):
            if gin is None or not inp.requires_grad:
                continue
            if gin.shape != inp.shape:
                raise ShapeError(
                    f"backward produced gradient of shape {gin.shape} "
                    f"for input of shape {inp.shape}"
                )
            grads[inp] = grads[inp] + gin if inp in grads else gin

    return {t: Tensor._wrap(g) for t, g in grads.items() if t.requires_grad}


# --------------------------------------------------------------------------
# Elementwise operations

def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(a: Tensor) -> Tensor:
    return op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),), scan=False)


def sigmoid(a: Tensor) -> Tensor:
    y = _stable_sigmoid(a.data)
    return op(y, (a,), lambda g: (g * y * (1.0 - y),))


# --------------------------------------------------------------------------
# Matrix and movement operations

def linear(x: Tensor, w: Tensor) -> Tensor:
    """Bias-free layer x @ w.T: a (B, in) batch times (out, in) weights."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {w.shape}.T")
    return op(x.data @ w.data.T, (x, w), lambda g: (g @ w.data, g.T @ x.data))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), scan=False)


# --------------------------------------------------------------------------
# Reductions

def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        axes = tuple(range(ndim))
    elif isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    else:
        axes = tuple(int(ax) for ax in axes)
    if len(axes) == 0:
        raise ShapeError("reduce requires at least one axis")
    norm = []
    for ax in axes:
        if not (-ndim <= ax < ndim):
            raise ShapeError(f"axis {ax} out of range for {ndim}-D tensor")
        norm.append(ax % ndim)
    if len(set(norm)) != len(norm):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(norm))


def reduce(kind: str, a: Tensor, axes: Union[int, Iterable[int], None] = None) -> Tensor:
    """Reduce over `axes` (None means all) with kind in {mean, sum}.

    The reduced axes are dropped from the output shape.
    """
    if kind not in ("sum", "mean"):
        raise ValueError(f"unknown reduce op {kind!r}")
    axes = _normalize_axes(axes, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if kind == "mean":
        # Shifted mean: averaging the residuals against a reference
        # slice keeps the mean of a constant block exact.
        ref_idx = tuple(0 if i in axes else slice(None) for i in range(a.ndim))
        ref = a.data[ref_idx]
        centered = a.data - np.expand_dims(ref, axes)
        data = ref + centered.sum(axis=axes) / count
    else:
        data = a.data.sum(axis=axes)

    def bw(g):
        expanded = np.expand_dims(g, axes)
        if kind == "mean":
            expanded = expanded / count
        return (np.broadcast_to(expanded, a.shape),)

    return op(data, (a,), bw)


# --------------------------------------------------------------------------
# Finite-difference oracle

def finite_diff_grad(f: Callable[[Tensor], Union[float, Tensor]], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar `f` at `x`: (f(x+h*e_i) - f(x-h*e_i)) / 2h.

    Independent of the tape machinery by construction; `f` is called on
    fresh perturbed tensors and must return a finite scalar.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")

    def evaluate(data: np.ndarray) -> float:
        val = f(Tensor(data))
        val = val.item() if isinstance(val, Tensor) else float(val)
        if not np.isfinite(val):
            raise NumericError("finite_diff_grad: function returned a non-finite value")
        return val

    base = x.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        plus = base.copy()
        plus.flat[i] += h
        minus = base.copy()
        minus.flat[i] -= h
        flat[i] = (evaluate(plus) - evaluate(minus)) / (2.0 * h)
    return Tensor(grad)


# --------------------------------------------------------------------------
# Seeded random source

class Rng:
    """Deterministic random stream: PCG64 seeded with a 64-bit integer.

    The same seed yields bit-identical sample streams within one build.
    `child` derives independent substreams from (seed, key) so unrelated
    consumers (splitting, init, shuffling) cannot perturb each other.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, *key: int) -> "Rng":
        rng = Rng.__new__(Rng)
        rng.seed = self.seed
        rng._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=tuple(key)))
        )
        return rng

    def uniform(self, low: float, high: float, shape: tuple = ()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape: tuple = ()) -> np.ndarray:
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int, shape: tuple = ()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def uniform_tensor(self, low: float, high: float, shape: tuple, requires_grad: bool = False) -> Tensor:
        return Tensor(self.uniform(low, high, shape), requires_grad=requires_grad)
