"""The SECNN network: parallel depthwise convolution branches over the
embedded sentence, stacked as channels, re-weighted by a squeeze-and-
excitation gate, summed, piecewise max-pooled, and classified.

Shape chain for a batch of B sentences of length n with embedding dim d,
m maps per branch, M total feature maps and p pooling pieces:

    (B, n, d) --conv--> (B, H, d, m) per branch  H = n-k+1 valid, n same
              --stack-> (B, H, W, M)             W = d, branches concatenated
              --squeeze-> (B, M) --excite-> (B, M) in (0, 1)
              --scale--> (B, H, W, M) --sum--> (B, H, W)
              --pool---> (B, p, W) --flatten-> (B, p*W) --dense-> (B, C)

Each forward stage asserts its declared output shape.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tc
from .tensor import Rng, ShapeError, Tensor
from .embeddings import EmbeddingMatrix, lookup
from .text import EncodedBatch

__all__ = [
    "ConfigError",
    "ModelConfig",
    "ModelParams",
    "param_shapes",
    "conv1d_valid",
    "conv1d_same",
    "stack_channels",
    "se_squeeze",
    "se_excite",
    "se_scale",
    "se_sum",
    "piecewise_maxpool",
    "piece_segments",
    "dropout",
    "dense",
    "init_params",
    "forward",
]


class ConfigError(ValueError):
    """A configuration value violates the model's invariants."""


@dataclass
class ModelConfig:
    """All architecture hyperparameters.

    `filter_sizes` holds one window length per parallel branch; with
    `padding="valid"` they must all be equal or the branch outputs could
    not be stacked.  `r` multiplies the channel count to size the hidden
    layer of the excitation gate.
    """

    n_max: int = 50
    d: int = 50
    filter_sizes: list[int] = field(default_factory=lambda: [3, 3, 3])
    maps_per_branch: int = 8
    padding: str = "valid"
    r: int = 4
    pieces: int = 3
    dropout_rate: float = 0.5
    num_classes: int = 2
    conv_activation: str = "identity"

    def __post_init__(self):
        self.filter_sizes = list(self.filter_sizes)
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not self.filter_sizes or any(k < 1 for k in self.filter_sizes):
            raise ConfigError(f"filter_sizes must be positive, got {self.filter_sizes}")
        if any(k > self.n_max for k in self.filter_sizes):
            raise ConfigError(
                f"filter sizes {self.filter_sizes} exceed sentence length {self.n_max}"
            )
        if self.padding not in ("valid", "same"):
            raise ConfigError(f"padding must be 'valid' or 'same', got {self.padding!r}")
        if self.padding == "valid" and len(set(self.filter_sizes)) > 1:
            raise ConfigError(
                "padding='valid' requires equal filter sizes (branch outputs "
                f"could not be stacked), got {self.filter_sizes}"
            )
        if self.maps_per_branch < 1:
            raise ConfigError(f"maps_per_branch must be >= 1, got {self.maps_per_branch}")
        if self.r < 1:
            raise ConfigError(f"increasing ratio r must be >= 1, got {self.r}")
        if not (1 <= self.pieces <= self.feature_height):
            raise ConfigError(
                f"pieces must be in [1, {self.feature_height}], got {self.pieces}"
            )
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.conv_activation not in ("identity", "relu"):
            raise ConfigError(
                f"conv_activation must be 'identity' or 'relu', got {self.conv_activation!r}"
            )

    @property
    def num_branches(self) -> int:
        return len(self.filter_sizes)

    @property
    def total_channels(self) -> int:
        return self.num_branches * self.maps_per_branch

    @property
    def feature_height(self) -> int:
        if self.padding == "valid":
            return self.n_max - self.filter_sizes[0] + 1
        return self.n_max

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model")


def config_from_dict(cls, d: dict, section: str):
    """Build config dataclass `cls` from `d`, each value checked against its
    field's declared type (an int widens to float) and then range-checked by
    the dataclass itself; every bad key or value raises ConfigError."""
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    return cls(**{
        f.name: _typed(d[f.name], f.type, f"{section}.{f.name}")
        for f in fields(cls) if f.name in d
    })


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float, finite: NaN, infinities and ints past the float range fail."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# One check per field type a config dataclass declares (the annotations are
# strings under `from __future__ import annotations`); `X | None` is X or null.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def _typed(value, annotation: str, name: str):
    base, _, optional = annotation.partition(" | ")
    if optional and value is None:
        return None
    check, expected = _TYPE_CHECKS[base]
    if not check(value):
        or_null = " or null" if optional else ""
        raise ConfigError(f"{name} must be {expected}{or_null}, got {value!r}")
    return float(value) if base == "float" else value


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in `ModelParams.named_tensors()` order."""
    channels = config.total_channels
    shapes = {"embedding": (vocab_size, config.d)}
    for i, k in enumerate(config.filter_sizes):
        shapes[f"filters.{i}"] = (config.maps_per_branch, k, config.d)
    shapes["se_w1"] = (channels * config.r, channels)
    shapes["se_w2"] = (channels, channels * config.r)
    shapes["dense_w"] = (config.pieces * config.d, config.num_classes)
    shapes["dense_b"] = (config.num_classes,)
    return shapes


@dataclass
class ModelParams:
    """Named parameter tensors; `filters[b]` packs one branch as (m, k, d)."""

    embedding: EmbeddingMatrix
    filters: list[Tensor]
    se_w1: Tensor
    se_w2: Tensor
    dense_w: Tensor
    dense_b: Tensor

    @classmethod
    def from_named(cls, tensors: dict[str, Tensor]) -> "ModelParams":
        """The inverse of `named_tensors`: `tensors` holds every parameter by
        name, in that order."""
        filters = [t for name, t in tensors.items() if name.startswith("filters.")]
        return cls(
            EmbeddingMatrix(tensors["embedding"]), filters,
            tensors["se_w1"], tensors["se_w2"], tensors["dense_w"], tensors["dense_b"],
        )

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """All parameters in checkpoint order, frozen ones included."""
        named = [("embedding", self.embedding.weights)]
        named.extend((f"filters.{i}", f) for i, f in enumerate(self.filters))
        named.extend(
            [
                ("se_w1", self.se_w1),
                ("se_w2", self.se_w2),
                ("dense_w", self.dense_w),
                ("dense_b", self.dense_b),
            ]
        )
        return named

    def trainable_tensors(self) -> list[tuple[str, Tensor]]:
        return [(name, t) for name, t in self.named_tensors() if t.requires_grad]

    def total_size(self) -> int:
        return sum(t.size for _, t in self.named_tensors())


def init_params(config: ModelConfig, rng: Rng, embedding: EmbeddingMatrix) -> ModelParams:
    """Fresh parameters: filters/dense uniform(-0.1, 0.1), gate weights
    uniform(-1/sqrt(M), 1/sqrt(M)) to keep excitation pre-activations O(1),
    dense bias zero."""
    if embedding.dim != config.d:
        raise ConfigError(
            f"embedding dim {embedding.dim} does not match config d={config.d}"
        )
    shapes = param_shapes(config, embedding.vocab_size)

    def draw(name: str, bound: float) -> Tensor:
        return rng.uniform_tensor(-bound, bound, shapes[name], requires_grad=True)

    gate_scale = 1.0 / np.sqrt(config.total_channels)
    filters = [draw(f"filters.{i}", 0.1) for i in range(config.num_branches)]
    se_w1 = draw("se_w1", gate_scale)
    se_w2 = draw("se_w2", gate_scale)
    dense_w = draw("dense_w", 0.1)
    dense_b = Tensor(np.zeros(shapes["dense_b"]), requires_grad=True)
    return ModelParams(embedding, filters, se_w1, se_w2, dense_w, dense_b)


# --------------------------------------------------------------------------
# Convolution

def conv1d_valid(e: Tensor, filt: Tensor, activation: str = "identity") -> Tensor:
    """Depthwise valid convolution: out[b, j, l, ...] = sum_i filt[..., i, l] * e[b, j+i, l].

    The sum runs over the k window positions only, so the output keeps the
    embedding width d and shrinks the length to n-k+1.  Leading filter axes
    index maps and become trailing output axes: a (k, d) filter gives one
    (B, H, d) map, a branch's (m, k, d) bank gives the (B, H, d, m) block
    of its maps, already in the channel-last layout of the stack.
    """
    return _conv(e, filt, activation, same=False)


def conv1d_same(e: Tensor, filt: Tensor, activation: str = "identity") -> Tensor:
    """Length-preserving convolution: the valid convolution of the input
    zero-padded with floor((k-1)/2) rows in front and ceil((k-1)/2) behind.
    Filters are shaped as for `conv1d_valid`.  The padding is part of the
    one recorded op: the op builds the padded buffer itself, and its
    backward returns the unpadded rows of the padded input's gradient (or
    None, with the filter gradient alone, for an input that needs none)."""
    return _conv(e, filt, activation, same=True)


def _conv(e: Tensor, filt: Tensor, activation: str, same: bool) -> Tensor:
    if e.ndim != 3 or filt.ndim < 2:
        raise ShapeError(f"conv1d expects (B,n,d) and (...,k,d), got {e.shape} and {filt.shape}")
    if activation not in ("identity", "relu"):
        raise ConfigError(f"unknown conv activation {activation!r}")
    batch, n, d = e.shape
    k, fd = filt.shape[-2:]
    if fd != d:
        raise ShapeError(f"filter width {fd} does not match embedding dim {d}")
    left, right = ((k - 1) // 2, k // 2) if same else (0, 0)
    if k > n + left + right:
        raise ShapeError(f"filter length {k} exceeds sequence length {n}")
    padded = e.data
    if same:
        padded = np.zeros((batch, n + left + right, d))
        padded[:, left : left + n, :] = e.data
    height = n + left + right - k + 1
    bank = filt.data.reshape(-1, k, d)
    maps = bank.shape[0]

    # One batched matmul over d: (B*H, k) windows times (k, m) filters per column.
    windows = sliding_window_view(padded, k, axis=1)  # (B, H, d, k), no copy
    columns = windows.transpose(2, 0, 1, 3).reshape(d, batch * height, k)
    data = np.empty((batch, height, d, maps))
    np.matmul(columns, bank.transpose(2, 1, 0), out=data.reshape(batch * height, d, maps).transpose(1, 0, 2))

    def bw(g):
        g = g.reshape(batch, height, d, maps)
        d_e = None  # frozen embeddings: nobody reads the input's gradient
        if e.requires_grad:
            g_windows = np.einsum("bhdm,mkd->bhdk", g, bank, optimize=True)
            d_padded = np.zeros_like(padded)
            for i in range(k):
                d_padded[:, i : i + height, :] += g_windows[..., i]
            d_e = d_padded[:, left : left + n, :]
        dfilt = np.einsum("bhdk,bhdm->mkd", windows, g, optimize=True)
        return d_e, dfilt.reshape(filt.shape)

    out = tc.op(data.reshape((batch, height, d) + filt.shape[:-2]), (e, filt), bw)
    return tc.relu(out) if activation == "relu" else out


# --------------------------------------------------------------------------
# Channel stacking and the squeeze-and-excitation gate

def stack_channels(maps: list[Tensor]) -> Tensor:
    """Stack feature maps into (B, H, W, M) channels, in list order.

    Each entry is one (B, H, W) map or a (B, H, W, ...) block of maps whose
    trailing axes enumerate channels in row-major order; all entries share
    (B, H, W).
    """
    if not maps:
        raise ShapeError("stack_channels requires at least one feature map")
    shape = maps[0].shape[:3]
    for i, m in enumerate(maps):
        if m.ndim < 3 or m.shape[:3] != shape:
            raise ShapeError(
                f"feature map {i} has shape {m.shape}, expected (*{shape}, ...); "
                "all stacked channels must agree"
            )
    blocks = [m.data.reshape(shape + (-1,)) for m in maps]
    starts = np.cumsum([blk.shape[-1] for blk in blocks])[:-1]

    def bw(g):
        return tuple(
            part.reshape(m.shape) for m, part in zip(maps, np.split(g, starts, axis=-1))
        )

    return tc.op(np.concatenate(blocks, axis=-1), tuple(maps), bw, scan=False)


def se_squeeze(stacked: Tensor) -> Tensor:
    """Global average over the spatial extent: (B, H, W, M) -> (B, M)."""
    if stacked.ndim != 4:
        raise ShapeError(f"se_squeeze expects (B,H,W,M), got {stacked.shape}")
    return tc.reduce("mean", stacked, axes=(1, 2))


def se_excite(squeezed: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Two-layer gate, no biases: sigmoid(w2 @ relu(w1 @ z)) per batch row."""
    if squeezed.ndim != 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ShapeError(
            f"se_excite expects 2-D operands, got {squeezed.shape}, {w1.shape}, {w2.shape}"
        )
    channels = squeezed.shape[1]
    if w1.shape[1] != channels or w2.shape[0] != channels or w1.shape[0] != w2.shape[1]:
        raise ShapeError(
            f"gate weights {w1.shape} / {w2.shape} do not match {channels} channels"
        )
    return tc.sigmoid(tc.linear(tc.relu(tc.linear(squeezed, w1)), w2))


def se_scale(stacked: Tensor, gates: Tensor) -> Tensor:
    """Channel-wise rescale: out[b, :, :, m] = gates[b, m] * stacked[b, :, :, m]."""
    if stacked.ndim != 4 or gates.ndim != 2:
        raise ShapeError(f"se_scale expects (B,H,W,M) and (B,M), got {stacked.shape}, {gates.shape}")
    if stacked.shape[0] != gates.shape[0] or stacked.shape[3] != gates.shape[1]:
        raise ShapeError(
            f"channel counts disagree: feature maps {stacked.shape}, gates {gates.shape}"
        )
    expanded = gates.data[:, None, None, :]

    def bw(g):
        d_stacked = g * expanded
        d_gates = np.einsum("bhwm,bhwm->bm", g, stacked.data)
        return d_stacked, d_gates

    return tc.op(stacked.data * expanded, (stacked, gates), bw)


def se_sum(scaled: Tensor) -> Tensor:
    """Element-wise sum of all scaled channels: (B, H, W, M) -> (B, H, W)."""
    if scaled.ndim != 4:
        raise ShapeError(f"se_sum expects (B,H,W,M), got {scaled.shape}")
    return tc.reduce("sum", scaled, axes=(3,))


# --------------------------------------------------------------------------
# Classification head

def piece_segments(height: int, pieces: int) -> list[tuple[int, int]]:
    """Split `height` rows into `pieces` contiguous segments, sizes as equal
    as possible with the remainder given to the earliest segments."""
    if not (1 <= pieces <= height):
        raise ShapeError(f"pieces must be in [1, {height}], got {pieces}")
    base, rem = divmod(height, pieces)
    bounds = []
    start = 0
    for i in range(pieces):
        stop = start + base + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def piecewise_maxpool(summed: Tensor, pieces: int) -> Tensor:
    """Per-segment column-wise max over the rows of (B, H, W) -> (B, p, W).

    Gradient routes to the first maximal row of each segment on ties.
    """
    if summed.ndim != 3:
        raise ShapeError(f"piecewise_maxpool expects (B,H,W), got {summed.shape}")
    batch, height, width = summed.shape
    segments = piece_segments(height, pieces)

    values = np.empty((batch, pieces, width))
    argmaxes = []
    for s, (lo, hi) in enumerate(segments):
        seg = summed.data[:, lo:hi, :]
        idx = np.argmax(seg, axis=1)
        argmaxes.append(idx)
        values[:, s, :] = np.take_along_axis(seg, idx[:, None, :], axis=1)[:, 0, :]

    def bw(g):
        full = np.zeros_like(summed.data)
        for s, (lo, hi) in enumerate(segments):
            np.put_along_axis(
                full[:, lo:hi, :], argmaxes[s][:, None, :], g[:, s : s + 1, :], axis=1
            )
        return (full,)

    return tc.op(values, (summed,), bw, scan=False)


def dropout(x: Tensor, rate: float, training: bool, rng: Rng | None) -> Tensor:
    """Inverted dropout: keep with probability 1-rate and scale by 1/(1-rate)
    during training; identity in eval mode or at rate 0."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout requires an Rng")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) >= rate) / keep
    return tc.op(x.data * mask, (x,), lambda g: (g * mask,))


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine head: logits = x @ w + b (activation lives in the loss)."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"dense expects (B,F), (F,C), (C,), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"dense shapes disagree: {x.shape} @ {w.shape} + {b.shape}")
    return tc.op(
        x.data @ w.data + b.data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0))
    )


# --------------------------------------------------------------------------
# Full forward pass

def _expect(t: Tensor, shape: tuple, stage: str, trace: dict | None) -> Tensor:
    if t.shape != shape:
        raise ShapeError(f"stage {stage!r} produced shape {t.shape}, expected {shape}")
    if trace is not None:
        trace[stage] = t.shape
    return t


def forward(
    params: ModelParams,
    config: ModelConfig,
    batch: EncodedBatch | np.ndarray,
    training: bool = False,
    rng: Rng | None = None,
    trace: dict | None = None,
) -> Tensor:
    """Run the whole network on an encoded batch and return (B, C) logits.

    Pass a dict as `trace` to capture each stage's output shape.
    """
    ids = batch.ids if isinstance(batch, EncodedBatch) else np.asarray(batch, dtype=np.int64)
    b = ids.shape[0]
    n, d = config.n_max, config.d
    if ids.shape[1] != n:
        raise ShapeError(f"batch length {ids.shape[1]} does not match n_max={n}")
    height, width = config.feature_height, d
    channels = config.total_channels

    embedded = _expect(lookup(params.embedding, ids), (b, n, d), "embedded", trace)

    conv = conv1d_valid if config.padding == "valid" else conv1d_same
    m = config.maps_per_branch
    blocks = []
    for branch, bank in enumerate(params.filters):
        block = conv(embedded, bank, activation=config.conv_activation)
        blocks.append(_expect(block, (b, height, width, m), f"feature_maps.{branch}", None))
        if trace is not None:
            trace.update({f"feature_map.{branch}.{j}": block.shape[:-1] for j in range(m)})

    stacked = _expect(stack_channels(blocks), (b, height, width, channels), "stacked", trace)
    squeezed = _expect(se_squeeze(stacked), (b, channels), "squeezed", trace)
    gates = _expect(se_excite(squeezed, params.se_w1, params.se_w2), (b, channels), "gates", trace)
    scaled = _expect(se_scale(stacked, gates), (b, height, width, channels), "scaled", trace)
    summed = _expect(se_sum(scaled), (b, height, width), "summed", trace)
    pooled = _expect(piecewise_maxpool(summed, config.pieces), (b, config.pieces, width), "pooled", trace)
    flat = _expect(tc.reshape(pooled, (b, config.pieces * width)), (b, config.pieces * width), "flattened", trace)
    dropped = _expect(dropout(flat, config.dropout_rate, training, rng), flat.shape, "dropped", trace)
    logits = _expect(dense(dropped, params.dense_w, params.dense_b), (b, config.num_classes), "logits", trace)
    return logits
