"""Embedding matrices: random-init trainable or pretrained static vectors.

Pretrained files are plain text, one `token v_1 ... v_d` entry per line
with whitespace-separated decimal floats.  An optional first line of
exactly two integers (a `count dim` header) is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tc
from .tensor import Rng, Tensor
from .text import PAD_ID, UNK_ID, DataError, Vocabulary

__all__ = ["EmbeddingMatrix", "CoverageReport", "check_scale", "init_random", "load_pretrained", "lookup"]

DEFAULT_SCALE = 0.1  # random rows are uniform(-scale, +scale)


@dataclass
class EmbeddingMatrix:
    """V x d weight tensor; row PAD_ID stays zero and never receives updates."""

    weights: Tensor

    @property
    def trainable(self) -> bool:
        return self.weights.requires_grad

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class CoverageReport:
    """How much of the vocabulary a pretrained file covered (reserved ids excluded)."""

    hits: int
    misses: int
    fraction: float


def check_scale(scale: float, error: type[ValueError] = ValueError) -> None:
    """Raise `error` unless uniform(-scale, +scale) is a finite, non-empty range."""
    if not 0 < 2 * scale < float("inf"):
        raise error(f"scale must be positive with 2 * scale finite, got {scale}")


def init_random(vocab_size: int, d: int, rng: Rng, scale: float = DEFAULT_SCALE) -> EmbeddingMatrix:
    """Trainable matrix with rows sampled uniform(-scale, +scale); PAD row zero."""
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if d < 1:
        raise ValueError(f"embedding dim must be >= 1, got {d}")
    check_scale(scale)
    weights = rng.uniform(-scale, scale, (vocab_size, d))
    weights[PAD_ID] = 0.0
    return EmbeddingMatrix(Tensor(weights, requires_grad=True))


def load_pretrained(
    path: str | Path,
    vocab: Vocabulary,
    d_expected: int,
    rng: Rng,
    scale: float = DEFAULT_SCALE,
) -> tuple[EmbeddingMatrix, CoverageReport]:
    """Static (frozen) matrix from a text vector file.

    In-vocabulary tokens found in the file take the file vectors; tokens
    missing from the file keep a uniform(-scale, +scale) random row.  The
    coverage fraction counts real tokens only (ids >= 2).
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"pretrained vector file not found: {path}")
    vocab_size = len(vocab)
    weights = init_random(vocab_size, d_expected, rng, scale).weights.data
    covered: set[int] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_num, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if line_num == 1 and len(parts) == 2 and _all_ints(parts):
                    continue  # word2vec-style "count dim" header
                token, values = parts[0], parts[1:]
                if len(values) != d_expected:
                    raise DataError(
                        f"{path}: line {line_num}: expected {d_expected} values "
                        f"for token {token!r}, got {len(values)}"
                    )
                if token not in vocab:
                    continue
                idx = vocab.id_of(token)
                if idx in (PAD_ID, UNK_ID):
                    continue  # reserved rows keep their conventions
                try:
                    weights[idx] = [float(v) for v in values]
                except ValueError as exc:
                    raise DataError(f"{path}: line {line_num}: malformed value ({exc})") from None
                covered.add(idx)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    hits = len(covered)
    real = max(vocab_size - 2, 1)
    report = CoverageReport(hits=hits, misses=vocab_size - 2 - hits, fraction=hits / real)
    return EmbeddingMatrix(Tensor(weights, requires_grad=False)), report


def _all_ints(parts: list[str]) -> bool:
    try:
        [int(p) for p in parts]
        return True
    except ValueError:
        return False


def lookup(emb: EmbeddingMatrix, ids: np.ndarray) -> Tensor:
    """Gather rows of a (B, n) id matrix: output[b, j, :] = weights[ids[b, j], :].

    Backward scatters gradients to the looked-up rows only, masks the PAD
    row, and is skipped entirely for frozen matrices.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise DataError(f"expected an id matrix (B x n), got shape {ids.shape}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= emb.vocab_size:
        raise DataError(
            f"id out of range for vocabulary of size {emb.vocab_size}: "
            f"[{ids.min()}, {ids.max()}]"
        )
    weights = emb.weights

    def bw(g):
        grad = np.zeros_like(weights.data)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, emb.dim))
        grad[PAD_ID] = 0.0  # padding must not inject signal
        return (grad,)

    return tc.op(weights.data[ids], (weights,), bw)
