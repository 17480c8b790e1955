"""Checks of the program's outputs against computations made apart from it.

The reference model reads a checkpoint directory by its documented format
(``manifest.json``, little-endian float32 ``params.bin``, ``vocab.txt``) and
runs the documented tokenizer and shape chain in plain numpy, with its own
formulation of each stage (sliding windows and einsum instead of per-map
loops, ``np.array_split`` for the pooling pieces).  It imports nothing from
the program.

Each ``check_*`` function raises :class:`CheckFailed` with a one-line reason
when the program's output disagrees; ``test_checks.py`` shows that each one
fails on a perturbed output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PROB_TOL = 1e-9  # predict probabilities against the reference forward
GRAD_TOL = 1e-4  # directional derivatives, relative; see check_directional_gradients
GRAD_ATOL = 1e-10  # about ten times the rounding error of a float64 loss difference at h = 1e-5

# ASCII punctuation as code-point ranges: !"#$%&'()*+,-./ :;<=>?@ [\]^_` {|}~
_PUNCT = re.compile(r"[\x21-\x2f\x3a-\x40\x5b-\x60\x7b-\x7e]")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent reference."""


def tokenize(text: str) -> list[str]:
    """Lowercase, drop ASCII punctuation, split on whitespace."""
    return _PUNCT.sub("", text.lower()).split()


@dataclass
class ReferenceModel:
    config: dict
    labels: list[str]  # indexed by class id
    token_ids: dict[str, int]
    tensors: dict[str, np.ndarray]  # float64 copies of the stored float32 values

    @classmethod
    def load(cls, directory: Path) -> "ReferenceModel":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        blob = (directory / "params.bin").read_bytes()
        tensors = {}
        for entry in manifest["tensors"]:
            if entry["dtype"] != "f32":
                raise CheckFailed(f"tensor {entry['name']} has dtype {entry['dtype']}")
            raw = blob[entry["byte_offset"] : entry["byte_offset"] + entry["byte_length"]]
            tensors[entry["name"]] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(entry["shape"])
        labels = sorted(manifest["label_map"], key=manifest["label_map"].get)
        tokens = (directory / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]
        return cls(manifest["model_config"], labels, {t: i for i, t in enumerate(tokens)}, tensors)

    def encode(self, texts: list[str]) -> np.ndarray:
        """Ids right-padded with 0 (`<pad>`), unknown tokens 1 (`<unk>`)."""
        n = self.config["n_max"]
        ids = np.zeros((len(texts), n), dtype=np.int64)
        for row, text in enumerate(texts):
            found = [self.token_ids.get(tok, 1) for tok in tokenize(text)][:n]
            ids[row, : len(found)] = found
        return ids

    def logits(self, ids: np.ndarray, chunk: int = 32) -> np.ndarray:
        return np.concatenate([self._logits(ids[i : i + chunk]) for i in range(0, len(ids), chunk)])

    def _logits(self, ids: np.ndarray) -> np.ndarray:
        cfg, t = self.config, self.tensors
        x = t["embedding"][ids]  # (B, n, d)
        channels = []
        for branch, k in enumerate(cfg["filter_sizes"]):
            xp = x
            if cfg["padding"] == "same":
                xp = np.pad(x, ((0, 0), ((k - 1) // 2, k // 2), (0, 0)))
            windows = sliding_window_view(xp, k, axis=1)  # (B, H, d, k)
            maps = np.einsum("bhdk,mkd->bhdm", windows, t[f"filters.{branch}"])
            if cfg["conv_activation"] == "relu":
                maps = np.maximum(maps, 0.0)
            channels.append(maps)
        u = np.concatenate(channels, axis=3)  # (B, H, d, M)
        z = u.mean(axis=(1, 2))
        gate = 1.0 / (1.0 + np.exp(-(np.maximum(z @ t["se_w1"].T, 0.0) @ t["se_w2"].T)))
        summed = np.einsum("bhdm,bm->bhd", u, gate)
        pieces = np.array_split(np.arange(summed.shape[1]), cfg["pieces"])
        pooled = np.stack([summed[:, rows, :].max(axis=1) for rows in pieces], axis=1)
        return pooled.reshape(len(ids), -1) @ t["dense_w"] + t["dense_b"]

    def probabilities(self, texts: list[str]) -> np.ndarray:
        logits = self.logits(self.encode(texts))
        exps = np.exp(logits - logits.max(axis=1, keepdims=True))
        return exps / exps.sum(axis=1, keepdims=True)


def check_predictions(ref_probs: np.ndarray, probs: np.ndarray, ref_labels: list[str], labels: list[str]) -> None:
    """Library `predict` probabilities within PROB_TOL, printed labels exactly."""
    worst = float(np.max(np.abs(np.asarray(probs) - ref_probs)))
    if not worst <= PROB_TOL:
        raise CheckFailed(f"predict probabilities differ from the reference by {worst:.3e} > {PROB_TOL:.0e}")
    wrong = [i for i, (a, b) in enumerate(zip(ref_labels, labels)) if a != b]
    if wrong or len(ref_labels) != len(labels):
        raise CheckFailed(f"predicted labels differ from the reference at rows {wrong[:5]}")


def check_accuracy(ref_correct: int, total: int, library_accuracy: float, printed: str) -> None:
    """`evaluate` accuracy exactly, and the `accuracy=` line `secnn eval` prints."""
    expected = ref_correct / total
    if library_accuracy != expected:
        raise CheckFailed(f"evaluate accuracy {library_accuracy!r} != reference {expected!r}")
    if printed != f"accuracy={expected:.4f}":
        raise CheckFailed(f"secnn eval printed {printed!r}, reference gives accuracy={expected:.4f}")


def check_directional_gradients(cases: list[tuple[str, float, Callable[[float], float]]], h: float = 1e-5) -> float:
    """Central differences of the loss along each direction against the
    taped directional derivative; `cases` holds (label, derivative,
    loss_along).  The loss is piecewise smooth (max-pool, relu): a larger `h`
    crosses more kinks, a smaller one loses digits to rounding when the
    derivative is small (1e-5 to 1e-4 along a random direction at corpus
    scale, 3e-7 along the SE gate gradients at desk scale), so the absolute
    slack GRAD_ATOL covers rounding.  A wrong backward is off by far more.
    Returns the worst relative error."""
    worst = 0.0
    for label, analytic, loss_along in cases:
        numeric = (loss_along(h) - loss_along(-h)) / (2.0 * h)
        scale = max(abs(numeric), abs(analytic))
        if not abs(numeric - analytic) <= GRAD_TOL * scale + GRAD_ATOL:
            raise CheckFailed(
                f"derivative along {label}: taped {analytic:.10e}, finite difference {numeric:.10e} "
                f"(relative error {abs(numeric - analytic) / scale:.2e} > {GRAD_TOL:.0e})"
            )
        worst = max(worst, abs(numeric - analytic) / max(scale, 1e-300))
    return worst


def check_bitwise(name: str, expected: list[np.ndarray], actual: list[np.ndarray]) -> None:
    if len(expected) != len(actual):
        raise CheckFailed(f"{name}: {len(actual)} arrays, expected {len(expected)}")
    for i, (a, b) in enumerate(zip(expected, actual)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            raise CheckFailed(f"{name}: item {i} is not bitwise equal")


def read_vectors(path: Path) -> dict[str, np.ndarray]:
    """The vectors file as written: an optional `count dim` header, then
    `token v_1 ... v_d` lines."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh):
            parts = line.split()
            if line_num == 0 and len(parts) == 2:
                continue
            vectors[parts[0]] = np.array(parts[1:], dtype=np.float64)
    return vectors


def check_static_rows(embedding: np.ndarray, token_ids: dict[str, int], vectors: dict[str, np.ndarray]) -> int:
    """Every vocabulary token present in the vectors file keeps the file's
    vector (rounded to float32 when `embedding` came from a checkpoint).
    Returns the number of rows checked."""
    rows = [(i, vectors[tok]) for tok, i in token_ids.items() if i >= 2 and tok in vectors]
    if not rows:
        raise CheckFailed("no vocabulary token was found in the vectors file")
    ids = np.array([i for i, _ in rows])
    expected = np.stack([v for _, v in rows]).astype(embedding.dtype)
    if not np.array_equal(embedding[ids], expected):
        raise CheckFailed("embedding rows of covered tokens differ from the vectors file")
    return len(rows)


def check_dev_floor(report_csv: str, floor: float) -> float:
    """Last epoch's dev accuracy from `report.csv` clears the floor."""
    lines = report_csv.strip().splitlines()
    if lines[0] != "epoch,train_loss,train_acc,dev_acc" or len(lines) < 2:
        raise CheckFailed(f"report.csv has an unexpected layout: {lines[:2]}")
    dev_acc = float(lines[-1].split(",")[3])
    if not dev_acc >= floor:
        raise CheckFailed(f"dev accuracy {dev_acc:.4f} after one epoch is below the floor {floor}")
    return dev_acc
