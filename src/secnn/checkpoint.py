"""Checkpoint directory format.

A checkpoint is a directory holding:

  manifest.json  format version, model config, label map, embedding
                 trainable flag, and a tensor table mapping each parameter
                 name to {shape, dtype: "f32", byte_offset, byte_length}
  params.bin     the parameter arrays, concatenated row-major
                 little-endian float32 in manifest order
  vocab.txt      the vocabulary, one token per line (line number = id)

Loading rejects unknown format versions, missing or extra tensors, shape
mismatches, and byte ranges that do not tile the binary file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingMatrix
from .model import ModelConfig, ModelParams
from .tensor import Tensor
from .text import Vocabulary

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"
VOCAB_NAME = "vocab.txt"


class CheckpointError(ValueError):
    """The checkpoint directory is unreadable, corrupt, or incompatible."""


def save_checkpoint(
    dir_path: str | Path,
    params: ModelParams,
    config: ModelConfig,
    label_names: list[str],
    vocab: Vocabulary,
) -> Path:
    """Write manifest + binary params + vocabulary; returns the directory."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)

    table = []
    offset = 0
    blobs = []
    for name, t in params.named_tensors():
        raw = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        table.append(
            {
                "name": name,
                "shape": list(t.shape),
                "dtype": "f32",
                "byte_offset": offset,
                "byte_length": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)

    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": config.to_dict(),
        "label_map": {name: i for i, name in enumerate(label_names)},
        "embedding_trainable": params.embedding.trainable,
        "tensors": table,
    }
    with open(dir_path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(dir_path / PARAMS_NAME, "wb") as fh:
        for raw in blobs:
            fh.write(raw)
    vocab.save(dir_path / VOCAB_NAME)
    return dir_path


def _expected_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple]:
    channels = config.total_channels
    expected = {"embedding": (vocab_size, config.d)}
    for i, k in enumerate(config.filter_sizes):
        expected[f"filters.{i}"] = (config.maps_per_branch, k, config.d)
    expected["se_w1"] = (channels * config.r, channels)
    expected["se_w2"] = (channels, channels * config.r)
    expected["dense_w"] = (config.pieces * config.d, config.num_classes)
    expected["dense_b"] = (config.num_classes,)
    return expected


def load_checkpoint(dir_path: str | Path) -> tuple[ModelParams, ModelConfig, list[str], Vocabulary]:
    """Read a checkpoint directory back into live objects."""
    dir_path = Path(dir_path)
    manifest_path = dir_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"missing {MANIFEST_NAME} in {dir_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt manifest {manifest_path}: not an object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} (expected {FORMAT_VERSION})"
        )
    for key in ("model_config", "label_map", "tensors", "embedding_trainable"):
        if key not in manifest:
            raise CheckpointError(f"manifest is missing required key {key!r}")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid model config in manifest: {exc}") from None

    label_map = manifest["label_map"]
    if not isinstance(label_map, dict) or not label_map:
        raise CheckpointError("manifest label_map must be a non-empty object")
    if sorted(label_map.values()) != list(range(len(label_map))):
        raise CheckpointError(f"label_map ids must be 0..C-1, got {label_map}")
    if len(label_map) != config.num_classes:
        raise CheckpointError(
            f"label_map has {len(label_map)} classes, config expects {config.num_classes}"
        )
    label_names = [None] * len(label_map)
    for name, idx in label_map.items():
        label_names[idx] = name

    try:
        vocab = Vocabulary.load(dir_path / VOCAB_NAME)
    except ValueError as exc:
        raise CheckpointError(f"bad vocabulary in checkpoint: {exc}") from None
    expected = _expected_shapes(config, len(vocab))

    bin_path = dir_path / PARAMS_NAME
    if not bin_path.exists():
        raise CheckpointError(f"missing {PARAMS_NAME} in {dir_path}")
    blob = bin_path.read_bytes()

    entries = manifest["tensors"]
    if not isinstance(entries, list):
        raise CheckpointError("manifest tensor table must be a list")
    seen: dict[str, np.ndarray] = {}
    offset = 0
    for entry in entries:
        name = entry.get("name")
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
        if name in seen:
            raise CheckpointError(f"duplicate tensor {name!r} in checkpoint")
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {entry.get('dtype')!r}")
        shape = tuple(entry.get("shape", ()))
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape}, expected {expected[name]}"
            )
        if entry.get("byte_offset") != offset:
            raise CheckpointError(f"tensor {name!r} byte_offset {entry.get('byte_offset')} != {offset}")
        length = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        if entry.get("byte_length") != length:
            raise CheckpointError(
                f"tensor {name!r} byte_length {entry.get('byte_length')} != {length}"
            )
        if offset + length > len(blob):
            raise CheckpointError(f"params.bin too short for tensor {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=length // 4, offset=offset)
        seen[name] = arr.astype(np.float64).reshape(shape)
        offset += length
    if offset != len(blob):
        raise CheckpointError(
            f"params.bin has {len(blob)} bytes but manifest accounts for {offset}"
        )
    missing = set(expected) - set(seen)
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)}")

    trainable = bool(manifest["embedding_trainable"])
    embedding = EmbeddingMatrix(
        Tensor(seen["embedding"], requires_grad=trainable), trainable=trainable
    )
    filters = [
        Tensor(seen[f"filters.{i}"], requires_grad=True)
        for i in range(len(config.filter_sizes))
    ]
    params = ModelParams(
        embedding=embedding,
        filters=filters,
        se_w1=Tensor(seen["se_w1"], requires_grad=True),
        se_w2=Tensor(seen["se_w2"], requires_grad=True),
        dense_w=Tensor(seen["dense_w"], requires_grad=True),
        dense_b=Tensor(seen["dense_b"], requires_grad=True),
    )
    return params, config, label_names, vocab
