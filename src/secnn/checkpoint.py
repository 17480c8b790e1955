"""Checkpoint directory format.

A checkpoint is a directory holding:

  manifest.json  format version, model config, label map, embedding
                 trainable flag, and the tensor table: one
                 {name, shape, dtype: "f32", byte_offset, byte_length} entry
                 per parameter, in `ModelParams.named_tensors()` order
  params.bin     the parameter arrays, concatenated row-major
                 little-endian float32 in table order
  vocab.txt      the vocabulary, one token per line (line number = id)

`tensor_table` is the one definition of that table.  Loading requires the
stored table to equal, entry for entry and as JSON values, the table built
from the manifest's model config and the vocabulary size, so unknown
versions, missing, extra or reordered tensors, shape mismatches and byte
ranges that do not tile `params.bin` are all rejected, as are tensors
holding NaN or Inf.  Every failure is a `CheckpointError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelParams, param_shapes
from .tensor import NumericError, Tensor
from .text import Vocabulary

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint", "tensor_table"]

FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"
VOCAB_NAME = "vocab.txt"


class CheckpointError(ValueError):
    """The checkpoint directory is unreadable, corrupt, or incompatible."""


def tensor_table(shapes: dict[str, tuple[int, ...]]) -> list[dict]:
    """The manifest's tensor table for parameters of these shapes, in order;
    each tensor's float32 bytes directly follow the previous one's."""
    table = []
    offset = 0
    for name, shape in shapes.items():
        length = 4 * math.prod(shape)
        table.append(
            {"name": name, "shape": list(shape), "dtype": "f32", "byte_offset": offset, "byte_length": length}
        )
        offset += length
    return table


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
    named = params.named_tensors()
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(config),
        "label_map": {name: i for i, name in enumerate(label_names)},
        "embedding_trainable": params.embedding.trainable,
        "tensors": tensor_table({name: t.shape for name, t in named}),
    }
    with open(dir_path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(dir_path / PARAMS_NAME, "wb") as fh:
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    vocab.save(dir_path / VOCAB_NAME)
    return dir_path


def _read_bytes(path: Path) -> bytes:
    if not path.is_file():
        raise CheckpointError(f"no file {path.name} in {path.parent}")
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from None


def _as_json(value) -> str:
    """`value` in canonical JSON text, so `true` differs from `1` and `2.0` from `2`."""
    return json.dumps(value, sort_keys=True)


def load_checkpoint(dir_path: str | Path) -> tuple[ModelParams, ModelConfig, list[str], Vocabulary]:
    """Read a checkpoint directory back into live objects."""
    dir_path = Path(dir_path)
    manifest_path = dir_path / MANIFEST_NAME
    try:
        manifest = json.loads(_read_bytes(manifest_path).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt manifest {manifest_path}: not an object")

    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {_as_json(version)} (expected {FORMAT_VERSION})"
        )
    for key in ("model_config", "label_map", "tensors", "embedding_trainable"):
        if key not in manifest:
            raise CheckpointError(f"manifest is missing required key {key!r}")
    trainable = manifest["embedding_trainable"]
    if not isinstance(trainable, bool):
        raise CheckpointError(f"manifest embedding_trainable must be true or false, got {_as_json(trainable)}")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid model config in manifest: {exc}") from None

    label_map = manifest["label_map"]
    if not isinstance(label_map, dict) or not label_map:
        raise CheckpointError("manifest label_map must be a non-empty object")
    ids = list(label_map.values())
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
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
    except (ValueError, OSError) as exc:
        raise CheckpointError(f"bad vocabulary in checkpoint: {exc}") from None

    table = tensor_table(param_shapes(config, len(vocab)))
    stored = manifest["tensors"]
    if not isinstance(stored, list):
        raise CheckpointError("manifest tensor table must be a list")
    for i, (got, want) in enumerate(zip_longest(stored, table)):
        if _as_json(got) != _as_json(want):
            raise CheckpointError(
                f"manifest tensor entry {i} is {_as_json(got)}, expected {_as_json(want)}"
            )

    blob = _read_bytes(dir_path / PARAMS_NAME)
    size = table[-1]["byte_offset"] + table[-1]["byte_length"]
    if len(blob) != size:
        raise CheckpointError(f"{PARAMS_NAME} has {len(blob)} bytes but the manifest accounts for {size}")
    tensors = {}
    for entry in table:
        name = entry["name"]
        arr = np.frombuffer(blob, dtype="<f4", count=entry["byte_length"] // 4, offset=entry["byte_offset"])
        try:
            tensors[name] = Tensor(
                arr.reshape(entry["shape"]), requires_grad=trainable if name == "embedding" else True
            )
        except NumericError:
            raise CheckpointError(f"tensor {name!r} in {PARAMS_NAME} holds NaN or Inf values") from None
    return ModelParams.from_named(tensors), config, label_names, vocab
