"""Shared fixtures: the synthetic keyword dataset, CSV helpers and the
weighted-sum probe loss."""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

import secnn.tensor as tc
from secnn import LabeledExample, Rng
from secnn.tensor import Tensor


def make_keyword_dataset(
    n: int,
    seed: int,
    min_len: int = 5,
    max_len: int = 10,
    filler_vocab: int = 48,
) -> tuple[list[LabeledExample], list[str]]:
    """Separable two-class corpus: every class-0 sentence contains the token
    'aaa', every class-1 sentence contains 'bbb', the rest is filler drawn
    from `filler_vocab` tokens (total vocabulary 50)."""
    rng = Rng(seed)
    fillers = [f"tok{i:02d}" for i in range(filler_vocab)]
    examples = []
    for i in range(n):
        cls = i % 2
        length = int(rng.integers(min_len, max_len + 1))
        words = [fillers[int(rng.integers(0, filler_vocab))] for _ in range(length)]
        words[int(rng.integers(0, length))] = "aaa" if cls == 0 else "bbb"
        examples.append(LabeledExample(" ".join(words), cls))
    return examples, ["a", "b"]


def write_dataset_csv(path: Path, examples: list[LabeledExample], label_names: list[str]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "text"])
        for ex in examples:
            writer.writerow([label_names[ex.label], ex.text])
    return path


def weighted_sum(x: Tensor, w: Tensor) -> Tensor:
    """sum(x * w) as a (1, 1) tensor, through reshape and linear."""
    return tc.linear(tc.reshape(x, (1, -1)), tc.reshape(w, (1, -1)))


@pytest.fixture
def keyword_dataset():
    return make_keyword_dataset(64, seed=11)


@pytest.fixture
def keyword_csv(tmp_path, keyword_dataset):
    examples, label_names = keyword_dataset
    return write_dataset_csv(tmp_path / "keywords.csv", examples, label_names)
