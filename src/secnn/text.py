"""Tokenization, vocabulary, id encoding, dataset CSV loading, train/dev split.

Dataset files are UTF-8 CSV with a `label,text` header and RFC-4180
quoting.  Vocabulary files are plain text, one token per line, where the
line number is the id and lines 0-1 are the literal reserved tokens.
"""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Rng

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "DataError",
    "LabeledExample",
    "EncodedBatch",
    "Vocabulary",
    "tokenize",
    "build_vocab",
    "encode",
    "encode_examples",
    "load_dataset",
    "split_train_dev",
]

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class DataError(ValueError):
    """Dataset or vocabulary input cannot be used as-is."""


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: int


@dataclass
class EncodedBatch:
    """Integer id matrix (B x n_max) with an aligned label vector (B)."""

    ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.ids.ndim != 2 or self.labels.ndim != 1 or self.ids.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"batch shapes disagree: ids {self.ids.shape}, labels {self.labels.shape}"
            )

    def __len__(self) -> int:
        return self.ids.shape[0]


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


class Vocabulary:
    """Token <-> id bijection with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens: list[str]):
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN, *tokens]
        self._token_to_id: dict[str, int] = {}
        for i, tok in enumerate(self._id_to_token):
            if tok in self._token_to_id:
                raise DataError(f"duplicate token in vocabulary: {tok!r}")
            self._token_to_id[tok] = i

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def tokens(self) -> list[str]:
        """Real tokens only, in id order (ids 2..V-1)."""
        return self._id_to_token[2:]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for tok in self._id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        if not path.exists():
            raise DataError(f"vocabulary file not found: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) < 2 or lines[0] != PAD_TOKEN or lines[1] != UNK_TOKEN:
            raise DataError(
                f"vocabulary file must start with {PAD_TOKEN!r} and {UNK_TOKEN!r} lines: {path}"
            )
        return cls(lines[2:])


def build_vocab(
    corpus: list[LabeledExample],
    min_freq: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Count tokens over the corpus and keep those with frequency >= min_freq.

    Tokens are ordered by (frequency desc, first occurrence asc) and get
    ids from 2 upward.  `max_size` caps the total vocabulary size
    including the two reserved ids.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for example in corpus:
        for tok in tokenize(example.text):
            if tok not in counts:
                first_seen[tok] = len(first_seen)
                counts[tok] = 0
            counts[tok] += 1
    kept = [tok for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda tok: (-counts[tok], first_seen[tok]))
    if max_size is not None:
        kept = kept[: max(max_size - 2, 0)]
    return Vocabulary(kept)


def encode(text: str, vocab: Vocabulary, n_max: int) -> np.ndarray:
    """Encode to exactly n_max ids: unknown -> UNK, right-padded, truncated."""
    if n_max < 1:
        raise DataError(f"n_max must be >= 1, got {n_max}")
    ids = [vocab.id_of(tok) for tok in tokenize(text)][:n_max]
    ids.extend([PAD_ID] * (n_max - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def encode_examples(examples: list[LabeledExample], vocab: Vocabulary, n_max: int) -> EncodedBatch:
    ids = np.stack([encode(ex.text, vocab, n_max) for ex in examples])
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    return EncodedBatch(ids, labels)


def load_dataset(path: str | Path) -> tuple[list[LabeledExample], list[str]]:
    """Read a `label,text` CSV; class ids follow the lexicographic label order.

    Returns the examples plus the label-name list indexed by class id.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    rows: list[tuple[str, str]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["label", "text"]:
                raise DataError(f"expected header 'label,text' in {path}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}: malformed row at line {reader.line_num}: {row!r}")
                label, text = row
                if not label:
                    raise DataError(f"{path}: empty label at line {reader.line_num}")
                rows.append((label, text))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a readable UTF-8 CSV: {exc}") from None
    if not rows:
        raise DataError(f"dataset is empty: {path}")
    label_names = sorted({label for label, _ in rows})
    if len(label_names) < 2:
        raise DataError(f"dataset must contain at least 2 distinct labels, got {label_names}")
    label_ids = {name: i for i, name in enumerate(label_names)}
    examples = [LabeledExample(text, label_ids[label]) for label, text in rows]
    return examples, label_names


def split_train_dev(
    data: list[LabeledExample],
    dev_fraction: float,
    rng: Rng,
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Uniform random split; |dev| = round(dev_fraction * |data|), half up."""
    if not (0.0 < dev_fraction < 1.0):
        raise DataError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    n = len(data)
    if n < 2:
        raise DataError(f"need at least 2 examples to split, got {n}")
    n_dev = int(np.floor(dev_fraction * n + 0.5))
    if n_dev == 0 or n_dev == n:
        raise DataError(
            f"degenerate split: {n} examples at dev_fraction={dev_fraction} "
            f"gives dev size {n_dev}"
        )
    order = rng.permutation(n)
    dev = [data[i] for i in order[:n_dev]]
    train = [data[i] for i in order[n_dev:]]
    return train, dev
