"""The benchmark's workloads and the seeded generators of their inputs.

Every input the program sees is a file written here: the training CSV, a
held-out CSV and, for the static workload, a pretrained-vectors text file.
The generators draw only from numpy's PCG64 seeded with ``(seed, stream)``,
so one seed pins every byte; no dataset is downloaded.

The synthetic corpus stands in for the Movie Review polarity corpus (MR):
sentences of Zipf-distributed pseudo-words, each carrying at least one cue
word of its class, so a model trained for one epoch can clear a fixed
dev-accuracy floor and the checks can tell a working model from a broken one.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Random streams, one per generated artefact, so that changing one input
# (say the held-out size) leaves the others byte-identical.
_LEXICON, _TRAIN, _HELDOUT, _VECTORS, _DIRECTION = range(5)

CUES_PER_CLASS = 30
LABELS = ("neg", "pos")
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Workload:
    """One configuration of the program and the size of its inputs."""

    name: str
    model: dict  # the run config's "model" section
    batch_size: int
    vectors: bool  # frozen pretrained vectors instead of trainable random rows
    corpus_size: int  # sentences in the training CSV (train + dev split)
    heldout_size: int  # sentences in the held-out CSV used by `secnn eval`
    lexicon_size: int  # Zipfian filler words to draw from
    length_mean: float  # sentence length in tokens, normal, clipped below
    length_max: int
    window_steps: int  # training steps per timed window
    round_windows: int  # timed training windows per round
    segment_steps: int  # steps compared bitwise between untraced and traced
    predict_calls: int  # `secnn predict` calls per round
    dev_acc_floor: float | None  # one-epoch dev accuracy the corpus must allow


_DESK_MODEL = {
    "n_max": 50,
    "d": 50,
    "filter_sizes": [3, 3, 3],
    "maps_per_branch": 8,
    "padding": "valid",
    "r": 4,
    "pieces": 3,
    "dropout_rate": 0.5,
    "conv_activation": "identity",
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Corpus scale: the (B, H, d, M) channel stack and the SE gate do
        # most of the work, so the SE collapse must show here.
        Workload(
            name="corpus_se",
            # n_max and d are below the desk values of 50 so that one training
            # step stays near 1 GiB resident; at n_max = d = 50 it reached
            # 6.3 GiB, too much for a shared 8 GiB machine.
            model={**_DESK_MODEL, "n_max": 20, "d": 32, "maps_per_branch": 128, "r": 16},
            batch_size=64,
            vectors=False,
            corpus_size=1067,  # 960 train sentences (15 full batches) + 107 dev
            heldout_size=192,
            lexicon_size=4000,
            length_mean=14.0,
            length_max=30,
            window_steps=1,
            round_windows=2,
            segment_steps=2,
            predict_calls=6,
            dev_acc_floor=None,
        ),
        # Desk defaults on an MR-sized corpus: the stack is small; per-op
        # overhead, the dense V x d embedding gradient, Adam and vocabulary
        # parsing do the work.
        Workload(
            name="desk_mr",
            model=dict(_DESK_MODEL),
            batch_size=16,
            vectors=False,
            corpus_size=10662,
            heldout_size=800,
            lexicon_size=17000,
            length_mean=20.0,
            length_max=45,
            window_steps=8,
            round_windows=3,
            segment_steps=8,
            predict_calls=30,
            dev_acc_floor=0.95,
        ),
        # The boundary-preserving variant: relu keeps the materialized SE
        # path, same padding pads per map, frozen vectors skip the embedding
        # gradient, and set-up parses a vectors file.
        Workload(
            name="static_relu",
            model={**_DESK_MODEL, "filter_sizes": [3, 4, 5], "padding": "same", "conv_activation": "relu"},
            batch_size=16,
            vectors=True,
            corpus_size=5331,  # half of MR: 4798 train sentences + 533 dev
            heldout_size=800,
            lexicon_size=17000,
            length_mean=20.0,
            length_max=45,
            window_steps=8,
            round_windows=3,
            segment_steps=8,
            predict_calls=30,
            dev_acc_floor=0.95,
        ),
    )
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


@dataclass(frozen=True)
class Lexicon:
    fillers: list[str]  # in Zipf rank order
    probs: np.ndarray
    cues: tuple[list[str], list[str]]  # cue words of class 0 and class 1


def make_lexicon(seed: int, size: int) -> Lexicon:
    """Distinct lowercase pseudo-words: `size` fillers plus the cue words."""
    rng = _rng(seed, _LEXICON)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size + 2 * CUES_PER_CLASS:
        syllables = rng.integers(2, 5)
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    cues, fillers = words[: 2 * CUES_PER_CLASS], words[2 * CUES_PER_CLASS :]
    ranks = np.arange(1, size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    return Lexicon(fillers, probs / probs.sum(), (cues[:CUES_PER_CLASS], cues[CUES_PER_CLASS:]))


def make_sentences(lexicon: Lexicon, count: int, workload: Workload, rng: np.random.Generator):
    """`count` balanced (label, text) rows with the surface noise the
    tokenizer must undo: capitals, commas, quotes and end punctuation."""
    lengths = np.clip(np.rint(rng.normal(workload.length_mean, workload.length_mean / 2.5, count)), 4, workload.length_max)
    labels = rng.permutation(np.arange(count) % 2)
    fillers = rng.choice(len(lexicon.fillers), size=int(lengths.sum()), p=lexicon.probs)
    rows = []
    pos = 0
    for label, length in zip(labels, lengths.astype(int)):
        words = [lexicon.fillers[i] for i in fillers[pos : pos + length]]
        pos += length
        cues = lexicon.cues[label]
        # Cues sit inside the first n_max tokens so every sentence is learnable.
        reach = min(length, workload.model["n_max"])
        for _ in range(1 + int(rng.random() < 0.35)):
            words[rng.integers(reach)] = cues[rng.integers(len(cues))]
        for i in range(len(words) - 1):
            roll = rng.random()
            if roll < 0.05:
                words[i] += ","
            elif roll < 0.06:
                words[i] = f'"{words[i]}"'
        words[0] = words[0].capitalize()
        rows.append((LABELS[label], " ".join(words) + ".!?"[rng.integers(3)]))
    return rows


def write_csv(path: Path, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "text"])
        writer.writerows(rows)
    return path


def write_vectors(path: Path, lexicon: Lexicon, d: int, seed: int) -> Path:
    """word2vec-style text file: a `count dim` header, then one vector per
    word.  Cue words lie along +/- one direction by class; a tenth of the
    fillers are left out so the loader's random-row path runs too."""
    rng = _rng(seed, _VECTORS)
    direction = _rng(seed, _DIRECTION).normal(size=d)
    direction /= np.linalg.norm(direction)
    entries = []
    for sign, cues in zip((-1.0, 1.0), lexicon.cues):
        for word in cues:
            entries.append((word, sign * 1.5 * direction + rng.normal(0.0, 0.05, d)))
    for word in lexicon.fillers:
        vec = rng.normal(0.0, 0.1, d)
        if rng.random() >= 0.1:
            entries.append((word, vec))
    order = rng.permutation(len(entries))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(entries)} {d}\n")
        for i in order:
            word, vec = entries[i]
            fh.write(word + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")
    return path


@dataclass(frozen=True)
class Inputs:
    train_csv: Path
    heldout_csv: Path
    vectors: Path | None
    run_config: Path  # JSON config for `secnn train`
    heldout: list  # (label, text) rows of the held-out CSV


def generate(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write every input file of one run into `workdir`."""
    lexicon = make_lexicon(seed, workload.lexicon_size)
    train_rows = make_sentences(lexicon, workload.corpus_size, workload, _rng(seed, _TRAIN))
    heldout_rows = make_sentences(lexicon, workload.heldout_size, workload, _rng(seed, _HELDOUT))
    train_csv = write_csv(workdir / "train.csv", train_rows)
    heldout_csv = write_csv(workdir / "heldout.csv", heldout_rows)
    vectors = None
    if workload.vectors:
        vectors = write_vectors(workdir / "vectors.txt", lexicon, workload.model["d"], seed)
    config = {
        "model": workload.model,
        "embeddings": {
            "trainable": not workload.vectors,
            "vectors": str(vectors) if vectors else None,
        },
        "train": {"batch_size": workload.batch_size, "max_epochs": 1, "seed": seed},
        "data": {"dataset": str(train_csv)},
    }
    run_config = workdir / "run.json"
    run_config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return Inputs(train_csv, heldout_csv, vectors, run_config, heldout_rows)
