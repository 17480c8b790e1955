"""Loss, Adam, the epoch loop with dev-set early stopping, evaluation,
prediction, and the finite-difference gradient check harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import GradTape, NumericError, Rng, ShapeError, Tensor, backward, finite_diff_grad, record_op
from .text import (
    DataError,
    EncodedBatch,
    LabeledExample,
    Vocabulary,
    build_vocab,
    encode,
    encode_examples,
    load_dataset,
    split_train_dev,
)
from .embeddings import init_random, load_pretrained
from .model import ConfigError, ModelConfig, ModelParams, forward, init_params
from .checkpoint import save_checkpoint

__all__ = [
    "TrainConfig",
    "EmbeddingsConfig",
    "DataConfig",
    "OptimizerState",
    "EpochStats",
    "TrainReport",
    "TrainResult",
    "EvalResult",
    "cross_entropy_loss",
    "adam_step",
    "train",
    "evaluate",
    "predict",
    "gradient_check",
    "GRADCHECK_TOLERANCE",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

GRADCHECK_TOLERANCE = 1e-4


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    max_epochs: int = 50
    patience: int = 5
    dev_fraction: float = 0.10
    seed: int = 42

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not (0.0 < self.dev_fraction < 1.0):
            raise ConfigError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class EmbeddingsConfig:
    """Embedding rows: uniform(-scale, +scale) random, or read from the
    `vectors` file where it has them; updated by training when `trainable`."""

    trainable: bool = True
    scale: float = 0.1
    vectors: str | None = None

    def __post_init__(self):
        if not 0 < self.scale < float("inf"):
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class DataConfig:
    """The training CSV and the vocabulary cut-offs (`max_vocab` counts the
    two reserved ids)."""

    dataset: str | None = None
    min_freq: int = 1
    max_vocab: int | None = None

    def __post_init__(self):
        if self.min_freq < 1:
            raise ConfigError(f"min_freq must be >= 1, got {self.min_freq}")
        if self.max_vocab is not None and self.max_vocab < 2:
            raise ConfigError(f"max_vocab must be null or >= 2, got {self.max_vocab}")


# --------------------------------------------------------------------------
# Loss

def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy, computed with max-subtraction."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_loss expects (B, C) logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"label out of range [0, {classes}): {labels}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss_value = -log_probs[np.arange(batch), labels].mean()
    out = Tensor(loss_value, requires_grad=logits.requires_grad)

    softmax = exps / total

    def bw(g):
        grad = softmax.copy()
        grad[np.arange(batch), labels] -= 1.0
        return (grad * (float(g) / batch),)

    record_op(out, (logits,), bw)
    return out


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


# --------------------------------------------------------------------------
# Optimizer

@dataclass
class OptimizerState:
    """Adam moments per trainable parameter name, plus the step counter.

    `scratch` holds two work buffers per parameter, made on its first
    update, so that a step allocates no parameter-sized temporaries.
    """

    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        first = {name: np.zeros_like(t.data) for name, t in params.trainable_tensors()}
        second = {name: np.zeros_like(t.data) for name, t in params.trainable_tensors()}
        return cls(first=first, second=second)


def adam_step(
    params: ModelParams,
    grads: dict[Tensor, Tensor],
    state: OptimizerState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place; frozen tensors untouched.

    Every gradient is checked before anything is written: a missing one
    raises ValueError and one holding NaN or Inf raises NumericError, both
    naming the parameter, and the moments, parameters and step count are
    left as they were.  (`backward` does not scan the gradients it returns.)
    """
    trainable = params.trainable_tensors()
    for name, param in trainable:
        grad = grads.get(param)
        if grad is None:
            raise ValueError(f"missing gradient for trainable parameter {name!r}")
        if not np.isfinite(grad.data).all():
            raise NumericError(f"gradient of parameter {name!r} contains NaN or Inf values")
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, param in trainable:
        g = grads[param].data
        m = state.first[name]
        v = state.second[name]
        if name not in state.scratch:
            state.scratch[name] = (np.empty_like(m), np.empty_like(m))
        update, denom = state.scratch[name]
        # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        # lr*(m/bias1) / (sqrt(v/bias2) + eps), one operation at a time in
        # that order, so the bits equal the textbook out-of-place update
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=update)
        m += update
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=update)
        update *= g
        v += update
        np.divide(m, bias1, out=update)
        np.multiply(lr, update, out=update)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        new_value = np.subtract(param.data, update, out=update)
        if not np.isfinite(new_value).all():
            raise NumericError(f"parameter {name!r} became non-finite during the update")
        param.data[...] = new_value


# --------------------------------------------------------------------------
# Reports

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    dev_acc: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_acc: float = 0.0
    wall_time_s: float = 0.0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,dev_acc"]
        for row in self.epochs:
            lines.append(
                f"{row.epoch},{row.train_loss:.6f},{row.train_acc:.6f},{row.dev_acc:.6f}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


@dataclass
class TrainResult:
    report: TrainReport
    params: ModelParams
    config: ModelConfig
    vocab: Vocabulary
    label_names: list[str]
    checkpoint_dir: Path | None


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # confusion[true, predicted]
    total: int


# --------------------------------------------------------------------------
# Batch iteration helpers

def _iter_batches(n: int, batch_size: int, order: np.ndarray | None = None):
    idx = order if order is not None else np.arange(n)
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def _accuracy_pass(
    params: ModelParams,
    config: ModelConfig,
    ids: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
) -> tuple[float, np.ndarray]:
    """Dropout-off accuracy plus the confusion matrix (rows = true class)."""
    classes = config.num_classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for chunk in _iter_batches(ids.shape[0], batch_size):
        logits = forward(params, config, ids[chunk], training=False)
        pred = np.argmax(logits.data, axis=1)
        for true, hat in zip(labels[chunk], pred):
            confusion[true, hat] += 1
    correct = np.trace(confusion)
    return float(correct / max(ids.shape[0], 1)), confusion


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.named_tensors()}


def _restore(params: ModelParams, snapshot: dict[str, np.ndarray]) -> None:
    for name, t in params.named_tensors():
        t.data[...] = snapshot[name]


# --------------------------------------------------------------------------
# Training loop

def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: str | Path | tuple[list[LabeledExample], list[str]],
    embeddings: EmbeddingsConfig = EmbeddingsConfig(),
    data: DataConfig = DataConfig(),
    *,
    out_dir: str | Path | None = None,
    log=None,
) -> TrainResult:
    """Train from a dataset path (or preloaded examples) and keep the
    best-dev parameters.  `data` gives only the vocabulary cut-offs here;
    its `dataset` path is the CLI's.

    Reproducible end to end from `train_config.seed`: the split, parameter
    init, epoch shuffles, and dropout all draw from seeded substreams.
    Stops at `max_epochs`, or earlier once the dev accuracy has not
    improved for more than `patience` consecutive epochs.  When `out_dir`
    is given, writes `checkpoint/` and `report.csv` inside it.
    """
    started = time.perf_counter()
    if isinstance(dataset, (str, Path)):
        examples, label_names = load_dataset(dataset)
    else:
        examples, label_names = dataset
    if len(label_names) != model_config.num_classes:
        raise ConfigError(
            f"dataset has {len(label_names)} classes but the model is configured "
            f"for {model_config.num_classes}"
        )

    root = Rng(train_config.seed)
    train_set, dev_set = split_train_dev(examples, train_config.dev_fraction, root.child(1))
    vocab = build_vocab(train_set, min_freq=data.min_freq, max_size=data.max_vocab)

    if embeddings.vectors is None:
        embedding = init_random(len(vocab), model_config.d, root.child(2), scale=embeddings.scale)
    else:
        embedding, _coverage = load_pretrained(
            embeddings.vectors, vocab, model_config.d, root.child(2), scale=embeddings.scale
        )
    embedding.weights.requires_grad = embeddings.trainable

    params = init_params(model_config, root.child(3), embedding)
    state = OptimizerState.for_params(params)
    dropout_rng = root.child(4)

    train_batch = encode_examples(train_set, vocab, model_config.n_max)
    dev_batch = encode_examples(dev_set, vocab, model_config.n_max)

    report = TrainReport()
    best = _snapshot(params)
    best_dev = -1.0
    stale = 0

    for epoch in range(1, train_config.max_epochs + 1):
        order = root.child(5, epoch).permutation(len(train_set))
        loss_total = 0.0
        for chunk in _iter_batches(len(train_set), train_config.batch_size, order):
            with GradTape() as tape:
                logits = forward(
                    params, model_config, train_batch.ids[chunk],
                    training=True, rng=dropout_rng,
                )
                loss = cross_entropy_loss(logits, train_batch.labels[chunk])
            grads = backward(loss, tape)
            adam_step(params, grads, state, train_config.learning_rate)
            loss_total += loss.item() * len(chunk)
        train_loss = loss_total / len(train_set)

        train_acc, _ = _accuracy_pass(
            params, model_config, train_batch.ids, train_batch.labels, train_config.batch_size
        )
        dev_acc, _ = _accuracy_pass(
            params, model_config, dev_batch.ids, dev_batch.labels, train_config.batch_size
        )
        report.epochs.append(EpochStats(epoch, train_loss, train_acc, dev_acc))
        if log is not None:
            log(f"epoch={epoch} train_loss={train_loss:.6f} train_acc={train_acc:.4f} dev_acc={dev_acc:.4f}")

        if dev_acc > best_dev:
            best_dev = dev_acc
            report.best_epoch = epoch
            best = _snapshot(params)
            stale = 0
        else:
            stale += 1
            if stale > train_config.patience:
                break

    _restore(params, best)
    for _, t in params.named_tensors():
        t.data[...] = t.data.astype(np.float32)  # the precision the checkpoint stores
    report.best_dev_acc = best_dev
    report.wall_time_s = time.perf_counter() - started

    checkpoint_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_dir = save_checkpoint(
            out_dir / "checkpoint", params, model_config, label_names, vocab
        )
        report.write_csv(out_dir / "report.csv")

    return TrainResult(report, params, model_config, vocab, label_names, checkpoint_dir)


# --------------------------------------------------------------------------
# Evaluation and prediction

def evaluate(
    params: ModelParams,
    config: ModelConfig,
    vocab: Vocabulary,
    examples: list[LabeledExample],
    batch_size: int = 64,
) -> EvalResult:
    """Dropout-off accuracy with argmax predictions; row-order invariant."""
    if not examples:
        raise DataError("cannot evaluate on an empty dataset")
    if any(ex.label >= config.num_classes or ex.label < 0 for ex in examples):
        raise DataError("dataset contains labels outside the model's classes")
    batch = encode_examples(examples, vocab, config.n_max)
    accuracy, confusion = _accuracy_pass(params, config, batch.ids, batch.labels, batch_size)
    return EvalResult(accuracy=accuracy, confusion=confusion, total=len(examples))


def predict(
    params: ModelParams,
    config: ModelConfig,
    vocab: Vocabulary,
    label_names: list[str],
    text: str,
) -> tuple[str, np.ndarray]:
    """Label name plus the softmax distribution for one sentence.

    All-UNK or empty input is valid; ties resolve to the first class.
    """
    ids = encode(text, vocab, config.n_max)[None, :]
    logits = forward(params, config, ids, training=False)
    probs = softmax_probs(logits.data)[0]
    return label_names[int(np.argmax(probs))], probs


# --------------------------------------------------------------------------
# Gradient checking

def gradient_check(
    params: ModelParams,
    config: ModelConfig,
    batch: EncodedBatch,
    h: float = 1e-5,
) -> dict[str, float]:
    """Max relative error, per parameter tensor, between the taped backward
    pass and central finite differences over the full model loss.

    Runs the dropout-off forward so repeated loss evaluations are
    deterministic.  The relative error uses max(|a|, |fd|, 1e-8) as the
    denominator, elementwise.
    """

    def loss_value() -> float:
        logits = forward(params, config, batch.ids, training=False)
        return cross_entropy_loss(logits, batch.labels).item()

    with GradTape() as tape:
        logits = forward(params, config, batch.ids, training=False)
        loss = cross_entropy_loss(logits, batch.labels)
    grads = backward(loss, tape)

    errors: dict[str, float] = {}
    for name, param in params.named_tensors():
        analytic = grads.get(param)
        analytic_data = (
            analytic.data if analytic is not None else np.zeros_like(param.data)
        )

        def probe(perturbed: Tensor, _param=param) -> float:
            original = _param.data
            _param.data = perturbed.data
            try:
                return loss_value()
            finally:
                _param.data = original

        fd = finite_diff_grad(probe, param, h).data
        denom = np.maximum(np.maximum(np.abs(analytic_data), np.abs(fd)), 1e-8)
        errors[name] = float(np.max(np.abs(analytic_data - fd) / denom))
    return errors
