"""Command-line interface.

Subcommands: train, eval, predict, gradcheck, sweep-ratio.  Run configs
are JSON files with four sections (model, embeddings, train, data);
`--set section.key=value` overrides single values, `--seed` is shorthand
for `--set train.seed=...`.  Unknown keys are rejected before any work
starts.

Exit codes: 0 success, 1 configuration or checkpoint error, 2 data error,
3 numeric failure (non-finite loss or a failed gradient check).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .model import ConfigError, ModelConfig, init_params, require_int
from .embeddings import init_random
from .tensor import NumericError, Rng
from .text import DataError, EncodedBatch, load_dataset
from .training import (
    GRADCHECK_TOLERANCE,
    TrainConfig,
    evaluate,
    gradient_check,
    predict,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_RATIOS = [2, 4, 8, 16, 32, 64]
GRADCHECK_MAX_PARAMS = 5000

# Desk-scale defaults; the larger corpus-scale preset from the experiments
# (128 maps per branch, ratio 16, batch 64) is documented in the README.
DEFAULT_RUN_CONFIG: dict = {
    "model": {k: v for k, v in ModelConfig().to_dict().items() if k != "num_classes"},
    "embeddings": {
        "trainable": True,
        "scale": 0.1,
        "vectors": None,
    },
    "train": asdict(TrainConfig()),
    "data": {
        "dataset": None,
        "min_freq": 1,
        "max_vocab": None,
    },
}

GRADCHECK_MODEL_CONFIG: dict = {
    "n_max": 7,
    "d": 4,
    "filter_sizes": [2, 3],
    "maps_per_branch": 2,
    "padding": "same",
    "r": 2,
    "pieces": 2,
    "dropout_rate": 0.0,
    "conv_activation": "identity",
}


def _merge_section(base: dict, override: dict, path: str) -> None:
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path}.{key}")
        base[key] = value


def load_run_config(config_path: str | None, sets: list[str], seed: int | None) -> dict:
    """Defaults, overlaid with the config file, then --set pairs, then --seed."""
    cfg = copy.deepcopy(DEFAULT_RUN_CONFIG)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for section, content in loaded.items():
            if section not in cfg:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(content, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _merge_section(cfg[section], content, section)
    for pair in sets:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        section, _, key = dotted.partition(".")
        if not key:
            raise ConfigError(f"--set key must be section.key, got {dotted!r}")
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config key {dotted!r}")
        try:
            cfg[section][key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[section][key] = raw
    if seed is not None:
        cfg["train"]["seed"] = seed
    return cfg


def _model_config(cfg: dict, num_classes: int) -> ModelConfig:
    return ModelConfig.from_dict({**cfg["model"], "num_classes": num_classes})


def _train_kwargs(cfg: dict) -> dict:
    """The embedding and vocabulary keyword arguments of `train()`."""
    emb, data = cfg["embeddings"], cfg["data"]
    if not isinstance(emb["trainable"], bool):
        raise ConfigError(f"embeddings.trainable must be true or false, got {emb['trainable']!r}")
    try:
        return {
            "vectors_path": None if emb["vectors"] is None else os.fspath(emb["vectors"]),
            "embeddings_trainable": emb["trainable"],
            "embed_scale": float(emb["scale"]),
            "min_freq": require_int(data["min_freq"], "data.min_freq"),
            "max_vocab": None if data["max_vocab"] is None else require_int(data["max_vocab"], "data.max_vocab"),
        }
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid embeddings or data config: {exc}") from None


def _require_dataset(cfg: dict) -> Path:
    dataset = cfg["data"]["dataset"]
    if not isinstance(dataset, str) or not dataset:
        raise ConfigError("data.dataset must point at a label,text CSV file")
    path = Path(dataset)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return path


# --------------------------------------------------------------------------
# Commands

def cmd_train(config_path: str | None, sets: list[str], seed: int | None, out: str) -> int:
    cfg = load_run_config(config_path, sets, seed)
    dataset_path = _require_dataset(cfg)
    examples, label_names = load_dataset(dataset_path)
    model_config = _model_config(cfg, len(label_names))
    train_config = TrainConfig.from_dict(cfg["train"])

    result = train(
        model_config,
        train_config,
        (examples, label_names),
        **_train_kwargs(cfg),
        out_dir=out,
        log=print,
    )
    report = result.report
    print(f"best_epoch={report.best_epoch} best_dev_acc={report.best_dev_acc:.4f}")
    print(f"checkpoint={result.checkpoint_dir}")
    print(f"report={Path(out) / 'report.csv'}")
    return EXIT_OK


def cmd_eval(checkpoint_dir: str, dataset_path: str) -> int:
    params, config, label_names, vocab = load_checkpoint(checkpoint_dir)
    examples, data_labels = load_dataset(dataset_path)
    if data_labels != label_names:
        raise CheckpointError(
            f"dataset labels {data_labels} do not match checkpoint labels {label_names}"
        )
    result = evaluate(params, config, vocab, examples)
    print(f"accuracy={result.accuracy:.4f}")
    return EXIT_OK


def cmd_predict(checkpoint_dir: str, text: str) -> int:
    params, config, label_names, vocab = load_checkpoint(checkpoint_dir)
    label, probs = predict(params, config, vocab, label_names, text)
    print(f"label={label}")
    print("probs " + " ".join(f"{name}={p:.4f}" for name, p in zip(label_names, probs)))
    return EXIT_OK


def cmd_gradcheck(config_path: str | None, sets: list[str], seed: int | None) -> int:
    cfg = load_run_config(config_path, sets, seed)
    if config_path is None and not any(s.startswith("model.") for s in sets):
        cfg["model"] = dict(GRADCHECK_MODEL_CONFIG)
    model_config = ModelConfig.from_dict({**cfg["model"], "num_classes": 2})
    if model_config.dropout_rate != 0.0:
        model_config.dropout_rate = 0.0  # the check needs a deterministic loss

    rng = Rng(TrainConfig.from_dict(cfg["train"]).seed)
    vocab_size = 10
    # The harness runs at O(1) activations: with the training-time 0.1-scale
    # init, some gate gradients drop below the 1e-8 floor where central
    # differences are pure cancellation noise.  Ids start at 1 because the
    # PAD row's gradient is masked by design and must not be perturbed.
    embedding = init_random(vocab_size, model_config.d, rng.child(1), scale=1.0)
    params = init_params(model_config, rng.child(2), embedding)
    for filt in params.filters:
        filt.data *= 5.0
    params.dense_w.data *= 5.0
    total = params.total_size()
    if total > GRADCHECK_MAX_PARAMS:
        raise ConfigError(
            f"gradcheck config has {total} parameters; keep it at or below "
            f"{GRADCHECK_MAX_PARAMS} so finite differences stay fast"
        )

    data_rng = rng.child(3)
    ids = data_rng.integers(1, vocab_size, (2, model_config.n_max))
    labels = np.array([0, 1], dtype=np.int64)
    batch = EncodedBatch(ids, labels)

    errors = gradient_check(params, model_config, batch)
    for name in sorted(errors):
        print(f"{name} max_rel_err={errors[name]:.3e}")
    worst = max(errors, key=errors.get)
    if errors[worst] < GRADCHECK_TOLERANCE:
        print(f"gradcheck: PASS ({len(errors)} tensors, worst {worst}={errors[worst]:.3e})")
        return EXIT_OK
    print(f"gradcheck: FAIL worst={worst} err={errors[worst]:.3e} tol={GRADCHECK_TOLERANCE:.0e}")
    return EXIT_NUMERIC


def cmd_sweep_ratio(
    config_path: str | None,
    sets: list[str],
    seed: int | None,
    out: str,
    ratios: list[int] | None,
) -> int:
    cfg = load_run_config(config_path, sets, seed)
    ratios = sorted(set(ratios or DEFAULT_RATIOS))
    if any(r < 1 for r in ratios):
        raise ConfigError(f"ratios must be >= 1, got {ratios}")
    dataset_path = _require_dataset(cfg)
    examples, label_names = load_dataset(dataset_path)
    train_config = TrainConfig.from_dict(cfg["train"])

    rows = []
    for ratio in ratios:
        model_config = ModelConfig.from_dict(
            {**cfg["model"], "r": ratio, "num_classes": len(label_names)}
        )
        result = train(model_config, train_config, (examples, label_names), **_train_kwargs(cfg))
        rows.append((ratio, result.report.best_dev_acc))
        print(f"r={ratio} dev_accuracy={result.report.best_dev_acc:.4f}")

    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    csv_path = out_path / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("r,dev_accuracy\n")
        for ratio, acc in rows:
            fh.write(f"{ratio},{acc:.6f}\n")
    print(f"sweep={csv_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secnn",
        description="Squeeze-and-excitation convolutional sentence classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--config", default=None, help="JSON run config")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        if with_out:
            p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("train", help="train a model and write a checkpoint"))
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("dataset")
    p_pred = sub.add_parser("predict", help="classify one sentence")
    p_pred.add_argument("checkpoint")
    p_pred.add_argument("text", nargs="+")
    common(sub.add_parser("gradcheck", help="finite-difference check of every parameter"),
           with_out=False)
    p_sweep = sub.add_parser("sweep-ratio", help="train once per increasing ratio")
    common(p_sweep)
    p_sweep.add_argument("--ratios", default=None,
                         help="comma-separated ratio list (default 2,4,8,16,32,64)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.sets, args.seed, args.out)
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.dataset)
        if args.command == "predict":
            return cmd_predict(args.checkpoint, " ".join(args.text))
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config, args.sets, args.seed)
        if args.command == "sweep-ratio":
            ratios = None
            if args.ratios:
                try:
                    ratios = [int(r) for r in args.ratios.split(",") if r]
                except ValueError:
                    raise ConfigError(f"--ratios must be integers, got {args.ratios!r}")
            return cmd_sweep_ratio(args.config, args.sets, args.seed, args.out, ratios)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
