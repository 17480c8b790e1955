"""Command-line interface.

Subcommands: train, eval, predict, gradcheck, sweep-ratio.  Run configs
are JSON files with four sections (model, embeddings, train, data);
`--set section.key=value` overrides single values, `--seed` is shorthand
for `--set train.seed=...`.  Unknown keys, wrong-type values and
out-of-range values are rejected before any work starts.

Exit codes: 0 success, 1 configuration, checkpoint or output-file error,
2 data error, 3 numeric failure (non-finite loss or a failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .model import ConfigError, ModelConfig, config_from_dict, init_params
from .embeddings import init_random
from .tensor import NumericError, Rng
from .text import DataError, EncodedBatch, load_dataset
from .training import (
    GRADCHECK_TOLERANCE,
    DataConfig,
    EmbeddingsConfig,
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

# The dataclass behind each section of a run config.  The model section has
# no `num_classes`: the dataset's labels give it.
RUN_CONFIG_SECTIONS = {
    "model": ModelConfig, "embeddings": EmbeddingsConfig, "train": TrainConfig, "data": DataConfig
}


def _json_form(section) -> dict:
    return {key: value for key, value in asdict(section).items() if key != "num_classes"}


# Desk-scale defaults; the larger corpus-scale preset from the experiments
# (128 maps per branch, ratio 16, batch 64) is documented in the README.
DEFAULT_RUN_CONFIG: dict = {name: _json_form(cls()) for name, cls in RUN_CONFIG_SECTIONS.items()}

GRADCHECK_MODEL_CONFIG = ModelConfig(
    n_max=7, d=4, filter_sizes=[2, 3], maps_per_branch=2, padding="same", r=2, pieces=2
)


def _set(cfg: dict, dotted: str, value) -> None:
    """`cfg[section][key] = value` for `dotted` = "section.key"; an unknown key raises ConfigError."""
    section, _, key = dotted.partition(".")
    if key not in cfg.get(section, {}):
        raise ConfigError(f"unknown config key {dotted!r}")
    cfg[section][key] = value


def _read_config_file(config_path: str) -> dict:
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(loaded, dict) or not all(isinstance(v, dict) for v in loaded.values()):
        raise ConfigError(f"config file {path} must hold a JSON object of section objects")
    return loaded


def load_run(config_path: str | None, sets: list[str], seed: int | None) -> dict:
    """Defaults, overlaid with the config file, then --set pairs, then --seed,
    parsed into one validated dataclass per section (the model holds the
    default class count until a dataset gives the real one)."""
    cfg = {name: dict(values) for name, values in DEFAULT_RUN_CONFIG.items()}
    if config_path is not None:
        for section, content in _read_config_file(config_path).items():
            if section not in cfg:
                raise ConfigError(f"unknown config section {section!r}")
            for key, value in content.items():
                _set(cfg, f"{section}.{key}", value)
    for pair in sets:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set(cfg, dotted, value)
    if seed is not None:
        _set(cfg, "train.seed", seed)
    return {name: config_from_dict(cls, cfg[name], name) for name, cls in RUN_CONFIG_SECTIONS.items()}


def load_run_config(config_path: str | None, sets: list[str], seed: int | None) -> dict:
    """`load_run` in JSON form: one plain dict per section."""
    return {name: _json_form(section) for name, section in load_run(config_path, sets, seed).items()}


def _check_out_dir(out: str) -> None:
    """Refuse, before any training, an `--out` that could never be a directory:
    the path, or its nearest existing ancestor, is something else."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out}: {path} exists and is not a directory")
            return


def _load_training_set(data: DataConfig):
    if not data.dataset:
        raise ConfigError("data.dataset must point at a label,text CSV file")
    return load_dataset(data.dataset)


# --------------------------------------------------------------------------
# Commands

def cmd_train(config_path: str | None, sets: list[str], seed: int | None, out: str) -> int:
    run = load_run(config_path, sets, seed)
    _check_out_dir(out)
    examples, label_names = _load_training_set(run["data"])
    model_config = replace(run["model"], num_classes=len(label_names))
    result = train(
        model_config, run["train"], (examples, label_names), run["embeddings"], run["data"],
        out_dir=out, log=print,
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
    run = load_run(config_path, sets, seed)
    model_config = run["model"]
    if config_path is None and not any(s.startswith("model.") for s in sets):
        model_config = GRADCHECK_MODEL_CONFIG
    model_config = replace(model_config, dropout_rate=0.0)  # the check needs a deterministic loss

    rng = Rng(run["train"].seed)
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
    run = load_run(config_path, sets, seed)
    ratios = sorted(set(ratios or DEFAULT_RATIOS))
    if any(r < 1 for r in ratios):
        raise ConfigError(f"ratios must be >= 1, got {ratios}")
    _check_out_dir(out)
    examples, label_names = _load_training_set(run["data"])

    rows = []
    for ratio in ratios:
        model_config = replace(run["model"], r=ratio, num_classes=len(label_names))
        result = train(model_config, run["train"], (examples, label_names), run["embeddings"], run["data"])
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
                         help="comma-separated ratio list (default "
                         f"{','.join(map(str, DEFAULT_RATIOS))})")
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
    except OSError as exc:  # a file the system would not write or read, such as an output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
