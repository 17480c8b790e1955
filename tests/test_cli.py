"""CLI behavior: exit codes, config handling, overrides, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

import secnn.tensor
from secnn.cli import (
    DEFAULT_RUN_CONFIG,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    load_run_config,
    main,
)
from secnn.tensor import NumericError, Tensor, record_op

from conftest import make_keyword_dataset, write_dataset_csv


def fast_train_args(csv_path, out_dir, seed=5):
    return [
        "train",
        "--set", "model.n_max=10",
        "--set", "model.d=12",
        "--set", "model.maps_per_branch=4",
        "--set", "train.max_epochs=4",
        "--set", "train.patience=4",
        "--set", f"data.dataset={csv_path}",
        "--seed", str(seed),
        "--out", str(out_dir),
    ]


# --------------------------------------------------------------------------
# Config loading

def test_load_run_config_defaults():
    assert load_run_config(None, [], None) == {
        "model": {
            "n_max": 50, "d": 50, "filter_sizes": [3, 3, 3], "maps_per_branch": 8,
            "padding": "valid", "r": 4, "pieces": 3, "dropout_rate": 0.5,
            "conv_activation": "identity",
        },
        "embeddings": {"trainable": True, "scale": 0.1, "vectors": None},
        "train": {
            "batch_size": 16, "learning_rate": 0.001, "max_epochs": 50,
            "patience": 5, "dev_fraction": 0.1, "seed": 42,
        },
        "data": {"dataset": None, "min_freq": 1, "max_vocab": None},
    }


def test_readme_run_config_block_is_the_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Run config", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULT_RUN_CONFIG


def test_load_run_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"r": 8}, "train": {"seed": 1}}), encoding="utf-8")
    cfg = load_run_config(str(path), ["model.r=32", "embeddings.trainable=false"], seed=9)
    assert cfg["model"]["r"] == 32          # --set beats the file
    assert cfg["embeddings"]["trainable"] is False
    assert cfg["train"]["seed"] == 9        # --seed beats everything


def test_load_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"bogus": 1}}), encoding="utf-8")
    from secnn.model import ConfigError

    with pytest.raises(ConfigError):
        load_run_config(str(path), [], None)
    with pytest.raises(ConfigError):
        load_run_config(None, ["nosuch.key=1"], None)
    with pytest.raises(ConfigError):
        load_run_config(None, ["model.bogus=1"], None)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(None, ["a.b.c=1"], None)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(None, ["model.n_max.x=1"], None)


# --------------------------------------------------------------------------
# train

def test_train_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["train", "--set", "data.dataset=/no/such/file.csv", "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "/no/such/file.csv" in capsys.readouterr().err


def test_train_unset_dataset_exits_1(tmp_path):
    assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["data.dataset", "embeddings.vectors"])
def test_train_directory_path_exits_2(tmp_path, keyword_csv, capsys, key):
    out = tmp_path / "run"
    assert main(fast_train_args(keyword_csv, out) + ["--set", f"{key}={tmp_path}"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b'{"train": {"seed": "\xe9"}}'])
def test_train_unreadable_config_exits_1(tmp_path, capsys, content):
    config = tmp_path / "run.json"
    if content is None:
        config.mkdir()  # a directory where the file should be
    else:
        config.write_bytes(content)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_train_writes_checkpoint_and_report(tmp_path, keyword_csv):
    out = tmp_path / "run"
    assert main(fast_train_args(keyword_csv, out)) == EXIT_OK
    assert (out / "report.csv").exists()
    assert (out / "checkpoint" / "manifest.json").exists()
    assert (out / "checkpoint" / "params.bin").exists()
    assert (out / "checkpoint" / "vocab.txt").exists()
    header = (out / "report.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "epoch,train_loss,train_acc,dev_acc"


def test_train_set_override_model_r(tmp_path, keyword_csv):
    out = tmp_path / "run"
    args = fast_train_args(keyword_csv, out) + ["--set", "model.r=32"]
    assert main(args) == EXIT_OK
    manifest = json.loads((out / "checkpoint" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["model_config"]["r"] == 32


def test_train_determinism_byte_identical_reports(tmp_path, keyword_csv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(fast_train_args(keyword_csv, out1)) == EXIT_OK
    assert main(fast_train_args(keyword_csv, out2)) == EXIT_OK
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_train_config_error_leaves_no_output(tmp_path, keyword_csv):
    out = tmp_path / "run"
    args = fast_train_args(keyword_csv, out) + ["--set", "model.pieces=0"]
    assert main(args) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("override", [
    'train.batch_size="x"',
    'model.n_max="abc"',
    'model.filter_sizes=["a"]',
    'data.min_freq="x"',
    'embeddings.scale="x"',
    'data.max_vocab="x"',
    "embeddings.vectors=5",
    'embeddings.trainable="false"',
    "train.batch_size=2.5",
    "model.n_max=10.5",
    "data.dataset=5",
    "model.filter_sizes=[3.7,3.2,3.9]",  # int() would train [3, 3, 3]
    "data.min_freq=1.9",  # int() would train min_freq 1
    "train.patience=true",  # a bool is an int
    "embeddings.scale=true",  # float(True) would train scale 1.0
    "train.learning_rate=true",
    "model.dropout_rate=false",
    "embeddings.scale=NaN",
    "embeddings.scale=0",
    "embeddings.scale=1e400",  # JSON reads it as inf
    "embeddings.scale=1e308",  # finite, but uniform(-scale, scale) spans inf
    "train.learning_rate=NaN",
    "data.min_freq=-3",
    "data.max_vocab=0",
])
def test_train_wrong_type_config_value_exits_1(tmp_path, keyword_csv, capsys, override):
    out = tmp_path / "run"
    assert main(fast_train_args(keyword_csv, out) + ["--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep-ratio"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file_exits_1_before_training(tmp_path, keyword_csv, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "run" if below else taken
    args = fast_train_args(keyword_csv, out)
    args[0] = command
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert "epoch=" not in captured.out and "r=" not in captured.out  # nothing was trained
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_unwritable_outputs_exit_1_with_one_line(tmp_path, keyword_csv, monkeypatch, capsys):
    import secnn.training as training_mod

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(training_mod, "save_checkpoint", disk_full)
    assert main(fast_train_args(keyword_csv, tmp_path / "run")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "No space left on device" in err


def test_train_numeric_failure_exits_3(tmp_path, keyword_csv, monkeypatch):
    import secnn.cli as cli_mod

    def explode(*args, **kwargs):
        raise NumericError("loss became NaN")

    monkeypatch.setattr(cli_mod, "train", explode)
    assert main(fast_train_args(keyword_csv, tmp_path / "x")) == EXIT_NUMERIC


# --------------------------------------------------------------------------
# eval / predict

@pytest.fixture(scope="module")
def trained_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_train")
    examples, label_names = make_keyword_dataset(64, seed=11)
    csv_path = write_dataset_csv(base / "data.csv", examples, label_names)
    out = base / "run"
    args = [
        "train",
        "--set", "model.n_max=10",
        "--set", "model.d=16",
        "--set", "train.max_epochs=60",
        "--set", "train.patience=60",
        "--set", f"data.dataset={csv_path}",
        "--seed", "5",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    return out / "checkpoint", csv_path, base


def test_eval_prints_accuracy_four_decimals(trained_out, capsys):
    checkpoint, csv_path, _ = trained_out
    assert main(["eval", str(checkpoint), str(csv_path)]) == EXIT_OK
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy=")][0]
    value = line.split("=", 1)[1]
    assert len(value.split(".")[1]) == 4
    assert float(value) >= 0.9


def test_eval_row_shuffled_dataset_identical(trained_out, tmp_path, capsys):
    checkpoint, csv_path, _ = trained_out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    shuffled = [lines[0]] + lines[:0:-1]
    other = tmp_path / "shuffled.csv"
    other.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    assert main(["eval", str(checkpoint), str(csv_path)]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["eval", str(checkpoint), str(other)]) == EXIT_OK
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_eval_label_mismatch_exits_1(trained_out, tmp_path):
    checkpoint, _, _ = trained_out
    examples, _ = make_keyword_dataset(10, seed=2)
    bad = write_dataset_csv(tmp_path / "bad.csv", examples, ["x", "y"])
    assert main(["eval", str(checkpoint), str(bad)]) == EXIT_CONFIG


def test_eval_missing_dataset_exits_2(trained_out, tmp_path):
    checkpoint, _, _ = trained_out
    assert main(["eval", str(checkpoint), "/no/such/data.csv"]) == EXIT_DATA
    assert main(["eval", str(checkpoint), str(tmp_path)]) == EXIT_DATA  # a directory


def test_eval_missing_checkpoint_exits_1(trained_out):
    _, csv_path, _ = trained_out
    assert main(["eval", "/no/such/checkpoint", str(csv_path)]) == EXIT_CONFIG


def test_eval_corrupted_manifest_exits_1(trained_out, tmp_path):
    import shutil

    checkpoint, csv_path, _ = trained_out
    broken = tmp_path / "broken_ck"
    shutil.copytree(checkpoint, broken)
    (broken / "manifest.json").write_text("{oops", encoding="utf-8")
    assert main(["eval", str(broken), str(csv_path)]) == EXIT_CONFIG


def test_eval_non_utf8_dataset_exits_2(trained_out, tmp_path, capsys):
    checkpoint, _, _ = trained_out
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"label,text\nneg,caf\xe9\n")
    assert main(["eval", str(checkpoint), str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_train_non_utf8_vectors_exit_2(tmp_path, keyword_csv, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes(b"caf\xe9 1 2 3\n")
    args = fast_train_args(keyword_csv, tmp_path / "out") + ["--set", f"embeddings.vectors={vectors}"]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err


def test_eval_non_utf8_manifest_exits_1(trained_out, tmp_path, capsys):
    import shutil

    checkpoint, csv_path, _ = trained_out
    broken = tmp_path / "broken_ck"
    shutil.copytree(checkpoint, broken)
    (broken / "manifest.json").write_bytes(b'{"format_version": "\xe9"}')
    assert main(["eval", str(broken), str(csv_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", ["manifest.json", "params.bin", "vocab.txt"])
def test_predict_checkpoint_file_is_directory_exits_1(trained_out, tmp_path, capsys, name):
    import shutil

    checkpoint, _, _ = trained_out
    broken = tmp_path / "broken_ck"
    shutil.copytree(checkpoint, broken)
    (broken / name).unlink()
    (broken / name).mkdir()
    assert main(["predict", str(broken), "a b c"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert name in err


def test_predict_non_finite_tensor_exits_1_naming_it(trained_out, tmp_path, capsys):
    import shutil

    checkpoint, _, _ = trained_out
    broken = tmp_path / "broken_ck"
    shutil.copytree(checkpoint, broken)
    manifest = json.loads((broken / "manifest.json").read_text(encoding="utf-8"))
    offset = next(e["byte_offset"] for e in manifest["tensors"] if e["name"] == "se_w2")
    blob = bytearray((broken / "params.bin").read_bytes())
    blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    (broken / "params.bin").write_bytes(bytes(blob))
    assert main(["predict", str(broken), "a b c"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "'se_w2'" in err


def test_predict_outputs_label_and_probs(trained_out, capsys):
    checkpoint, _, _ = trained_out
    examples, label_names = make_keyword_dataset(64, seed=11)
    sample = examples[0]  # class 0 -> label "a"
    assert label_names[sample.label] == "a"
    assert main(["predict", str(checkpoint), sample.text]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "label=a"
    assert out[1].startswith("probs a=")


# --------------------------------------------------------------------------
# gradcheck

def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("embedding", "filters.0", "filters.1", "se_w1", "se_w2", "dense_w", "dense_b"):
        assert name in out
    assert "PASS" in out


def test_gradcheck_corrupted_backward_exits_3(monkeypatch, capsys):
    # negative control: break relu's recorded gradient and the check must fail
    def bad_relu(a):
        a = a if isinstance(a, Tensor) else Tensor(a)
        out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad)

        def bw(g):
            return (g,)  # wrong: ignores the dead region

        record_op(out, (a,), bw)
        return out

    monkeypatch.setattr(secnn.tensor, "relu", bad_relu)
    assert main(["gradcheck"]) == EXIT_NUMERIC
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_oversized_config():
    assert main(["gradcheck", "--set", "model.d=64", "--set", "model.n_max=64"]) == EXIT_CONFIG


def test_gradcheck_wrong_type_seed_exits_1(capsys):
    assert main(["gradcheck", "--set", 'train.seed="x"']) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


# --------------------------------------------------------------------------
# sweep-ratio

def test_sweep_ratio_writes_sorted_csv(tmp_path, keyword_csv, capsys):
    out = tmp_path / "sweep"
    args = [
        "sweep-ratio",
        "--set", "model.n_max=10",
        "--set", "model.d=12",
        "--set", "model.maps_per_branch=4",
        "--set", "train.max_epochs=3",
        "--set", "train.patience=3",
        "--set", f"data.dataset={keyword_csv}",
        "--seed", "5",
        "--out", str(out),
        "--ratios", "8,2",
    ]
    assert main(args) == EXIT_OK
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r,dev_accuracy"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "8"]


def test_sweep_ratio_single_value(tmp_path, keyword_csv):
    out = tmp_path / "sweep"
    args = [
        "sweep-ratio",
        "--set", "model.n_max=10",
        "--set", "model.d=12",
        "--set", "model.maps_per_branch=4",
        "--set", "train.max_epochs=2",
        "--set", "train.patience=2",
        "--set", f"data.dataset={keyword_csv}",
        "--out", str(out),
        "--ratios", "16",
    ]
    assert main(args) == EXIT_OK
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("16,")


def test_sweep_ratio_deterministic(tmp_path, keyword_csv):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        args = [
            "sweep-ratio",
            "--set", "model.n_max=10",
            "--set", "model.d=12",
            "--set", "model.maps_per_branch=4",
            "--set", "train.max_epochs=2",
            "--set", "train.patience=2",
            "--set", f"data.dataset={keyword_csv}",
            "--seed", "3",
            "--out", str(out),
            "--ratios", "2,4",
        ]
        assert main(args) == EXIT_OK
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]
