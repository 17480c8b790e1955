"""Checkpoint round trips and corruption rejection."""

import json
from pathlib import Path

import numpy as np
import pytest

from secnn import Rng
from secnn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from secnn.embeddings import init_random
from secnn.model import ModelConfig, init_params
from secnn.text import LabeledExample, Vocabulary, build_vocab
from secnn.training import TrainConfig, evaluate, predict, train

from conftest import make_keyword_dataset


@pytest.fixture(scope="module")
def trained_result():
    data = make_keyword_dataset(64, seed=11)
    cfg = ModelConfig(
        n_max=10, d=12, filter_sizes=[3, 3], maps_per_branch=4, padding="valid",
        r=2, pieces=3, dropout_rate=0.5, num_classes=2,
    )
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=15, patience=15, seed=5)
    return train(cfg, tcfg, data), data[0]


def test_roundtrip_evaluate_bit_identical(tmp_path, trained_result):
    result, examples = trained_result
    first_dir = save_checkpoint(tmp_path / "ck1", result.params, result.config,
                                result.label_names, result.vocab)
    p1, c1, l1, v1 = load_checkpoint(first_dir)
    save_checkpoint(tmp_path / "ck2", p1, c1, l1, v1)
    p2, c2, l2, v2 = load_checkpoint(tmp_path / "ck2")

    # loaded parameters survive a save/load cycle bit for bit
    for (n1, t1), (n2, t2) in zip(p1.named_tensors(), p2.named_tensors()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data), n1

    e1 = evaluate(p1, c1, v1, examples)
    e2 = evaluate(p2, c2, v2, examples)
    assert e1.accuracy == e2.accuracy
    assert np.array_equal(e1.confusion, e2.confusion)

    text = examples[0].text
    label1, probs1 = predict(p1, c1, v1, l1, text)
    label2, probs2 = predict(p2, c2, v2, l2, text)
    assert label1 == label2
    assert np.array_equal(probs1, probs2)


def test_roundtrip_preserves_metadata(tmp_path, trained_result):
    result, _ = trained_result
    ck = save_checkpoint(tmp_path / "ck", result.params, result.config,
                         result.label_names, result.vocab)
    params, config, label_names, vocab = load_checkpoint(ck)
    assert config == result.config
    assert label_names == result.label_names
    assert vocab.tokens() == result.vocab.tokens()
    assert params.embedding.trainable == result.params.embedding.trainable


def test_train_result_predicts_as_reloaded_checkpoint(tmp_path, trained_result):
    # train() returns the parameters at the precision the checkpoint stores
    result, examples = trained_result
    ck = save_checkpoint(tmp_path / "ck", result.params, result.config,
                         result.label_names, result.vocab)
    params, config, label_names, vocab = load_checkpoint(ck)
    for ex in examples[:16]:
        label1, probs1 = predict(result.params, result.config, result.vocab,
                                 result.label_names, ex.text)
        label2, probs2 = predict(params, config, vocab, label_names, ex.text)
        assert label1 == label2
        assert np.array_equal(probs1, probs2)


def make_small_checkpoint(tmp_path):
    vocab = build_vocab([LabeledExample("one two three", 0), LabeledExample("four five", 1)])
    cfg = ModelConfig(
        n_max=6, d=4, filter_sizes=[2], maps_per_branch=2, padding="valid",
        r=2, pieces=2, dropout_rate=0.0, num_classes=2,
    )
    rng = Rng(50)
    params = init_params(cfg, rng.child(1), init_random(len(vocab), cfg.d, rng.child(2)))
    return save_checkpoint(tmp_path / "ck", params, cfg, ["neg", "pos"], vocab)


def test_readme_tensor_entry_is_what_save_writes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Checkpoint**", 1)[1]
    documented = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    vocab = Vocabulary([f"w{i}" for i in range(998)])  # 1,000 ids with <pad> and <unk>
    cfg = ModelConfig()
    rng = Rng(1)
    params = init_params(cfg, rng.child(1), init_random(len(vocab), cfg.d, rng.child(2)))
    ck = save_checkpoint(tmp_path / "ck", params, cfg, ["neg", "pos"], vocab)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    assert documented in manifest["tensors"]


def test_rejects_corrupt_manifest_json(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    (ck / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)


def test_rejects_unknown_format_version(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 99
    (ck / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(ck)
    assert "version" in str(exc.value)


def test_rejects_shape_mismatch(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    entry = next(e for e in manifest["tensors"] if e["name"] == "se_w1")
    entry["shape"] = [3, 3]
    (ck / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(ck)
    assert "se_w1" in str(exc.value)


def test_rejects_truncated_params_bin(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    blob = (ck / "params.bin").read_bytes()
    (ck / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)


def test_rejects_missing_files(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    (ck / "params.bin").unlink()
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "does-not-exist")


def test_rejects_missing_tensor_entry(tmp_path):
    ck = make_small_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    dropped = [e for e in manifest["tensors"] if e["name"] != "dense_b"]
    manifest["tensors"] = dropped
    (ck / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)


def _non_object_entry(manifest):
    manifest["tensors"][0] = "embedding"


def _mixed_type_label_ids(manifest):
    manifest["label_map"] = {"neg": 0, "pos": "1"}


def _non_list_shape(manifest):
    manifest["tensors"][0]["shape"] = 5


def _bool_format_version(manifest):
    manifest["format_version"] = True  # equals 1 in Python, not in JSON


def _string_trainable_flag(manifest):
    manifest["embedding_trainable"] = "false"


def _float_byte_offset(manifest):
    manifest["tensors"][0]["byte_offset"] = 0.0


def _bool_byte_offset(manifest):
    manifest["tensors"][0]["byte_offset"] = False


def _float_shape(manifest):
    manifest["tensors"][0]["shape"][0] = float(manifest["tensors"][0]["shape"][0])


def _swapped_entries(manifest):
    # se_w1 (M*r, M) and se_w2 (M, M*r) have the same byte length, so the
    # swapped table still tiles params.bin: only its order is wrong
    table = manifest["tensors"]
    i = next(i for i, e in enumerate(table) if e["name"] == "se_w1")
    table[i], table[i + 1] = table[i + 1], table[i]
    table[i]["byte_offset"], table[i + 1]["byte_offset"] = (
        table[i + 1]["byte_offset"], table[i]["byte_offset"])


@pytest.mark.parametrize("corrupt", [
    _non_object_entry, _mixed_type_label_ids, _non_list_shape, _bool_format_version,
    _string_trainable_flag, _float_byte_offset, _bool_byte_offset, _float_shape, _swapped_entries,
])
def test_rejects_malformed_manifest_schema(tmp_path, corrupt):
    ck = make_small_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    corrupt(manifest)
    (ck / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)
