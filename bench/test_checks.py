"""Each benchmark check passes on the program's real output and fails on a
perturbed one.  Run with ``python -m pytest bench/test_checks.py``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secnn import checkpoint, embeddings, model, text, training  # noqa: E402
from secnn import tensor as tc  # noqa: E402
from secnn.tensor import Rng  # noqa: E402

import reference  # noqa: E402
from harness import directional_derivatives  # noqa: E402
from reference import CheckFailed  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SENTENCES = [
    ("neg", "A dull, tired plot."),
    ("pos", "A quietly moving story!"),
    ("neg", "Flat characters and a \"twist\" nobody needed."),
    ("pos", "Warm, funny and sharp."),
]

CONFIGS = {
    "valid_identity": dict(filter_sizes=[3, 3], padding="valid", conv_activation="identity"),
    "same_relu": dict(filter_sizes=[3, 4, 5], padding="same", conv_activation="relu"),
}


def _tiny_model(tmp_path: Path, **overrides):
    examples = [text.LabeledExample(t, ["neg", "pos"].index(label)) for label, t in SENTENCES]
    vocab = text.build_vocab(examples)
    config = model.ModelConfig(n_max=9, d=6, maps_per_branch=3, r=2, pieces=2, **overrides)
    rng = Rng(5)
    params = model.init_params(config, rng.child(1), embeddings.init_random(len(vocab), config.d, rng.child(2), scale=1.0))
    ckpt = checkpoint.save_checkpoint(tmp_path / "ckpt", params, config, ["neg", "pos"], vocab)
    return examples, ckpt


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reference_agrees_with_predict_and_catches_a_perturbed_parameter(tmp_path, name):
    _, ckpt = _tiny_model(tmp_path, **CONFIGS[name])
    ref = reference.ReferenceModel.load(ckpt)
    texts = [t for _, t in SENTENCES] + ["all unknown words here"]
    ref_probs = ref.probabilities(texts)
    ref_labels = [ref.labels[i] for i in ref_probs.argmax(axis=1)]
    params, config, label_names, vocab = checkpoint.load_checkpoint(ckpt)

    def outputs():
        results = [training.predict(params, config, vocab, label_names, t) for t in texts]
        return np.stack([p for _, p in results]), [label for label, _ in results]

    probs, labels = outputs()
    reference.check_predictions(ref_probs, probs, ref_labels, labels)

    with pytest.raises(CheckFailed, match="probabilities"):
        reference.check_predictions(ref_probs, probs + np.array([2e-9, -2e-9]), ref_labels, labels)
    flipped = [{"neg": "pos", "pos": "neg"}[labels[0]]] + labels[1:]
    with pytest.raises(CheckFailed, match="labels"):
        reference.check_predictions(ref_probs, probs, ref_labels, flipped)
    params.dense_b.data[0] += 1e-6  # a program whose logits are off by 1e-6
    with pytest.raises(CheckFailed, match="probabilities"):
        reference.check_predictions(ref_probs, outputs()[0], ref_labels, labels)


def test_accuracy_check_catches_an_off_by_one_count_and_a_wrong_printed_line(tmp_path):
    examples, ckpt = _tiny_model(tmp_path, **CONFIGS["valid_identity"])
    ref = reference.ReferenceModel.load(ckpt)
    truth = np.array([ex.label for ex in examples])
    correct = int((ref.probabilities([ex.text for ex in examples]).argmax(axis=1) == truth).sum())
    params, config, _, vocab = checkpoint.load_checkpoint(ckpt)
    accuracy = training.evaluate(params, config, vocab, examples).accuracy
    printed = f"accuracy={accuracy:.4f}"
    reference.check_accuracy(correct, len(examples), accuracy, printed)

    with pytest.raises(CheckFailed, match="evaluate accuracy"):
        reference.check_accuracy(correct, len(examples), (correct + 1) / len(examples), printed)
    with pytest.raises(CheckFailed, match="printed"):
        reference.check_accuracy(correct, len(examples), accuracy, f"accuracy={accuracy + 0.25:.4f}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_directional_gradients_catch_a_wrong_backward(tmp_path, monkeypatch, name):
    examples, ckpt = _tiny_model(tmp_path, **CONFIGS[name])
    params, config, _, vocab = checkpoint.load_checkpoint(ckpt)
    batch = text.encode_examples(examples, vocab, config.n_max)
    cases = directional_derivatives(params, config, batch.ids, batch.labels, seed=3)
    assert [label for label, _, _ in cases][1:] == [f"the {n} gradient" for n, _ in params.trainable_tensors()]
    reference.check_directional_gradients(cases)

    label, analytic, loss_along = cases[0]
    with pytest.raises(CheckFailed, match="random direction"):
        reference.check_directional_gradients([(label, analytic * (1 + 1e-3), loss_along)])

    def se_scale(stacked, gates):  # the program's se_scale with the gate gradient 1% too large
        expanded = gates.data[:, None, None, :]
        out = tc.Tensor(stacked.data * expanded, requires_grad=True)
        tc.record_op(out, (stacked, gates), lambda g: (g * expanded, 1.01 * (g * stacked.data).sum(axis=(1, 2))))
        return out

    monkeypatch.setattr(model, "se_scale", se_scale)
    with pytest.raises(CheckFailed, match="derivative along"):
        reference.check_directional_gradients(directional_derivatives(params, config, batch.ids, batch.labels, seed=3))


def test_bitwise_check_catches_one_ulp():
    losses = [np.array(0.6931471805599453), np.array(0.5)]
    reference.check_bitwise("losses", losses, [a.copy() for a in losses])
    with pytest.raises(CheckFailed, match="item 1"):
        reference.check_bitwise("losses", losses, [losses[0], np.nextafter(losses[1], 1.0)])


def test_static_rows_and_dev_floor_catch_perturbed_outputs(tmp_path):
    workload = WORKLOADS["static_relu"]
    inputs = generate(workload, seed=0, workdir=tmp_path)
    vectors = reference.read_vectors(inputs.vectors)
    token_ids = {tok: i + 2 for i, tok in enumerate(sorted(vectors)[:50])}
    token_ids["not-in-the-file"] = 60
    embedding = np.zeros((61, workload.model["d"]), dtype=np.float32)
    for tok, i in token_ids.items():
        if tok in vectors:
            embedding[i] = vectors[tok]
    assert reference.check_static_rows(embedding, token_ids, vectors) == 50
    embedding[7, 3] = np.nextafter(embedding[7, 3], np.float32(1.0))
    with pytest.raises(CheckFailed, match="differ from the vectors file"):
        reference.check_static_rows(embedding, token_ids, vectors)

    report = "epoch,train_loss,train_acc,dev_acc\n1,0.400000,0.990000,0.985000\n"
    assert reference.check_dev_floor(report, 0.95) == 0.985
    with pytest.raises(CheckFailed, match="below the floor"):
        reference.check_dev_floor(report.replace("0.985000", "0.512000"), 0.95)


def test_generators_are_pinned_by_the_seed(tmp_path):
    workload = WORKLOADS["corpus_se"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory in dirs:
        directory.mkdir()
    first, again, other = (generate(workload, seed, d) for seed, d in zip((4, 4, 5), dirs))
    assert first.train_csv.read_bytes() == again.train_csv.read_bytes()
    assert first.heldout_csv.read_bytes() == again.heldout_csv.read_bytes()
    assert first.train_csv.read_bytes() != other.train_csv.read_bytes()
    examples, labels = text.load_dataset(first.train_csv)
    assert labels == ["neg", "pos"] and len(examples) == workload.corpus_size


def test_tracer_leaves_results_bitwise_equal_and_charges_backward_to_stages(tmp_path):
    from tracing import Tracer

    examples, ckpt = _tiny_model(tmp_path, **CONFIGS["same_relu"])
    params, config, _, vocab = checkpoint.load_checkpoint(ckpt)
    batch = text.encode_examples(examples, vocab, config.n_max)

    def step():
        with tc.GradTape() as tape:
            loss = training.cross_entropy_loss(model.forward(params, config, batch.ids, training=True, rng=Rng(1)), batch.labels)
        grads = tc.backward(loss, tape)
        return [loss.data] + [grads[t].data for _, t in params.trainable_tensors()]

    untraced = step()
    tracer = Tracer()
    tracer.install()
    try:
        traced = step()
    finally:
        tracer.uninstall()
    reference.check_bitwise("traced step", untraced, traced)
    names = {s.name for s in tracer.spans}
    for stage in ("embeddings.lookup", "model.conv", "model.stack", "model.squeeze", "model.excite",
                  "model.scale", "model.sum", "model.pool", "model.head", "training.loss"):
        assert f"{stage}.fwd" in names and f"{stage}.bwd" in names, stage
    assert model.forward.__name__ == "forward" and not hasattr(model.forward, "__wrapped__")


def test_benchmark_json_lists_the_workloads_and_metrics_the_harness_reports():
    import json

    import run
    from harness import END_TO_END, PER_LAYER

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
