"""Training: loss oracle, Adam trace, the epoch loop, evaluation, prediction."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import secnn.tensor as tc
import secnn.training as training
from secnn import GradTape, Rng, backward
from secnn.embeddings import init_random
from secnn.model import ConfigError, ModelConfig, config_from_dict, forward, init_params
from secnn.tensor import NumericError, ShapeError, Tensor, record_op
from secnn.text import EncodedBatch, build_vocab, split_train_dev
from secnn.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EVAL_BATCH,
    DataConfig,
    EmbeddingsConfig,
    OptimizerState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    evaluate,
    predict,
    train,
)

from conftest import make_keyword_dataset


# --------------------------------------------------------------------------
# Cross-entropy

def test_uniform_logits_give_log_class_count():
    loss = cross_entropy_loss(Tensor([[0.0, 0.0]]), np.array([0]))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_saturated_correct_class_near_zero():
    loss = cross_entropy_loss(Tensor([[10.0, -10.0]]), np.array([0]))
    assert 0.0 < loss.item() < 1e-8


def test_cross_entropy_matches_naive_formula():
    rng = Rng(21)
    logits = rng.uniform(-3, 3, (5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    got = cross_entropy_loss(Tensor(logits), labels).item()
    naive = 0.0
    for row, y in zip(logits, labels):
        naive -= math.log(math.exp(row[y]) / sum(math.exp(v) for v in row))
    assert abs(got - naive / 5) < 1e-12


def test_cross_entropy_stable_at_large_logits():
    loss = cross_entropy_loss(Tensor([[1000.0, -1000.0]]), np.array([1]))
    assert loss.item() == pytest.approx(2000.0)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy_loss(Tensor([[0.0, 0.0]]), np.array([2]))
    with pytest.raises(ShapeError):
        cross_entropy_loss(Tensor([[0.0, 0.0]]), np.array([0, 1]))


def test_cross_entropy_gradient_matches_fd():
    rng = Rng(22)
    logits = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
    labels = np.array([0, 1, 2, 1])
    with GradTape() as tape:
        loss = cross_entropy_loss(logits, labels)
    grads = backward(loss, tape)
    fd = tc.finite_diff_grad(
        lambda t: cross_entropy_loss(t, labels).item(), logits, h=1e-5
    )
    denom = np.maximum(np.maximum(np.abs(grads[logits].data), np.abs(fd.data)), 1e-8)
    assert np.max(np.abs(grads[logits].data - fd.data) / denom) < 1e-6


def test_initial_loss_near_log_c():
    # fresh random model on balanced classes: loss should start near ln C
    for classes in (2, 4):
        cfg = ModelConfig(
            n_max=8, d=6, filter_sizes=[3], maps_per_branch=4, padding="valid",
            r=2, pieces=2, dropout_rate=0.0, num_classes=classes,
        )
        rng = Rng(23 + classes)
        emb = init_random(20, cfg.d, rng.child(1))
        params = init_params(cfg, rng.child(2), emb)
        ids = rng.child(3).integers(1, 20, (64, cfg.n_max))
        labels = np.arange(64) % classes
        loss = cross_entropy_loss(forward(params, cfg, ids), labels).item()
        assert abs(loss - math.log(classes)) / math.log(classes) < 0.10


# --------------------------------------------------------------------------
# Adam

SCALAR_CONFIG = ModelConfig(
    n_max=4, d=2, filter_sizes=[2], maps_per_branch=1, padding="valid",
    r=1, pieces=1, dropout_rate=0.0, num_classes=2,
)


def scalar_params():
    rng = Rng(24)
    emb = init_random(4, SCALAR_CONFIG.d, rng.child(1))
    return init_params(SCALAR_CONFIG, rng.child(2), emb)


def grads_for(params, value: float):
    return {t: Tensor(np.full(t.shape, value)) for _, t in params.trainable_tensors()}


def test_adam_first_step_magnitude_is_lr():
    params = scalar_params()
    state = OptimizerState.for_params(params)
    before = {n: t.data.copy() for n, t in params.trainable_tensors()}
    adam_step(params, grads_for(params, 0.5), state, lr=1e-3)
    for name, t in params.trainable_tensors():
        step = before[name] - t.data
        assert np.allclose(step, 1e-3, rtol=1e-6), name


def test_adam_zero_gradient_no_change():
    params = scalar_params()
    state = OptimizerState.for_params(params)
    before = {n: t.data.copy() for n, t in params.trainable_tensors()}
    adam_step(params, grads_for(params, 0.0), state, lr=1e-3)
    for name, t in params.trainable_tensors():
        assert np.array_equal(before[name], t.data), name


def test_adam_two_step_hand_trace():
    # scalar trace with lr=0.1, gradients 0.5 then -0.25, evaluated by hand
    # from the moment recurrences (bias-corrected, beta1=0.9, beta2=0.999)
    w = Tensor(np.array([1.0]), requires_grad=True)

    class OneParam:
        def trainable_tensors(self):
            return [("w", w)]

    state = OptimizerState(first={"w": np.zeros(1)}, second={"w": np.zeros(1)})
    adam_step(OneParam(), {w: Tensor([0.5])}, state, lr=0.1)
    assert w.data[0] == pytest.approx(0.900000002, abs=1e-12)
    adam_step(OneParam(), {w: Tensor([-0.25])}, state, lr=0.1)
    assert w.data[0] == pytest.approx(0.8733662987078463, abs=1e-12)
    assert state.step == 2


def test_adam_missing_gradient_raises():
    params = scalar_params()
    state = OptimizerState.for_params(params)
    grads = grads_for(params, 0.1)
    del grads[params.dense_b]
    with pytest.raises(ValueError) as exc:
        adam_step(params, grads, state, lr=1e-3)
    assert "dense_b" in str(exc.value)


class LooseParams:
    """Stand-in for ModelParams: just named trainable tensors."""

    def __init__(self, tensors):
        self.tensors = tensors

    def trainable_tensors(self):
        return self.tensors


def test_in_place_adam_matches_out_of_place_reference_bitwise():
    rng = Rng(40)
    shapes = [tuple(int(s) for s in rng.integers(1, 6, int(rng.integers(1, 4)))) for _ in range(5)]
    tensors = [(f"p{i}", Tensor(rng.uniform(-1, 1, shape), requires_grad=True)) for i, shape in enumerate(shapes)]
    params = LooseParams(tensors)
    state = OptimizerState(
        first={n: np.zeros(t.shape) for n, t in tensors},
        second={n: np.zeros(t.shape) for n, t in tensors},
    )
    ref = {n: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for n, t in tensors}
    for step in range(1, 41):
        lr = float(rng.uniform(1e-4, 1e-1))
        grads = {t: Tensor(rng.uniform(-1, 1, t.shape) * 10.0 ** rng.integers(-6, 4)) for _, t in tensors}
        adam_step(params, grads, state, lr)
        for name, t in tensors:
            p, m, v = ref[name]
            g = grads[t].data
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            p = p - lr * (m / (1.0 - ADAM_BETA1**step)) / (np.sqrt(v / (1.0 - ADAM_BETA2**step)) + ADAM_EPS)
            ref[name] = (p, m, v)
            assert p.tobytes() == t.data.tobytes(), (name, step)
            assert m.tobytes() == state.first[name].tobytes(), (name, step)
            assert v.tobytes() == state.second[name].tobytes(), (name, step)
    assert state.step == 40


def test_adam_step_allocates_no_parameter_sized_temporaries():
    w = Tensor(np.zeros((256, 512)), requires_grad=True)  # 1 MiB
    params = LooseParams([("w", w)])
    state = OptimizerState(first={"w": np.zeros(w.shape)}, second={"w": np.zeros(w.shape)})
    grads = {w: Tensor(np.full(w.shape, 0.5))}
    adam_step(params, grads, state, lr=1e-3)  # the first update makes the work buffers
    tracemalloc.start()
    try:
        adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.data.nbytes / 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_gradient_stops_adam_before_any_write(bad):
    params = scalar_params()
    state = OptimizerState.for_params(params)
    adam_step(params, grads_for(params, 0.1), state, lr=1e-3)  # non-zero moments
    before = (
        [t.data.copy() for _, t in params.trainable_tensors()],
        {n: m.copy() for n, m in state.first.items()},
        {n: v.copy() for n, v in state.second.items()},
    )
    ids = np.array([[2, 3, 1, 0], [3, 2, 2, 1]])
    with GradTape() as tape:
        logits = forward(params, SCALAR_CONFIG, ids)
        poisoned = Tensor(logits.data, requires_grad=True)  # an intermediate whose backward blows up
        record_op(poisoned, (logits,), lambda g: (np.full(logits.shape, bad),))
        loss = cross_entropy_loss(poisoned, np.array([0, 1]))
    with np.errstate(invalid="ignore"):  # inf * 0 in the backward matmuls
        grads = backward(loss, tape)

    with pytest.raises(NumericError, match="'embedding'"):
        adam_step(params, grads, state, lr=1e-3)
    assert state.step == 1
    for (_, t), saved in zip(params.trainable_tensors(), before[0]):
        assert np.array_equal(t.data, saved)
    for name in state.first:
        assert np.array_equal(state.first[name], before[1][name])
        assert np.array_equal(state.second[name], before[2][name])


def test_adam_nonfinite_update_raises():
    params = scalar_params()
    state = OptimizerState.for_params(params)
    grads = grads_for(params, 1.0)
    with pytest.raises(NumericError):
        adam_step(params, grads, state, lr=1e309)


@pytest.mark.parametrize("seed", range(10))
def test_adam_step_decreases_loss_on_separable_batch(seed):
    cfg = ModelConfig(
        n_max=6, d=8, filter_sizes=[3], maps_per_branch=4, padding="valid",
        r=2, pieces=2, dropout_rate=0.0, num_classes=2,
    )
    rng = Rng(100 + seed)
    emb = init_random(12, cfg.d, rng.child(1), scale=0.5)
    params = init_params(cfg, rng.child(2), emb)
    ids = rng.child(3).integers(2, 12, (8, cfg.n_max))
    ids[:4, 0] = 2   # class-0 marker token
    ids[4:, 0] = 3   # class-1 marker token
    labels = np.array([0] * 4 + [1] * 4)
    batch = EncodedBatch(ids, labels)

    state = OptimizerState.for_params(params)
    with GradTape() as tape:
        loss0 = cross_entropy_loss(forward(params, cfg, batch.ids), batch.labels)
    grads = backward(loss0, tape)
    adam_step(params, grads, state, lr=1e-3)
    loss1 = cross_entropy_loss(forward(params, cfg, batch.ids), batch.labels)
    assert loss1.item() < loss0.item()


# --------------------------------------------------------------------------
# Train loop

def desk_config(**overrides):
    defaults = dict(
        n_max=10, d=16, filter_sizes=[3, 3, 3], maps_per_branch=8, padding="valid",
        r=4, pieces=3, dropout_rate=0.5, num_classes=2,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def test_train_reaches_high_accuracy_on_separable_data(keyword_dataset):
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=60, patience=60, seed=5)
    result = train(cfg, tcfg, keyword_dataset)
    assert max(e.train_acc for e in result.report.epochs) >= 0.98


def test_train_same_seed_identical_loss_sequence(keyword_dataset):
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=5, patience=5, seed=7)
    a = train(cfg, tcfg, keyword_dataset)
    b = train(cfg, tcfg, keyword_dataset)
    assert [e.train_loss for e in a.report.epochs] == [e.train_loss for e in b.report.epochs]
    assert a.report.to_csv() == b.report.to_csv()


def test_train_patience_zero_stops_after_first_non_improving(keyword_dataset):
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=50, patience=0, seed=3)
    result = train(cfg, tcfg, keyword_dataset)
    epochs = result.report.epochs
    assert len(epochs) < 50
    # the run ends exactly one epoch after the last improvement
    assert epochs[-1].epoch == result.report.best_epoch + 1


def test_train_best_dev_is_max_over_epochs(keyword_dataset):
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=8, patience=8, seed=9)
    result = train(cfg, tcfg, keyword_dataset)
    assert result.report.best_dev_acc == max(e.dev_acc for e in result.report.epochs)


def test_train_rejects_class_count_mismatch(keyword_dataset):
    cfg = desk_config(num_classes=3)
    tcfg = TrainConfig(batch_size=16, max_epochs=1, seed=1)
    with pytest.raises(ConfigError):
        train(cfg, tcfg, keyword_dataset)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(dev_fraction=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        config_from_dict(TrainConfig, {"batch_size": 4, "bogus": 1}, "train")
    for bad_embeddings in ({"scale": 0.0}, {"scale": -1.0}, {"scale": float("inf")}):
        with pytest.raises(ConfigError):
            EmbeddingsConfig(**bad_embeddings)
    for bad_data in ({"min_freq": 0}, {"min_freq": -3}, {"max_vocab": 1}, {"max_vocab": -5}):
        with pytest.raises(ConfigError):
            DataConfig(**bad_data)


# --------------------------------------------------------------------------
# Evaluate / predict

@pytest.fixture(scope="module")
def trained():
    examples, label_names = make_keyword_dataset(64, seed=11)
    cfg = ModelConfig(
        n_max=10, d=16, filter_sizes=[3, 3, 3], maps_per_branch=8, padding="valid",
        r=4, pieces=3, dropout_rate=0.5, num_classes=2,
    )
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=40, patience=40, seed=5)
    return train(cfg, tcfg, (examples, label_names)), examples


def test_evaluate_all_correct_is_one(trained):
    result, examples = trained
    ev = evaluate(result.params, result.config, result.vocab, examples)
    assert ev.accuracy == 1.0
    assert np.trace(ev.confusion) == len(examples)


def test_evaluate_matches_hand_counted_confusion(trained):
    result, examples = trained
    subset = examples[:10]
    ev = evaluate(result.params, result.config, result.vocab, subset)
    by_hand = np.zeros((2, 2), dtype=np.int64)
    for ex in subset:
        label, _ = predict(result.params, result.config, result.vocab, result.label_names, ex.text)
        by_hand[ex.label, result.label_names.index(label)] += 1
    assert np.array_equal(ev.confusion, by_hand)
    assert ev.accuracy == np.trace(by_hand) / 10


def test_evaluate_row_order_invariant(trained):
    result, examples = trained
    forwards = evaluate(result.params, result.config, result.vocab, examples)
    backwards = evaluate(result.params, result.config, result.vocab, examples[::-1])
    assert forwards.accuracy == backwards.accuracy
    assert np.array_equal(forwards.confusion, backwards.confusion)


def count_eval_forwards(monkeypatch) -> list[int]:
    """Patch the `forward` the training module calls; the returned list gets
    the batch size of every dropout-off call."""
    sizes, inner = [], training.forward

    def counted(params, config, batch, **kwargs):
        if not kwargs.get("training", False):
            sizes.append(len(batch))
        return inner(params, config, batch, **kwargs)

    monkeypatch.setattr(training, "forward", counted)
    return sizes


def test_evaluate_forwards_eval_batch_sentences_at_a_time(trained, monkeypatch):
    result, examples = trained
    sizes = count_eval_forwards(monkeypatch)
    evaluate(result.params, result.config, result.vocab, (examples * 3)[: 2 * EVAL_BATCH + 8])
    assert sizes == [EVAL_BATCH, EVAL_BATCH, 8]


def test_train_accuracy_passes_ignore_the_training_batch(monkeypatch):
    dataset = make_keyword_dataset(150, seed=11)
    tcfg = TrainConfig(batch_size=7, max_epochs=1, seed=5)
    n_train, n_dev = map(len, split_train_dev(dataset[0], tcfg.dev_fraction, Rng(0)))
    sizes = count_eval_forwards(monkeypatch)
    train(desk_config(), tcfg, dataset)
    assert len(sizes) == math.ceil(n_train / EVAL_BATCH) + math.ceil(n_dev / EVAL_BATCH)
    assert max(sizes) == EVAL_BATCH


def test_readme_eval_batch_is_the_constant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Speed and memory", 1)[1].split("\n## ", 1)[0]
    stated = re.search(r"takes (\d+) sentences at a time\s+\(`training\.EVAL_BATCH`\)", section)
    assert stated is not None and int(stated.group(1)) == EVAL_BATCH


def test_predict_probabilities_sum_to_one(trained):
    result, _ = trained
    _, probs = predict(result.params, result.config, result.vocab, result.label_names, "aaa tok00")
    assert abs(probs.sum() - 1.0) < 1e-9


def test_predict_empty_and_unknown_text_valid(trained):
    result, _ = trained
    for text in ("", "zzz unseen words only"):
        label, probs = predict(result.params, result.config, result.vocab, result.label_names, text)
        assert label in result.label_names
        assert abs(probs.sum() - 1.0) < 1e-9


def test_predict_agrees_with_evaluate_argmax(trained):
    result, examples = trained
    ex = examples[0]
    label, _ = predict(result.params, result.config, result.vocab, result.label_names, ex.text)
    ev = evaluate(result.params, result.config, result.vocab, [ex])
    predicted_class = int(np.argmax(ev.confusion.sum(axis=0)))
    assert result.label_names.index(label) == predicted_class


def test_pad_embedding_row_stays_zero_after_training(keyword_dataset):
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=10, patience=10, seed=5)
    result = train(cfg, tcfg, keyword_dataset)
    assert np.array_equal(result.params.embedding.weights.data[0], np.zeros(cfg.d))


def test_mixed_filter_sizes_with_static_vectors(tmp_path, keyword_dataset):
    # boundary-preserving convolution variant with frozen pretrained rows
    examples, _ = keyword_dataset
    vocab = build_vocab(examples)
    d = 12
    rng = Rng(55)
    vec_path = tmp_path / "vecs.txt"
    with open(vec_path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens():
            values = " ".join(f"{v:.5f}" for v in rng.uniform(-0.5, 0.5, (d,)))
            fh.write(f"{tok} {values}\n")

    cfg = ModelConfig(
        n_max=10, d=d, filter_sizes=[3, 4, 5], maps_per_branch=4, padding="same",
        r=2, pieces=3, dropout_rate=0.5, num_classes=2,
    )
    tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=3, patience=3, seed=5)
    result = train(
        cfg, tcfg, keyword_dataset, EmbeddingsConfig(trainable=False, vectors=str(vec_path))
    )
    assert not result.params.embedding.trainable
    assert len(result.report.epochs) == 3
    ev = evaluate(result.params, result.config, result.vocab, examples)
    assert 0.0 <= ev.accuracy <= 1.0


def test_predict_tie_resolves_to_first_label(trained):
    result, _ = trained
    # zeroed head makes every class equally likely; argmax takes the first
    result_params = result.params
    saved_w = result_params.dense_w.data.copy()
    saved_b = result_params.dense_b.data.copy()
    try:
        result_params.dense_w.data[...] = 0.0
        result_params.dense_b.data[...] = 0.0
        label, probs = predict(
            result_params, result.config, result.vocab, result.label_names, "aaa tok01"
        )
        assert label == result.label_names[0]
        assert np.allclose(probs, 0.5)
    finally:
        result_params.dense_w.data[...] = saved_w
        result_params.dense_b.data[...] = saved_b


def test_chance_level_on_random_model():
    # untrained model on balanced data scores near 1/2
    examples, label_names = make_keyword_dataset(400, seed=31)
    cfg = desk_config(dropout_rate=0.0)
    rng = Rng(77)
    vocab = build_vocab(examples)
    emb = init_random(len(vocab), cfg.d, rng.child(1))
    params = init_params(cfg, rng.child(2), emb)
    ev = evaluate(params, cfg, vocab, examples)
    assert 0.3 <= ev.accuracy <= 0.7
