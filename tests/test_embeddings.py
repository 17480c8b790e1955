"""Embedding matrices: random init, pretrained loading, lookup gradients."""

import numpy as np
import pytest

import secnn.tensor as tc
from secnn import GradTape, Rng, backward
from secnn.embeddings import DEFAULT_SCALE, init_random, load_pretrained, lookup
from secnn.training import EmbeddingsConfig
from secnn.text import PAD_ID, UNK_ID, DataError, LabeledExample, build_vocab


@pytest.fixture
def vocab():
    return build_vocab([LabeledExample("cat dog bird", 0), LabeledExample("cat fish", 1)])


# --------------------------------------------------------------------------
# Random init

def test_pad_row_is_zero():
    emb = init_random(6, 4, Rng(0))
    assert np.array_equal(emb.weights.data[PAD_ID], np.zeros(4))


def test_entries_within_scale():
    emb = init_random(50, 8, Rng(1), scale=0.1)
    rows = emb.weights.data[1:]
    assert np.all(rows > -0.1) and np.all(rows < 0.1)


def test_unk_row_is_random_and_trainable():
    emb = init_random(6, 4, Rng(2))
    assert not np.array_equal(emb.weights.data[UNK_ID], np.zeros(4))
    assert emb.trainable and emb.weights.requires_grad


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_init_random_rejects_a_scale_without_a_finite_range(scale):
    # the run config and init_random share one rule: uniform(-scale, scale) must be finite
    with pytest.raises(ValueError, match="scale"):
        init_random(4, 3, Rng(0), scale=scale)
    with pytest.raises(ValueError, match="scale"):
        EmbeddingsConfig(scale=scale)


def test_default_scale_is_stated_once():
    assert EmbeddingsConfig().scale == DEFAULT_SCALE
    assert np.array_equal(init_random(9, 4, Rng(3)).weights.data,
                          init_random(9, 4, Rng(3), scale=DEFAULT_SCALE).weights.data)


def test_same_seed_identical_matrix():
    a = init_random(20, 5, Rng(9))
    b = init_random(20, 5, Rng(9))
    assert np.array_equal(a.weights.data, b.weights.data)


# --------------------------------------------------------------------------
# Pretrained loading

def test_load_pretrained_direct_parse(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 0.1 0.2\n", encoding="utf-8")
    emb, report = load_pretrained(path, vocab, 2, Rng(0))
    assert emb.weights.data[vocab.id_of("cat")].tolist() == [0.1, 0.2]
    assert not emb.trainable and not emb.weights.requires_grad
    assert report.hits == 1
    assert report.fraction == pytest.approx(1 / len(vocab.tokens()))


def test_load_pretrained_skips_count_dim_header(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("40000 300\ncat 1.0 2.0\n", encoding="utf-8")
    emb, report = load_pretrained(path, vocab, 2, Rng(0))
    assert emb.weights.data[vocab.id_of("cat")].tolist() == [1.0, 2.0]
    assert report.hits == 1


def test_load_pretrained_misses_get_random_rows(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 0.5 0.5\n", encoding="utf-8")
    emb, report = load_pretrained(path, vocab, 2, Rng(3))
    missing = vocab.id_of("dog")
    assert not np.array_equal(emb.weights.data[missing], np.zeros(2))
    assert report.misses == len(vocab.tokens()) - 1
    # deterministic given the seed
    emb2, _ = load_pretrained(path, vocab, 2, Rng(3))
    assert np.array_equal(emb.weights.data, emb2.weights.data)


def test_load_pretrained_dimension_mismatch(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 0.1 0.2 0.3\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_pretrained(path, vocab, 2, Rng(0))
    assert "line 1" in str(exc.value)


def test_load_pretrained_malformed_value(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3 oops\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_pretrained(path, vocab, 2, Rng(0))
    assert "line 2" in str(exc.value)


def test_load_pretrained_pad_row_stays_zero(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("<pad> 9.0 9.0\ncat 0.1 0.2\n", encoding="utf-8")
    emb, _ = load_pretrained(path, vocab, 2, Rng(0))
    assert np.array_equal(emb.weights.data[PAD_ID], np.zeros(2))


# --------------------------------------------------------------------------
# Lookup

def test_lookup_shape_and_pad_rows():
    emb = init_random(6, 3, Rng(4))
    out = lookup(emb, np.array([[0, 0]]))
    assert out.shape == (1, 2, 3)
    assert np.array_equal(out.data, np.zeros((1, 2, 3)))


def test_lookup_gradient_accumulates_repeated_ids():
    emb = init_random(6, 3, Rng(5))
    ids = np.array([[2, 2]])
    with GradTape() as tape:
        loss = tc.reduce("sum", lookup(emb, ids))
    grads = backward(loss, tape)
    g = grads[emb.weights].data
    assert np.array_equal(g[2], np.full(3, 2.0))
    assert np.array_equal(g[3], np.zeros(3))


def test_lookup_pad_gradient_masked():
    emb = init_random(6, 3, Rng(6))
    ids = np.array([[0, 2]])
    with GradTape() as tape:
        loss = tc.reduce("sum", lookup(emb, ids))
    grads = backward(loss, tape)
    assert np.array_equal(grads[emb.weights].data[PAD_ID], np.zeros(3))


def test_frozen_lookup_records_no_gradient(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 0.1 0.2\n", encoding="utf-8")
    emb, _ = load_pretrained(path, vocab, 2, Rng(0))
    ids = np.array([[2, 3]])
    with GradTape() as tape:
        loss = tc.reduce("sum", lookup(emb, ids))
    grads = backward(loss, tape)
    assert emb.weights not in grads


def test_lookup_rejects_out_of_range_ids():
    emb = init_random(4, 3, Rng(7))
    with pytest.raises(DataError):
        lookup(emb, np.array([[99]]))
