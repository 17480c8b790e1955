"""Text pipeline: tokenizer, vocabulary, encoding, CSV loading, splitting."""

import pytest

from secnn import Rng
from secnn.text import (
    PAD_ID,
    UNK_ID,
    DataError,
    LabeledExample,
    Vocabulary,
    build_vocab,
    encode,
    encode_examples,
    load_dataset,
    split_train_dev,
    tokenize,
)


# --------------------------------------------------------------------------
# Tokenizer

def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_apostrophes():
    assert tokenize("Don't stop") == ["dont", "stop"]


def test_tokenize_total_function():
    assert tokenize("!!! ??? ...") == []
    assert tokenize("a,b;c") == ["abc"]


# --------------------------------------------------------------------------
# Vocabulary

def corpus(*texts):
    return [LabeledExample(t, 0) for t in texts]


def test_build_vocab_ordering():
    vocab = build_vocab(corpus("the cat", "the dog"), min_freq=1)
    assert {t: vocab.id_of(t) for t in ("the", "cat", "dog")} == {"the": 2, "cat": 3, "dog": 4}
    assert len(vocab) == 5
    tied = build_vocab(corpus("b a a b c c"), min_freq=1)  # a tie at count 2
    assert tied.tokens() == ["b", "a", "c"]


def test_build_vocab_min_freq():
    vocab = build_vocab(corpus("the cat", "the dog"), min_freq=2)
    assert len(vocab) == 3
    assert vocab.id_of("the") == 2
    assert vocab.id_of("cat") == UNK_ID


def test_build_vocab_max_size():
    vocab = build_vocab(corpus("the cat", "the dog"), min_freq=1, max_size=3)
    assert len(vocab) == 3
    assert vocab.id_of("the") == 2


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([])


def test_build_vocab_deterministic():
    data = corpus("b a c", "a c a")
    first = build_vocab(data).tokens()
    second = build_vocab(data).tokens()
    assert first == second == ["a", "c", "b"]


def test_vocab_roundtrip_file(tmp_path):
    vocab = build_vocab(corpus("alpha beta gamma", "beta"))
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens() == vocab.tokens()
    assert len(loaded) == len(vocab)


def test_vocab_load_rejects_missing_reserved(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("foo\nbar\n", encoding="utf-8")
    with pytest.raises(DataError):
        Vocabulary.load(path)


# --------------------------------------------------------------------------
# Encoding

@pytest.fixture
def small_vocab():
    return build_vocab(corpus("the cat", "the dog"))


def test_encode_pads_right(small_vocab):
    assert encode("the cat", small_vocab, 5).tolist() == [2, 3, 0, 0, 0]


def test_encode_unknown_then_pad(small_vocab):
    assert encode("zebra", small_vocab, 2).tolist() == [UNK_ID, PAD_ID]


def test_encode_truncates_keeping_prefix(small_vocab):
    text = " ".join(["the"] * 60)
    ids = encode(text, small_vocab, 50)
    assert ids.shape == (50,)
    assert all(i == 2 for i in ids)


def test_encode_always_exact_length_and_in_range(small_vocab):
    rng = Rng(0)
    words = ["the", "cat", "dog", "zebra", "lion"]
    for trial in range(25):
        n_words = int(rng.integers(0, 12))
        text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n_words))
        n_max = int(rng.integers(1, 9))
        ids = encode(text, small_vocab, n_max)
        assert ids.shape == (n_max,)
        assert ids.max(initial=0) < len(small_vocab)


def test_encode_examples_batch(small_vocab):
    batch = encode_examples(
        [LabeledExample("the cat", 0), LabeledExample("dog", 1)], small_vocab, 4
    )
    assert batch.ids.shape == (2, 4)
    assert batch.labels.tolist() == [0, 1]


# --------------------------------------------------------------------------
# Dataset loading

def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_dataset_lexicographic_labels(tmp_path):
    path = write_csv(tmp_path / "d.csv", 'label,text\npos,good film\nneg,bad film\n')
    examples, label_names = load_dataset(path)
    assert label_names == ["neg", "pos"]
    assert [ex.label for ex in examples] == [1, 0]


def test_load_dataset_single_class_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", "label,text\npos,good\npos,nice\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_dataset_quoted_comma(tmp_path):
    path = write_csv(tmp_path / "d.csv", 'label,text\npos,"good, really good"\nneg,bad\n')
    examples, _ = load_dataset(path)
    assert examples[0].text == "good, really good"


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DataError) as exc:
        load_dataset(tmp_path / "nope.csv")
    assert "nope.csv" in str(exc.value)


def test_load_dataset_malformed_row_reports_line(tmp_path):
    path = write_csv(tmp_path / "d.csv", "label,text\npos,good\nbroken-row\n")
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    assert "line 3" in str(exc.value)


def test_load_dataset_requires_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", "pos,good\nneg,bad\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_dataset_csv_parser_error_is_data_error(tmp_path):
    # a quoted field past the csv module's field size limit raises csv.Error
    path = write_csv(tmp_path / "d.csv", 'label,text\nneg,"' + "x" * 200_000 + '"\n')
    with pytest.raises(DataError):
        load_dataset(path)


# --------------------------------------------------------------------------
# Splitting

def examples_n(n):
    return [LabeledExample(f"text {i}", i % 2) for i in range(n)]


def test_split_sizes_100():
    train, dev = split_train_dev(examples_n(100), 0.10, Rng(1))
    assert len(train) == 90 and len(dev) == 10


def test_split_sizes_10():
    train, dev = split_train_dev(examples_n(10), 0.10, Rng(1))
    assert len(train) == 9 and len(dev) == 1


def test_split_deterministic():
    a = split_train_dev(examples_n(50), 0.2, Rng(33))
    b = split_train_dev(examples_n(50), 0.2, Rng(33))
    assert a == b


def test_split_partitions_input():
    data = examples_n(37)
    train, dev = split_train_dev(data, 0.25, Rng(5))
    assert len(train) + len(dev) == len(data)
    assert set(train) | set(dev) == set(data)
    assert set(train) & set(dev) == set()


def test_split_rejects_degenerate():
    with pytest.raises(DataError):
        split_train_dev(examples_n(1), 0.5, Rng(0))
    with pytest.raises(DataError):
        split_train_dev(examples_n(3), 0.01, Rng(0))
    with pytest.raises(DataError):
        split_train_dev(examples_n(10), 1.5, Rng(0))
