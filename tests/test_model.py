"""Model ops: convolution vs brute force, the squeeze/excite/scale/sum
identities, pooling, dropout, dense, and the assembled forward pass."""

import numpy as np
import pytest

import secnn.tensor as tc
from secnn import GradTape, Rng, backward, finite_diff_grad
from secnn.embeddings import init_random
from secnn.model import (
    ConfigError,
    ModelConfig,
    conv1d_same,
    conv1d_valid,
    dense,
    dropout,
    forward,
    init_params,
    piece_segments,
    piecewise_maxpool,
    se_excite,
    se_scale,
    se_squeeze,
    se_sum,
    stack_channels,
)
from secnn.tensor import ShapeError, Tensor
from secnn.text import EncodedBatch
from secnn.training import cross_entropy_loss


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# --------------------------------------------------------------------------
# Brute-force convolution references

def conv_valid_ref(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    batch, n, d = e.shape
    k = f.shape[0]
    out = np.zeros((batch, n - k + 1, d))
    for b in range(batch):
        for j in range(n - k + 1):
            for l in range(d):
                for i in range(k):
                    out[b, j, l] += f[i, l] * e[b, j + i, l]
    return out


def conv_same_ref(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    k = f.shape[0]
    left = (k - 1) // 2
    right = (k - 1) - left
    padded = np.pad(e, ((0, 0), (left, right), (0, 0)))
    return conv_valid_ref(padded, f)


# --------------------------------------------------------------------------
# Convolution

def test_conv_valid_all_ones():
    e = Tensor(np.ones((1, 6, 3)))
    f = Tensor(np.ones((3, 3)))
    out = conv1d_valid(e, f)
    assert out.shape == (1, 4, 3)
    assert np.array_equal(out.data, np.full((1, 4, 3), 3.0))


def test_conv_valid_one_hot_filter_shifts():
    rng = Rng(0)
    e = Tensor(rng.uniform(-1, 1, (2, 5, 3)))
    f = np.zeros((2, 3))
    f[1] = 1.0  # pick the second window position
    out = conv1d_valid(e, Tensor(f))
    assert np.array_equal(out.data, e.data[:, 1:5, :])


def test_conv_valid_matches_bruteforce():
    rng = Rng(1)
    e = Tensor(rng.uniform(-1, 1, (1, 5, 2)))
    f = Tensor(rng.uniform(-1, 1, (2, 2)))
    assert np.max(np.abs(conv1d_valid(e, f).data - conv_valid_ref(e.data, f.data))) < 1e-12


def test_conv_valid_rejects_long_filter():
    with pytest.raises(ShapeError):
        conv1d_valid(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((3, 3))))


def test_conv_same_preserves_length():
    rng = Rng(2)
    for n in (1, 2, 5, 9):
        e = Tensor(rng.uniform(-1, 1, (2, n, 3)))
        f = Tensor(rng.uniform(-1, 1, (3, 3)))
        assert conv1d_same(e, f).shape == (2, n, 3)


def test_conv_same_zero_input_zero_output():
    out = conv1d_same(Tensor(np.zeros((1, 4, 2))), Tensor(np.ones((3, 2))))
    assert np.array_equal(out.data, np.zeros((1, 4, 2)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_conv_same_interior_matches_valid(k):
    rng = Rng(k)
    n, d = 9, 3
    e = Tensor(rng.uniform(-1, 1, (2, n, d)))
    f = Tensor(rng.uniform(-1, 1, (k, d)))
    same = conv1d_same(e, f).data
    valid = conv1d_valid(e, f).data
    left = (k - 1) // 2
    assert np.max(np.abs(same[:, left : left + valid.shape[1], :] - valid)) < 1e-12


def test_conv_relu_activation():
    e = Tensor(np.full((1, 4, 2), -1.0))
    f = Tensor(np.ones((2, 2)))
    out = conv1d_valid(e, f, activation="relu")
    assert np.array_equal(out.data, np.zeros((1, 3, 2)))


def test_conv_gradients_match_finite_differences():
    rng = Rng(3)
    e = Tensor(rng.uniform(-1, 1, (2, 6, 3)), requires_grad=True)
    f = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

    def head(conv_fn, et, ft):
        return tc.reduce("sum", tc.mul(conv_fn(et, ft), conv_fn(et, ft)))

    for conv_fn in (conv1d_valid, conv1d_same):
        with GradTape() as tape:
            loss = head(conv_fn, e, f)
        grads = backward(loss, tape)
        fd_e = finite_diff_grad(lambda x: head(conv_fn, x, f).item(), e)
        fd_f = finite_diff_grad(lambda x: head(conv_fn, e, x).item(), f)
        assert rel_err(grads[e].data, fd_e.data) < 1e-6
        assert rel_err(grads[f].data, fd_f.data) < 1e-6


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("conv_fn", [conv1d_valid, conv1d_same])
def test_conv_bank_matches_stacked_single_maps(conv_fn, seed):
    # one (m, k, d) bank call against m single-map calls: values and both gradients
    rng = Rng(600 + seed)
    batch, n, d, m = (int(rng.integers(1, 4)), int(rng.integers(1, 9)),
                      int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    k = int(rng.integers(1, n + 1 if conv_fn is conv1d_valid else n + 3))
    e = Tensor(rng.uniform(-2, 2, (batch, n, d)), requires_grad=True)
    bank = Tensor(rng.uniform(-2, 2, (m, k, d)), requires_grad=True)
    singles = [Tensor(bank.data[j].copy(), requires_grad=True) for j in range(m)]

    with GradTape() as tape:
        block = conv_fn(e, bank)
        weight = Tensor(rng.uniform(-1, 1, block.shape))
        loss = tc.reduce("sum", tc.mul(block, weight))
    grads = backward(loss, tape)

    # one tape per single map; the input gradient is the sum over maps
    maps, ref_e, ref_bank = [], np.zeros_like(e.data), []
    for j, f in enumerate(singles):
        e_ref = Tensor(e.data, requires_grad=True)
        with GradTape() as tape:
            fm = conv_fn(e_ref, f)
            loss_ref = tc.reduce("sum", tc.mul(fm, Tensor(weight.data[j])))
        ref_grads = backward(loss_ref, tape)
        maps.append(fm)
        ref_e += ref_grads[e_ref].data
        ref_bank.append(ref_grads[f].data)

    assert block.shape == (m,) + maps[0].shape
    assert np.max(np.abs(block.data - np.stack([fm.data for fm in maps]))) <= 1e-12
    assert np.max(np.abs(grads[e].data - ref_e)) <= 1e-12
    assert np.max(np.abs(grads[bank].data - np.stack(ref_bank))) <= 1e-12


# --------------------------------------------------------------------------
# Channel stack

def test_stack_two_identical_maps():
    m = Tensor(np.arange(6, dtype=float).reshape(1, 2, 3))
    stacked = stack_channels([m, m])
    assert stacked.shape == (1, 2, 3, 2)
    assert np.array_equal(stacked.data[..., 0], stacked.data[..., 1])


def test_stack_count_is_total_maps():
    maps = [Tensor(np.zeros((1, 2, 2))) for _ in range(7)]
    assert stack_channels(maps).shape[-1] == 7


def test_stack_rejects_heterogeneous_shapes():
    with pytest.raises(ShapeError):
        stack_channels([Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 3, 2)))])


def test_stack_orders_by_branch_then_filter():
    a = Tensor(np.full((1, 1, 1), 1.0))
    b = Tensor(np.full((1, 1, 1), 2.0))
    c = Tensor(np.full((1, 1, 1), 3.0))
    stacked = stack_channels([a, b, c])
    assert stacked.data[0, 0, 0].tolist() == [1.0, 2.0, 3.0]


def test_stack_blocks_match_maps_listed_one_by_one():
    rng = Rng(8)
    shape = (2, 3, 4)
    blocks = [
        Tensor(rng.uniform(-1, 1, (3,) + shape), requires_grad=True),
        Tensor(rng.uniform(-1, 1, shape), requires_grad=True),
        Tensor(rng.uniform(-1, 1, (2, 2) + shape), requires_grad=True),
    ]
    singles = [
        Tensor(fm.copy(), requires_grad=True)
        for blk in blocks
        for fm in blk.data.reshape((-1,) + shape)
    ]
    weight = Tensor(rng.uniform(-1, 1, shape + (len(singles),)))

    results = []
    for entries in (blocks, singles):
        with GradTape() as tape:
            stacked = stack_channels(entries)
            loss = tc.reduce("sum", tc.mul(stacked, weight))
        grads = backward(loss, tape)
        results.append((stacked.data, [grads[t].data for t in entries]))

    (by_block, block_grads), (by_map, map_grads) = results
    assert np.array_equal(by_block, by_map)
    flat = np.concatenate([g.reshape((-1,) + shape) for g in block_grads])
    assert np.array_equal(flat, np.stack(map_grads))


# --------------------------------------------------------------------------
# Squeeze / excite / scale / sum

def test_squeeze_is_spatial_mean():
    channel = np.array([[1.0, 2.0], [3.0, 4.0]])
    stacked = Tensor(channel[None, :, :, None])
    assert se_squeeze(stacked).item() == 2.5


def test_squeeze_constant_channel_exact():
    stacked = Tensor(np.full((2, 3, 5, 4), 0.3))
    assert np.all(se_squeeze(stacked).data == 0.3)


def test_squeeze_linearity():
    rng = Rng(4)
    c1 = rng.uniform(-1, 1, (2, 3, 4, 5))
    c2 = rng.uniform(-1, 1, (2, 3, 4, 5))
    alpha, beta = 0.7, -1.3
    combined = se_squeeze(Tensor(alpha * c1 + beta * c2)).data
    separate = alpha * se_squeeze(Tensor(c1)).data + beta * se_squeeze(Tensor(c2)).data
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_excite_zero_weights_give_half():
    z = Tensor(np.ones((2, 3)))
    w1 = Tensor(np.zeros((6, 3)))
    w2 = Tensor(np.zeros((3, 6)))
    assert np.all(se_excite(z, w1, w2).data == 0.5)


def test_excite_zero_input_gives_half():
    rng = Rng(5)
    z = Tensor(np.zeros((2, 3)))
    w1 = Tensor(rng.uniform(-1, 1, (6, 3)))
    w2 = Tensor(rng.uniform(-1, 1, (3, 6)))
    assert np.all(se_excite(z, w1, w2).data == 0.5)


def test_excite_matches_manual_reference():
    rng = Rng(6)
    z = Tensor(rng.uniform(-1, 1, (3, 2)))
    w1 = Tensor(rng.uniform(-1, 1, (4, 2)))
    w2 = Tensor(rng.uniform(-1, 1, (2, 4)))
    got = se_excite(z, w1, w2).data
    for row in range(3):
        hidden = np.maximum(w1.data @ z.data[row], 0.0)
        expected = 1.0 / (1.0 + np.exp(-(w2.data @ hidden)))
        assert np.max(np.abs(got[row] - expected)) < 1e-12


def test_excite_outputs_in_open_unit_interval():
    rng = Rng(7)
    z = Tensor(rng.uniform(-1, 1, (4, 6)))
    w1 = Tensor(rng.uniform(-0.5, 0.5, (12, 6)))
    w2 = Tensor(rng.uniform(-0.5, 0.5, (6, 12)))
    s = se_excite(z, w1, w2).data
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_scale_zero_gate_zeroes_channel():
    rng = Rng(8)
    stacked = Tensor(rng.uniform(-1, 1, (1, 2, 2, 3)))
    gates = Tensor(np.array([[0.0, 1.0, 2.0]]))
    scaled = se_scale(stacked, gates).data
    assert np.array_equal(scaled[..., 0], np.zeros((1, 2, 2)))
    assert np.array_equal(scaled[..., 1], stacked.data[..., 1])
    assert np.array_equal(scaled[..., 2], 2.0 * stacked.data[..., 2])


def test_scale_all_ones_is_identity():
    rng = Rng(9)
    stacked = Tensor(rng.uniform(-1, 1, (2, 3, 2, 4)))
    gates = Tensor(np.ones((2, 4)))
    assert np.array_equal(se_scale(stacked, gates).data, stacked.data)


def test_scale_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        se_scale(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((1, 4))))


def test_sum_single_channel_is_identity():
    rng = Rng(10)
    stacked = Tensor(rng.uniform(-1, 1, (2, 3, 2, 1)))
    assert np.array_equal(se_sum(stacked).data, stacked.data[..., 0])


def test_sum_opposite_channels_cancel():
    rng = Rng(11)
    c = rng.uniform(-1, 1, (1, 3, 2))
    stacked = Tensor(np.stack([c, -c], axis=-1))
    assert np.array_equal(se_sum(stacked).data, np.zeros((1, 3, 2)))


def test_scale_sum_composition_identities():
    rng = Rng(12)
    stacked = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)))
    gates = Tensor(rng.uniform(0, 1, (2, 5)))
    # sum(scale(C, s)) equals the directly-computed weighted channel sum, bitwise
    via_ops = se_sum(se_scale(stacked, gates)).data
    direct = np.sum(stacked.data * gates.data[:, None, None, :], axis=3)
    assert np.array_equal(via_ops, direct)
    # with unit gates it equals the plain channel sum, bitwise
    ones = Tensor(np.ones((2, 5)))
    assert np.array_equal(se_sum(se_scale(stacked, ones)).data, np.sum(stacked.data, axis=3))


def test_channel_permutation_equivariance_exact():
    # Integer-valued weights and disjoint channel supports keep every
    # intermediate sum exact in double precision, so the permuted and
    # original pipelines must agree bit for bit.
    rng = Rng(13)
    batch, h, w, m, ratio = 2, 4, 4, 4, 2
    support = (np.add.outer(np.arange(h), np.arange(w)) % m)[None, :, :, None] == np.arange(m)
    values = rng.integers(-8, 9, (batch, h, w, m)).astype(float)
    stacked = Tensor(np.where(support, values, 0.0))
    w1 = Tensor(rng.integers(-3, 4, (m * ratio, m)).astype(float))
    w2 = Tensor(rng.integers(-3, 4, (m, m * ratio)).astype(float))

    def pipeline(c, a, b):
        gates = se_excite(se_squeeze(c), a, b)
        return se_sum(se_scale(c, gates)).data

    base = pipeline(stacked, w1, w2)
    perm = np.array([2, 0, 3, 1])
    permuted = pipeline(
        Tensor(stacked.data[..., perm]),
        Tensor(w1.data[:, perm]),
        Tensor(w2.data[perm, :]),
    )
    assert np.array_equal(base, permuted)


def test_channel_permutation_equivariance_random_floats():
    rng = Rng(14)
    stacked = Tensor(rng.uniform(-1, 1, (2, 3, 4, 6)))
    w1 = Tensor(rng.uniform(-1, 1, (12, 6)))
    w2 = Tensor(rng.uniform(-1, 1, (6, 12)))

    def pipeline(c, a, b):
        gates = se_excite(se_squeeze(c), a, b)
        return se_sum(se_scale(c, gates)).data

    base = pipeline(stacked, w1, w2)
    perm = np.array([5, 2, 0, 4, 1, 3])
    permuted = pipeline(
        Tensor(stacked.data[..., perm]),
        Tensor(w1.data[:, perm]),
        Tensor(w2.data[perm, :]),
    )
    assert np.max(np.abs(base - permuted)) < 1e-12


# --------------------------------------------------------------------------
# Pooling

def test_piecewise_maxpool_column():
    col = np.array([1.0, 5.0, 2.0, 2.0, 9.0, 3.0])
    x = Tensor(col[None, :, None])
    out = piecewise_maxpool(x, 3)
    assert out.data[0, :, 0].tolist() == [5.0, 2.0, 9.0]


def test_piecewise_maxpool_single_piece_is_global_max():
    rng = Rng(15)
    x = Tensor(rng.uniform(-1, 1, (2, 7, 3)))
    out = piecewise_maxpool(x, 1)
    assert np.array_equal(out.data[:, 0, :], x.data.max(axis=1))


def test_piece_segments_remainder_to_earliest():
    assert piece_segments(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert piece_segments(6, 3) == [(0, 2), (2, 4), (4, 6)]
    assert piece_segments(5, 1) == [(0, 5)]


def test_piecewise_maxpool_rejects_too_many_pieces():
    with pytest.raises(ShapeError):
        piecewise_maxpool(Tensor(np.zeros((1, 3, 2))), 4)


def test_piecewise_maxpool_gradient_per_segment():
    x = Tensor(np.array([[[1.0], [5.0], [5.0], [0.0]]]), requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", piecewise_maxpool(x, 2))
    grads = backward(loss, tape)
    # segments [0:2] and [2:4]: maxima at rows 1 and 2
    assert grads[x].data[0, :, 0].tolist() == [0.0, 1.0, 1.0, 0.0]


def test_piecewise_maxpool_tie_routes_to_first_row():
    x = Tensor(np.array([[[3.0], [3.0], [2.0], [2.0]]]), requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", piecewise_maxpool(x, 1))
    grads = backward(loss, tape)
    assert grads[x].data[0, :, 0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_piecewise_maxpool_gradient_matches_fd():
    rng = Rng(16)
    x = Tensor(rng.uniform(-1, 1, (2, 7, 3)), requires_grad=True)

    def head(t):
        return tc.reduce("sum", tc.mul(piecewise_maxpool(t, 3), piecewise_maxpool(t, 3)))

    with GradTape() as tape:
        loss = head(x)
    grads = backward(loss, tape)
    fd = finite_diff_grad(lambda v: head(v).item(), x)
    assert rel_err(grads[x].data, fd.data) < 1e-6


# --------------------------------------------------------------------------
# Dropout

def test_dropout_eval_is_identity():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    out = dropout(x, 0.5, training=False, rng=Rng(0))
    assert out is x


def test_dropout_rate_zero_identity_both_modes():
    x = Tensor(np.ones((2, 2)))
    assert dropout(x, 0.0, training=True, rng=Rng(0)) is x
    assert dropout(x, 0.0, training=False, rng=None) is x


def test_dropout_empirical_mean_preserved():
    x = Tensor(np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]))
    rng = Rng(17)
    total = np.zeros(8)
    trials = 10_000
    for _ in range(trials):
        total += dropout(x, 0.5, training=True, rng=rng).data
    mean = total / trials
    assert np.max(np.abs(mean - x.data) / np.abs(x.data)) < 0.05


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones((400,)), requires_grad=True)
    with GradTape() as tape:
        y = dropout(x, 0.5, training=True, rng=Rng(18))
        loss = tc.reduce("sum", y)
    grads = backward(loss, tape)
    assert np.array_equal(grads[x].data, np.where(y.data != 0.0, 2.0, 0.0))


def test_dropout_rejects_bad_rate():
    with pytest.raises(ConfigError):
        dropout(Tensor([1.0]), 1.0, training=True, rng=Rng(0))


# --------------------------------------------------------------------------
# Dense

def test_dense_zero_weights_zero_logits():
    x = Tensor(np.ones((2, 3)))
    out = dense(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_dense_identity_weights():
    x = Tensor(np.arange(4, dtype=float).reshape(2, 2))
    out = dense(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, x.data)


def test_dense_matches_nested_loop_oracle():
    rng = Rng(19)
    x = rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, (4, 2))
    b = rng.uniform(-1, 1, (2,))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            expected[i, j] = b[j]
            for k in range(4):
                expected[i, j] += x[i, k] * w[k, j]
    got = dense(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_dense_bias_gradient():
    x = Tensor(np.ones((3, 2)))
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with GradTape() as tape:
        loss = tc.reduce("sum", dense(x, w, b))
    grads = backward(loss, tape)
    assert grads[b].tolist() == [3.0, 3.0]


# --------------------------------------------------------------------------
# Config validation

def test_config_valid_padding_requires_equal_filters():
    with pytest.raises(ConfigError):
        ModelConfig(n_max=10, d=4, filter_sizes=[3, 4, 5], padding="valid")


def test_config_same_padding_permits_mixed_filters():
    cfg = ModelConfig(n_max=10, d=4, filter_sizes=[3, 4, 5], padding="same")
    assert cfg.feature_height == 10
    assert cfg.total_channels == 3 * cfg.maps_per_branch


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ModelConfig(r=0)
    with pytest.raises(ConfigError):
        ModelConfig(pieces=0)
    with pytest.raises(ConfigError):
        ModelConfig(n_max=5, filter_sizes=[3, 3, 3], pieces=4)  # pieces > H
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(num_classes=1)
    with pytest.raises(ConfigError):
        ModelConfig(padding="reflect")
    with pytest.raises(ConfigError):
        ModelConfig(n_max=2, filter_sizes=[3])


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"n_max": 5, "bogus": 1})


# --------------------------------------------------------------------------
# Forward pass

def tiny_setup(seed=20, **overrides):
    defaults = dict(
        n_max=7, d=4, filter_sizes=[2, 3], maps_per_branch=2, padding="same",
        r=2, pieces=2, dropout_rate=0.0, num_classes=2,
    )
    defaults.update(overrides)
    cfg = ModelConfig(**defaults)
    rng = Rng(seed)
    emb = init_random(9, cfg.d, rng.child(1), scale=1.0)
    params = init_params(cfg, rng.child(2), emb)
    # O(1) activations keep finite differences above the cancellation floor
    for f in params.filters:
        f.data *= 5.0
    params.dense_w.data *= 5.0
    ids = rng.child(3).integers(1, 9, (3, cfg.n_max))
    batch = EncodedBatch(ids, np.array([0, 1, 0]))
    return cfg, params, batch


def test_forward_logits_shape():
    cfg, params, batch = tiny_setup()
    logits = forward(params, cfg, batch)
    assert logits.shape == (3, cfg.num_classes)


def test_forward_all_pad_zero_filters_gives_bias():
    cfg, params, batch = tiny_setup()
    for f in params.filters:
        f.data[...] = 0.0
    params.dense_b.data[...] = np.array([0.25, -0.5])
    ids = np.zeros((2, cfg.n_max), dtype=np.int64)
    logits = forward(params, cfg, ids)
    # zero filters kill the features entirely, so only the bias remains
    assert np.allclose(logits.data, np.array([[0.25, -0.5], [0.25, -0.5]]), atol=1e-12)


def test_forward_every_parameter_receives_gradient():
    cfg, params, batch = tiny_setup()
    with GradTape() as tape:
        loss = cross_entropy_loss(forward(params, cfg, batch), batch.labels)
    grads = backward(loss, tape)
    for name, t in params.named_tensors():
        assert t in grads, f"{name} missing from gradient map"
        assert np.any(grads[t].data != 0.0), f"{name} gradient is all zero"


def test_forward_full_pipeline_gradients_match_fd():
    cfg, params, batch = tiny_setup()

    with GradTape() as tape:
        loss = cross_entropy_loss(forward(params, cfg, batch), batch.labels)
    grads = backward(loss, tape)

    def loss_with(param, data):
        old = param.data
        param.data = data
        try:
            return cross_entropy_loss(forward(params, cfg, batch), batch.labels).item()
        finally:
            param.data = old

    for name, t in params.named_tensors():
        fd = finite_diff_grad(lambda v, _t=t: loss_with(_t, v.data), t, h=1e-5)
        err = rel_err(grads[t].data, fd.data)
        assert err < 1e-4, f"{name}: {err}"


def test_forward_valid_padding_height():
    cfg, params, batch = tiny_setup(filter_sizes=[3, 3], padding="valid")
    trace = {}
    forward(params, cfg, batch, trace=trace)
    assert trace["stacked"] == (3, 7 - 3 + 1, 4, 4)


def test_forward_rejects_wrong_length_batch():
    cfg, params, _ = tiny_setup()
    with pytest.raises(ShapeError):
        forward(params, cfg, np.zeros((2, cfg.n_max + 1), dtype=np.int64))


@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_training_step_tape_ops_do_not_grow_with_maps(activation):
    # one conv call per branch: the tape must not record an op per map
    counts = []
    for maps in (1, 8):
        cfg, params, batch = tiny_setup(
            maps_per_branch=maps, dropout_rate=0.5, conv_activation=activation
        )
        with GradTape() as tape:
            logits = forward(params, cfg, batch, training=True, rng=Rng(0))
            cross_entropy_loss(logits, batch.labels)
        counts.append(len(tape))
    assert counts[0] == counts[1]
