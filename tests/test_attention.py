"""The shipped text stage (`model._Graph._encode_text`) against explicit-loop attention."""

import numpy as np
import pytest

from tomfn import model as M
from tomfn.errors import ConfigError, ShapeError

from oracles import encode_text, graph_encode_text, relu


def text_model(seed=0, d_model=6, n_heads=2, d_out=4, seq_len=5, pooling="mean"):
    cfg = M.ModelConfig(
        visual_dims=[2, 2], audio_dims=[2, 2],
        text=M.TextConfig(d_model=d_model, heads=n_heads, d_head=d_model // n_heads,
                          d_out=d_out, seq_len=seq_len, pooling=pooling),
        fusion=M.FusionConfig(rank=1, d_h=2), heads=1,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
        seed=seed,
    )
    return M.build(cfg)


def heads_of(model):
    w = model.weights
    return [tuple(w[f"text.head{h}.{p}"] for p in "qkv") for h in range(model.config.text.heads)]


def oracle(model, x):
    return encode_text(x, heads_of(model), model.weights["text.ff"], model.config.text.pooling)


def values_mixed(model, x, mix):
    # The features of a token whose attention weights are `mix` in every head.
    vees = np.concatenate([mix @ (x @ w_v) for _, _, w_v in heads_of(model)])
    return relu(vees @ model.weights["text.ff"])


def test_single_row_passthrough():
    # One token attends only to itself, so queries and keys cannot matter.
    rng = np.random.default_rng(0)
    m = text_model(seed=0, seq_len=1)
    x = rng.normal(size=(1, 6))
    z = graph_encode_text(m, x)
    for h in range(2):
        m.weights[f"text.head{h}.q"] = 100 * rng.normal(size=(6, 3))
        m.weights[f"text.head{h}.k"] = np.zeros((6, 3))
    assert np.allclose(graph_encode_text(m, x), z, atol=1e-15)


def test_zero_queries_average_values():
    # Zero queries give uniform attention: every token mixes to the mean value row.
    rng = np.random.default_rng(1)
    m = text_model(seed=1)
    for h in range(2):
        m.weights[f"text.head{h}.q"] = np.zeros((6, 3))
    x = rng.normal(size=(4, 6))
    want = values_mixed(m, x, np.full(4, 0.25))
    assert np.allclose(graph_encode_text(m, x), want, atol=1e-12)


def test_against_triple_loop_oracle():
    rng = np.random.default_rng(2)
    for pooling in ("mean", "last"):
        for length in (1, 5, 20):
            m = text_model(seed=length, seq_len=length, pooling=pooling)
            for h in range(2):  # larger queries keep the softmax far from uniform
                m.weights[f"text.head{h}.q"] *= 3.0
            x = rng.normal(size=(3, length, 6))
            got = graph_encode_text(m, x)
            want = np.stack([oracle(m, x[b]) for b in range(3)])
            assert np.max(np.abs(got - want)) <= 1e-12


def test_rows_are_convex_combinations():
    # With an identity feed-forward, each feature is relu of a convex mixture
    # of value rows, so it stays within relu of the value columns' range.
    rng = np.random.default_rng(3)
    m = text_model(seed=3, d_out=6, pooling="last")
    m.weights["text.ff"] = np.eye(6)
    x = rng.normal(size=(5, 6))
    vees = np.concatenate([x @ w_v for _, _, w_v in heads_of(m)], axis=1)
    z = graph_encode_text(m, x)
    assert np.all(z >= relu(vees.min(axis=0)) - 1e-12)
    assert np.all(z <= relu(vees.max(axis=0)) + 1e-12)


def test_permutation_equivariance():
    # Per-token features move with their tokens, so under last pooling
    # shuffling every token but the last changes nothing.
    rng = np.random.default_rng(4)
    m = text_model(seed=4, pooling="last")
    x = rng.normal(size=(6, 6))
    z = graph_encode_text(m, x)
    for _ in range(5):
        order = np.append(rng.permutation(5), 5)
        assert np.allclose(graph_encode_text(m, x[order]), z, atol=1e-12)


def test_shape_mismatch_rejected():
    # A sequence must hold exactly text.seq_len tokens.
    m = text_model(seq_len=5)
    with pytest.raises(ShapeError, match="text"):
        M.forward_batch(m, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 4, 6)))


def test_encode_single_token_closed_form():
    rng = np.random.default_rng(5)
    for pooling in ("mean", "last"):
        m = text_model(seed=5, seq_len=1, pooling=pooling)
        x = rng.normal(size=(1, 6))
        assert np.allclose(graph_encode_text(m, x), values_mixed(m, x, np.ones(1)), atol=1e-12)


def test_output_width_follows_ff():
    rng = np.random.default_rng(6)
    m = text_model(seed=6, d_out=4)
    for length in (1, 5, 20):
        assert graph_encode_text(m, rng.normal(size=(2, length, 6))).shape == (2, 4)


def test_mean_pooling_permutation_invariant():
    rng = np.random.default_rng(7)
    m = text_model(seed=7, pooling="mean")
    x = rng.normal(size=(8, 6))
    z = graph_encode_text(m, x)
    for _ in range(5):
        assert np.allclose(graph_encode_text(m, x[rng.permutation(8)]), z, atol=1e-12)


def test_last_pooling():
    # Last pooling keeps the last token's features, so it is order-sensitive:
    # reversing the sequence puts another token last.
    rng = np.random.default_rng(8)
    m = text_model(seed=8, pooling="last")
    x = rng.normal(size=(4, 6))
    z = graph_encode_text(m, x)
    assert np.allclose(z, oracle(m, x), atol=1e-12)
    assert np.max(np.abs(graph_encode_text(m, x[::-1].copy()) - z)) > 1e-3


def test_head_width_must_restore_model_width():
    with pytest.raises(ConfigError, match="d_model"):
        M.ModelConfig.from_dict({"text": {"d_model": 6, "heads": 1, "d_head": 2}})


def test_token_width_checked():
    m = text_model(seq_len=3)
    with pytest.raises(ShapeError, match="text"):
        M.forward_batch(m, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 3, 5)))
