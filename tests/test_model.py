import tracemalloc

import numpy as np
import pytest

from tomfn import model as M
from tomfn import tt as tt_mod
from tomfn.errors import ConfigError, ShapeError

import oracles


def mini_config(seed=0, visual_dims=(3, 2), **tt_flags):
    tt = M.TTConfig(visual=False, audio=False, text=False, fusion=False,
                    class_heads=False, max_rank=64, tol=0.0)
    for k, v in tt_flags.items():
        setattr(tt, k, v)
    return M.ModelConfig(
        visual_dims=list(visual_dims),
        audio_dims=[3, 2],
        text=M.TextConfig(d_model=4, heads=2, d_head=2, d_out=3, seq_len=2),
        fusion=M.FusionConfig(rank=2, d_h=2),
        heads=2,
        tt=tt,
        seed=seed,
    )


def random_batch(rng, config, b):
    return (
        rng.normal(size=(b, config.visual_dims[0])),
        rng.normal(size=(b, config.audio_dims[0])),
        rng.normal(size=(b, config.text.seq_len, config.text.d_model)),
        rng.integers(0, 2, size=(b, config.heads)),
    )


# --- config ------------------------------------------------------------------


def test_default_config_dims():
    cfg = M.default_config()
    assert cfg.visual_dims == [80, 32, 32, 32]
    assert cfg.audio_dims == [36, 32, 32, 32]
    assert cfg.text.d_model == 300 and cfg.text.d_out == 64
    assert cfg.fusion.rank == 4 and cfg.fusion.d_h == 32


def test_head_width_mismatch_rejected():
    with pytest.raises(ConfigError):
        M.ModelConfig(text=M.TextConfig(d_model=300, heads=2, d_head=100))


def test_config_dict_roundtrip():
    cfg = mini_config(seed=9)
    back = M.ModelConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="bogus"):
        M.ModelConfig.from_dict({"bogus": 1})


# --- build -------------------------------------------------------------------


def test_build_deterministic():
    a = M.build(mini_config(seed=5))
    b = M.build(mini_config(seed=5))
    for (ka, wa), (kb, wb) in zip(a.leaves(), b.leaves()):
        assert ka == kb
        assert np.array_equal(wa, wb)


def test_build_seed_changes_weights():
    a = M.build(mini_config(seed=5))
    b = M.build(mini_config(seed=6))
    assert not np.array_equal(a.weights["visual.fc0"], b.weights["visual.fc0"])


def test_default_build_block_inventory():
    m = M.build(M.default_config())
    names = set(m.weights)
    assert {"visual.fc0", "visual.fc1", "visual.fc2"} <= names
    assert {"text.head0.q", "text.head1.v", "text.ff"} <= names
    assert {"fusion.v.0", "fusion.t.3", "head.3"} <= names
    assert len(names) == 3 + 3 + 7 + 12 + 4


def test_glorot_bounds():
    m = M.build(mini_config(seed=1))
    w = m.weights["visual.fc0"]  # (2, 3): fan_in 3, fan_out 2
    bound = np.sqrt(6.0 / 5.0)
    assert np.all(np.abs(w) <= bound)


# --- forward -----------------------------------------------------------------


def test_forward_shape_and_normalization():
    m = M.build(M.default_config())
    sample = {
        "visual": np.zeros(80),
        "audio": np.zeros(36),
        "text": np.zeros((20, 300)),
    }
    probs = M.forward(m, sample)
    assert probs.shape == (4, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_forward_random_normalization():
    rng = np.random.default_rng(2)
    cfg = mini_config(seed=2)
    m = M.build(cfg)
    v, a, t, _ = random_batch(rng, cfg, 5)
    probs = M.forward_batch(m, v, a, t)
    assert probs.shape == (5, 2, 2)
    assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)


def test_forward_matches_module_composition():
    # The batched graph must agree with an independent single-sample numpy
    # composition: explicit-loop attention and the explicit fusion tensor.
    for seed, pooling in ((3, "mean"), (4, "last")):
        cfg = mini_config(seed=seed)
        cfg.text.pooling = pooling
        m = M.build(cfg)
        v, a, t, _ = random_batch(np.random.default_rng(seed), cfg, 1)
        sample = {"visual": v[0], "audio": a[0], "text": t[0]}
        assert np.allclose(M.forward(m, sample), oracles.forward(m, sample), atol=1e-10)


def test_tt_forward_matches_dense_forward():
    rng = np.random.default_rng(4)
    # [11, 11] makes visual.fc0 a TT operator zero-padded to 12x12.
    for visual_dims in ([3, 2], [11, 11]):
        for seed in range(10):
            dense = M.build(mini_config(seed=seed, visual_dims=visual_dims))
            ttm = M.build(mini_config(seed=seed, visual_dims=visual_dims, visual=True, audio=True,
                                      text=True, fusion=True, class_heads=True))
            v, a, t, _ = random_batch(rng, dense.config, 2)
            p_dense = M.forward_batch(dense, v, a, t)
            p_tt = M.forward_batch(ttm, v, a, t)
            assert np.max(np.abs(p_dense - p_tt)) < 1e-8


def test_forward_rejects_bad_dims():
    m = M.build(mini_config())
    with pytest.raises(ShapeError):
        M.forward(m, {"visual": np.zeros(4), "audio": np.zeros(3), "text": np.zeros((2, 4))})


def test_default_text_encoder_shapes():
    # Full-scale TT text path: 20 tokens of width 300 encode to a 64-vector.
    m = M.build(M.default_config())
    rng = np.random.default_rng(30)
    z_t = oracles.graph_encode_text(m, rng.normal(size=(20, 300)))
    assert z_t.shape == (64,)


# --- gradients -----------------------------------------------------------------


def relative_grad_error(analytic, numeric):
    scale = max(abs(analytic), abs(numeric), 1.0)
    return abs(analytic - numeric) / scale


def finite_difference_check(m, rng, eps=1e-5, tol=1e-5):
    cfg = m.config
    v, a, t, y = random_batch(rng, cfg, 3)
    _, grads = M.loss_and_grad(m, v, a, t, y)
    worst = 0.0
    for key, arr in m.leaves():
        flat = arr.ravel()
        g = grads[key].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = M.batch_loss(m, v, a, t, y)
            flat[i] = orig - eps
            lo = M.batch_loss(m, v, a, t, y)
            flat[i] = orig
            worst = max(worst, relative_grad_error(g[i], (hi - lo) / (2 * eps)))
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


def test_gradcheck_dense():
    finite_difference_check(M.build(mini_config(seed=7)), np.random.default_rng(7))


@pytest.mark.parametrize("visual_dims", [[3, 2], [11, 11]], ids=["unpadded", "padded"])
def test_gradcheck_tt(visual_dims):
    # [11, 11] makes visual.fc0 a 12x12 TT operator, zero-padded on both sides.
    m = M.build(mini_config(seed=8, visual_dims=visual_dims, visual=True, text=True, fusion=True))
    finite_difference_check(m, np.random.default_rng(8))


def test_tt_train_step_allocation_peak():
    # Rebuilding each TT operator keeps a B=8 step of the default config far
    # below the ~680 MB that carrying the batch through every core took.
    cfg = M.default_config()
    m = M.build(cfg)
    v, a, t, y = random_batch(np.random.default_rng(11), cfg, 8)
    tracemalloc.start()
    try:
        M.loss_and_grad(m, v, a, t, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"tracemalloc peak {peak / 1e6:.0f} MB"


def test_duplicated_sample_keeps_gradient():
    cfg = mini_config(seed=9)
    m = M.build(cfg)
    rng = np.random.default_rng(9)
    v, a, t, y = random_batch(rng, cfg, 1)
    _, g1 = M.loss_and_grad(m, v, a, t, y)
    v2, a2, t2, y2 = (np.repeat(x, 2, axis=0) for x in (v, a, t, y))
    _, g2 = M.loss_and_grad(m, v2, a2, t2, y2)
    for key in g1:
        assert np.allclose(g1[key], g2[key], atol=1e-12)


def test_fusion_product_rule_zero_projection():
    # With one modality's factor all zero, that rank term's other-modality
    # gradients vanish (the product rule multiplies by the zero projection).
    cfg = mini_config(seed=10)
    m = M.build(cfg)
    m.weights["fusion.v.0"] = np.zeros_like(m.weights["fusion.v.0"])
    rng = np.random.default_rng(10)
    v, a, t, y = random_batch(rng, cfg, 2)
    _, grads = M.loss_and_grad(m, v, a, t, y)
    assert np.allclose(grads["fusion.a.0"], 0.0, atol=1e-12)
    assert np.allclose(grads["fusion.t.0"], 0.0, atol=1e-12)
    assert not np.allclose(grads["fusion.a.1"], 0.0, atol=1e-12)


# --- counting ------------------------------------------------------------------


def test_param_count_default_dense():
    cfg = M.default_config()
    cfg.tt = M.TTConfig(visual=False, audio=False, text=False)
    m = M.build(cfg)
    counts = M.param_count(m)
    visual = sum(v for k, v in counts["per_block"].items() if k.startswith("visual."))
    assert visual == 80 * 32 + 32 * 32 + 32 * 32 == 4608
    subnet = sum(v for k, v in counts["per_block"].items()
                 if k.split(".")[0] in ("visual", "audio", "text"))
    assert subnet == 297_008
    assert counts["dense_equivalent_total"] == 297_008 + 16_768 + 256


def test_param_count_tt_uses_core_sizes():
    m = M.build(mini_config(seed=11, visual=True))
    w = m.weights["visual.fc0"]
    assert isinstance(w, tt_mod.TTMatrix)
    assert M.param_count(m)["per_block"]["visual.fc0"] == tt_mod.tt_param_count(w)


def test_mac_count_scopes():
    m = M.build(M.default_config())
    assert M.mac_count(m, "subnet_weights_only") == 297_008
    assert M.mac_count(m, "all_weights") == 297_008 + 4 * 32 * (33 + 33 + 65) + 4 * 32 * 2
    assert M.mac_count(m, "all_weights") == 314_032
    cfg1 = M.default_config()
    cfg1.text.seq_len = 1
    m1 = M.build(cfg1)
    assert M.mac_count(m1, "full_runtime") == 314_032 + 2 * 1 * 150 * 2


def test_mac_count_invariant_to_tt():
    dense_cfg = M.default_config()
    dense_cfg.tt = M.TTConfig(visual=False, audio=False, text=False)
    assert (M.mac_count(M.build(dense_cfg), "subnet_weights_only")
            == M.mac_count(M.build(M.default_config()), "subnet_weights_only"))
