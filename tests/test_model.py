import tracemalloc

import numpy as np
import pytest

from tomfn import autodiff as ad
from tomfn import model as M
from tomfn import tt as tt_mod
from tomfn.errors import ConfigError, ShapeError

import oracles
from golden_docs import CONFIGS


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
        g = grads[key]
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + eps
            hi = oracles.batch_loss(m, v, a, t, y)
            arr[i] = orig - eps
            lo = oracles.batch_loss(m, v, a, t, y)
            arr[i] = orig
            worst = max(worst, relative_grad_error(g[i], (hi - lo) / (2 * eps)))
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


def test_gradcheck_dense():
    finite_difference_check(M.build(mini_config(seed=7)), np.random.default_rng(7))


@pytest.mark.parametrize("visual_dims", [[3, 2], [11, 11]], ids=["unpadded", "padded"])
def test_gradcheck_tt(visual_dims):
    # [11, 11] makes visual.fc0 a 12x12 TT operator, zero-padded on both sides.
    m = M.build(mini_config(seed=8, visual_dims=visual_dims, visual=True, text=True, fusion=True))
    finite_difference_check(m, np.random.default_rng(8))


def test_tt_train_step_allocation_peak(monkeypatch):
    # Rebuilding each TT operator keeps a B=8 step of the default config far
    # below the ~680 MB that carrying the batch through every core took.  The
    # tape holds only what the callbacks read: 2.1 MB when backward starts
    # (4.8 MB while the rebuild's matmuls kept their left products, 10.2 MB
    # while every Var kept its value on the tape), and backward frees it as it
    # goes, for a 2.9 MB peak.  The composed rebuild (`oracles.contract_cores`)
    # peaks at 5.1 MB, a sweep that keeps every interior gradient until it
    # returns at 6.0 MB, and the tape-keeping `oracles.backward` at 6.2 MB.
    # The peak is now mostly per-weight gradient arrays, which did not shrink
    # with the tape, so its ratio to the tape is pinned at B=64 instead.
    cfg = M.default_config()
    m = M.build(cfg)
    v, a, t, y = random_batch(np.random.default_rng(11), cfg, 8)
    tape, sweep = [], ad.backward

    def traced_backward(root, seed=None):
        tape.append(tracemalloc.get_traced_memory()[0])
        sweep(root, seed)

    monkeypatch.setattr(ad, "backward", traced_backward)
    tracemalloc.start()
    try:
        M.loss_and_grad(m, v, a, t, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tape[0] <= 2.6e6, f"the forward tape holds {tape[0] / 1e6:.2f} MB"
    assert peak <= 3.6e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


def test_tt_train_step_b64_allocation_peak(monkeypatch):
    # At B=64 the text branch sets the peak: 3 MB per array of (B, L, d_model).
    # The tape is 13.7 MB when backward starts and the peak 14.8 MB (1.09x),
    # in the callback of a head's p @ v product.  Each of these mutants
    # fails a bound: the composed rebuild, whose matmuls keep 2.7 MB of left
    # products, peaks at 17.4 MB; matmul's callback keeping both operands
    # until it returns, at 17.0 MB; the head outputs listed before a copying
    # concat, at 16.0 MB; a sweep that keeps every interior gradient, at 22.1 MB.
    cfg = M.default_config()
    m = M.build(cfg)
    batch = random_batch(np.random.default_rng(11), cfg, 64)
    tape, sweep = [], ad.backward

    def traced_backward(root, seed=None):
        tape.append(tracemalloc.get_traced_memory()[0])
        sweep(root, seed)

    monkeypatch.setattr(ad, "backward", traced_backward)
    tracemalloc.start()
    try:
        M.loss_and_grad(m, *batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.5e6, f"tracemalloc peak {peak / 1e6:.2f} MB"
    assert peak <= 1.1 * tape[0], f"peak {peak / 1e6:.1f} MB over a {tape[0] / 1e6:.1f} MB tape"


REBUILD_CASES = {
    "default-b8": (M.default_config, 8),
    "default-b64": (M.default_config, 64),
    "tiny_tt": (lambda: M.ModelConfig.from_dict(CONFIGS["tiny_tt"]), 5),
    # The gradcheck configs; unpadded, visual.fc0 is a one-core (2, 3) TT.
    "gradcheck-unpadded": (lambda: mini_config(seed=8, visual_dims=[3, 2], visual=True, text=True,
                                               fusion=True), 3),
    "gradcheck-padded": (lambda: mini_config(seed=8, visual_dims=[11, 11], visual=True, text=True,
                                             fusion=True), 3),
}


@pytest.mark.parametrize("case", REBUILD_CASES)
def test_rebuild_op_matches_the_composed_rebuild(case, monkeypatch):
    config, b = REBUILD_CASES[case]
    m = M.build(config())
    batch = random_batch(np.random.default_rng(13), m.config, b)
    loss, grads = M.loss_and_grad(m, *batch)
    with monkeypatch.context() as patched:
        patched.setattr(tt_mod, "contract_cores", oracles.contract_cores)
        want_loss, want = M.loss_and_grad(m, *batch)
    assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
    cores = [key for key in want if "/core" in key]
    assert cores
    for key in cores:
        assert np.array_equal(grads[key].view(np.uint64), want[key].view(np.uint64)), key


def test_heads_write_straight_into_the_concat(monkeypatch):
    # Each head's p @ v writes into its slice of the (B, L, d_model) concat,
    # so no head output is alive beside it, and the bits equal those of the
    # heads made apart and joined by np.concatenate.
    m = M.build(M.default_config())
    x = np.random.default_rng(14).normal(size=(4, 20, 300))
    real, joins = ad.concat, []

    def concat(parts, axis, out=None):
        if out is not None:
            apart = np.concatenate([make(None).value for make in parts], axis=axis)
            checked = [lambda chunk, make=make: in_place(make(chunk), chunk) for make in parts]
            joined = real(checked, axis, out)
            joins.append(np.array_equal(joined.value.view(np.uint64), apart.view(np.uint64)))
            return joined
        return real(parts, axis)

    def in_place(part, chunk):
        assert np.shares_memory(part.value, chunk), "a head output was made apart from its slice"
        return part

    monkeypatch.setattr(ad, "concat", concat)
    oracles.graph_encode_text(m, x)
    assert joins == [True]
@pytest.mark.parametrize("name", ["tiny_tt", "tiny_dense"])
def test_freeing_backward_matches_the_tape_keeping_one(name, monkeypatch):
    m = M.build(M.ModelConfig.from_dict(CONFIGS[name]))
    batch = random_batch(np.random.default_rng(12), m.config, 5)
    loss, grads = M.loss_and_grad(m, *batch)
    with monkeypatch.context() as patched:
        patched.setattr(ad, "backward", oracles.backward)
        kept_loss, kept = M.loss_and_grad(m, *batch)
    assert np.float64(loss).view(np.uint64) == np.float64(kept_loss).view(np.uint64)
    for key, g in kept.items():
        assert np.array_equal(grads[key].view(np.uint64), g.view(np.uint64)), key

    graph = M._Graph(m)
    _, root = graph.outputs(*batch)
    interior = [node for node in ad._toposort(root.node) if node.vjp is not None]
    ad.backward(root)
    assert all(node.grad is None and node.parents == () for node in interior)
    for key, leaf in graph.leaves.items():
        assert np.array_equal(leaf.grad.view(np.uint64), grads[key].view(np.uint64)), key


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
    assert M.mac_count(m)["subnet_weights_only"] == 297_008
    assert M.mac_count(m)["all_weights"] == 297_008 + 4 * 32 * (33 + 33 + 65) + 4 * 32 * 2
    assert M.mac_count(m)["all_weights"] == 314_032
    cfg1 = M.default_config()
    cfg1.text.seq_len = 1
    m1 = M.build(cfg1)
    assert M.mac_count(m1)["full_runtime"] == 314_032 + 2 * 1 * 150 * 2


def test_mac_count_invariant_to_tt():
    dense_cfg = M.default_config()
    dense_cfg.tt = M.TTConfig(visual=False, audio=False, text=False)
    assert (M.mac_count(M.build(dense_cfg))["subnet_weights_only"]
            == M.mac_count(M.build(M.default_config()))["subnet_weights_only"])
