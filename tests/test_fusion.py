"""The shipped fusion stage (`model._Graph._fuse`) against the explicit fusion tensor."""

import numpy as np
import pytest

from tomfn import model as M
from tomfn.errors import ShapeError

from oracles import contract, fusion_tensor, graph_fuse


def make_factors(rng, rank, d_h, dims):
    return {m: [rng.normal(size=(d_h, d + 1)) for _ in range(rank)]
            for m, d in zip(("v", "a", "t"), dims)}


def ones_factors():
    return {m: [np.ones((1, 2))] for m in ("v", "a", "t")}


def test_bias_only():
    h = graph_fuse(ones_factors(), np.zeros(1), np.zeros(1), np.zeros(1))
    assert np.array_equal(h, [1.0])


def test_single_active_modality():
    h = graph_fuse(ones_factors(), np.ones(1), np.zeros(1), np.zeros(1))
    assert np.array_equal(h, [2.0])


def test_input_length_checked():
    # Every embedding that reaches fusion comes from a batch whose widths
    # are checked against the config first.
    cfg = M.ModelConfig(
        visual_dims=[3, 2], audio_dims=[3, 2],
        text=M.TextConfig(d_model=4, heads=2, d_head=2, d_out=3, seq_len=2),
        fusion=M.FusionConfig(rank=2, d_h=2), heads=2,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
    )
    m = M.build(cfg)
    good = {"visual": np.zeros((1, 3)), "audio": np.zeros((1, 3)), "text": np.zeros((1, 2, 4))}
    assert M.forward_batch(m, **good).shape == (1, 2, 2)
    for name, shape in (("visual", (1, 4)), ("audio", (1, 2)), ("text", (1, 2, 5))):
        with pytest.raises(ShapeError, match=name):
            M.forward_batch(m, **{**good, name: np.zeros(shape)})


def test_full_tensor_all_ones():
    # All-ones factors make every entry of the fusion tensor 1, so h is the
    # product of the bias-augmented sums.
    zs = [np.array([0.5]), np.array([-3.0]), np.array([2.0])]
    assert np.array_equal(fusion_tensor(ones_factors()), np.ones((1, 2, 2, 2)))
    assert graph_fuse(ones_factors(), *zs) == pytest.approx([1.5 * -2.0 * 3.0], abs=1e-15)


def test_full_tensor_zero_rank_term():
    rng = np.random.default_rng(0)
    base = make_factors(rng, 1, 3, (2, 2, 2))
    padded = {m: [base[m][0], np.zeros((3, 3))] for m in base}
    assert np.array_equal(fusion_tensor(padded), fusion_tensor(base))
    zs = [rng.normal(size=(4, 2)) for _ in range(3)]
    assert np.array_equal(graph_fuse(padded, *zs), graph_fuse(base, *zs))


def test_full_tensor_against_quadruple_loop():
    rng = np.random.default_rng(1)
    factors = make_factors(rng, 2, 3, (2, 2, 2))
    zs = [rng.normal(size=2) for _ in range(3)]
    zv, za, zt = (np.append(z, 1.0) for z in zs)
    want = np.zeros(3)
    for j in range(3):
        for p in range(3):
            for q in range(3):
                for s in range(3):
                    entry = sum(factors["v"][i][j, p] * factors["a"][i][j, q]
                                * factors["t"][i][j, s] for i in range(2))
                    want[j] += entry * zv[p] * za[q] * zt[s]
    assert np.max(np.abs(graph_fuse(factors, *zs) - want)) < 1e-12


def test_tfn_zero_tensor():
    zero = {m: [np.zeros((3, 2))] for m in ("v", "a", "t")}
    assert not fusion_tensor(zero).any()
    assert np.array_equal(graph_fuse(zero, np.ones(1), np.ones(1), np.ones(1)), np.zeros(3))


def test_tfn_indicator():
    # Indicator factors give a tensor with a single 1 at T[1, 2, 0, 1].
    factors = {m: [np.zeros((2, 3))] for m in ("v", "a", "t")}
    factors["v"][0][1, 2] = factors["a"][0][1, 0] = factors["t"][0][1, 1] = 1.0
    indicator = np.zeros((2, 3, 3, 3))
    indicator[1, 2, 0, 1] = 1.0
    assert np.array_equal(fusion_tensor(factors), indicator)
    zv, za, zt = np.array([4.0, 5.0]), np.array([6.0, 7.0]), np.array([8.0, 9.0])
    h = graph_fuse(factors, zv, za, zt)
    # index 2 of z'_v is the appended 1; index 0 of z'_a is za[0]; index 1 of z'_t is zt[1].
    assert h[0] == 0.0
    assert abs(h[1] - 1.0 * 6.0 * 9.0) < 1e-12


def test_cp_equivalence_randomized():
    # Batches of three embeddings per layer: each row must match its own
    # contraction with the explicit tensor.
    rng = np.random.default_rng(2)
    for _ in range(100):
        rank = int(rng.integers(1, 5))
        d_h = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(3))
        factors = make_factors(rng, rank, d_h, dims)
        zs = [rng.normal(size=(3, d)) for d in dims]
        fused = graph_fuse(factors, *zs)
        t = fusion_tensor(factors)
        explicit = np.stack([contract(t, *(z[b] for z in zs)) for b in range(3)])
        assert np.max(np.abs(fused - explicit)) < 1e-10


def test_affine_in_each_modality():
    # Fixing two modalities, h is affine in the third: midpoint maps to midpoint.
    rng = np.random.default_rng(3)
    factors = make_factors(rng, 3, 4, (3, 2, 2))
    za, zt = rng.normal(size=2), rng.normal(size=2)
    x0, x1 = rng.normal(size=3), rng.normal(size=3)
    h_mid = graph_fuse(factors, 0.5 * (x0 + x1), za, zt)
    h_avg = 0.5 * (graph_fuse(factors, x0, za, zt) + graph_fuse(factors, x1, za, zt))
    assert np.allclose(h_mid, h_avg, atol=1e-12)


def test_rank_terms_additive():
    # Zeroing one modality's factor of a rank term drops that whole term.
    rng = np.random.default_rng(4)
    factors = make_factors(rng, 2, 3, (2, 2, 2))
    zeroed = {m: [f[0], np.zeros((3, 3))] if m == "v" else f for m, f in factors.items()}
    solo = {m: f[:1] for m, f in factors.items()}
    zs = [rng.normal(size=2) for _ in range(3)]
    assert np.allclose(graph_fuse(zeroed, *zs), graph_fuse(solo, *zs), atol=1e-12)
