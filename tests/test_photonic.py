from dataclasses import replace

import numpy as np
import pytest

from tomfn import photonic as P
from tomfn import tt as tt_mod
from tomfn.errors import DecompositionError, MappingError, ShapeError


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotation(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]])


# --- givens_decompose / mesh_matrix ---------------------------------------------


def test_identity_mesh():
    net = P.givens_decompose(np.eye(4)[None])[0]
    assert net.mzi_count() == 6
    assert net.depth == 4
    assert np.all(net.theta == 0.0) and np.all(net.phi == 0.0)
    assert np.allclose(P.mesh_matrix(net), np.eye(4), atol=1e-12)


def test_two_by_two_rotation_single_mzi():
    alpha = 0.7
    net = P.givens_decompose(rotation(alpha)[None])[0]
    assert net.mzi_count() == 1
    assert net.depth == 2  # rectangular grid keeps N columns (one is empty)
    assert (net.col.tolist(), net.row.tolist()) == ([0], [0])
    assert abs(net.theta[0] - alpha) < 1e-12
    assert np.allclose(P.mesh_matrix(net), rotation(alpha), atol=1e-12)


def test_two_by_two_reflection():
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    net = P.givens_decompose(refl[None])[0]
    assert np.allclose(P.mesh_matrix(net), refl, atol=1e-12)


def test_random_6x6():
    rng = np.random.default_rng(0)
    u = random_orthogonal(rng, 6)
    net = P.givens_decompose(u[None])[0]
    assert net.mzi_count() == 15
    assert net.depth == 6
    assert np.linalg.norm(P.mesh_matrix(net) - u) < 1e-10


def test_roundtrip_many_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        u = random_orthogonal(rng, n)
        if rng.random() < 0.5:
            u[:, 0] = -u[:, 0]  # force det -1 half the time
        net = P.givens_decompose(u[None])[0]
        assert net.mzi_count() == n * (n - 1) // 2
        assert net.depth == n
        assert np.linalg.norm(P.mesh_matrix(net) - u) < 1e-10


def test_column_structure_is_rectangular():
    rng = np.random.default_rng(2)
    u = random_orthogonal(rng, 5)
    net = P.givens_decompose(u[None])[0]
    assert np.all(np.diff(net.col) >= 0) and np.all(net.col < net.depth)  # physical order
    for ci in range(net.depth):
        rows = net.row[net.col == ci].tolist()
        assert len(set(rows)) == len(rows)
        for r in rows:
            assert (r - ci) % 2 == 0  # column parity
        for a in rows:
            for b in rows:
                assert a == b or abs(a - b) >= 2  # non-overlapping pairs


def test_norm_preservation():
    rng = np.random.default_rng(3)
    u = random_orthogonal(rng, 7)
    net = P.givens_decompose(u[None])[0]
    for _ in range(10):
        x = rng.normal(size=7)
        assert abs(np.linalg.norm(P.mesh_matrix(net) @ x) - np.linalg.norm(x)) < 1e-12


def test_rejects_non_orthogonal():
    with pytest.raises(DecompositionError, match="orthogonal"):
        P.givens_decompose(np.ones((3, 3))[None])


def test_one_by_one():
    net = P.givens_decompose(np.array([[1.0]])[None])[0]
    assert net.mzi_count() == 0
    with pytest.raises(DecompositionError):
        P.givens_decompose(np.array([[-1.0]])[None])


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_decomposition_matches_single(n):
    rng = np.random.default_rng(30 + n)
    stack = np.stack([random_orthogonal(rng, n) for _ in range(6)])
    stack[::2, :, 0] *= -1  # det -1 for half of them
    nets = P.givens_decompose(stack)
    assert len(nets) == len(stack)
    for u, net in zip(stack, nets):
        assert np.linalg.norm(P.mesh_matrix(net) - u) < 1e-12
        single = P.givens_decompose(u[None])[0]
        assert P.netlist_to_obj(net) == P.netlist_to_obj(single)  # bit-identical angles and layout


def test_stacked_decomposition_checks_every_matrix():
    rng = np.random.default_rng(40)
    stack = np.stack([random_orthogonal(rng, 4) for _ in range(3)])
    stack[1, 0, 0] += 0.1
    with pytest.raises(DecompositionError, match="matrix 1 is not orthogonal"):
        P.givens_decompose(stack)
    stack[1, :, 0] = np.nan
    with pytest.raises(DecompositionError, match="matrix 1 is not orthogonal"):
        P.givens_decompose(stack)
    with pytest.raises(DecompositionError, match="matrix 2"):
        P.givens_decompose(np.array([[[1.0]], [[1.0]], [[-1.0]]]))


def test_svd_map_stack_matches_single():
    rng = np.random.default_rng(41)
    for shape in ((4, 6), (6, 4), (1, 5), (5, 1), (3, 3), (1, 1)):
        stack = rng.normal(size=(5,) + shape)
        if shape == (1, 1):
            stack = np.abs(stack)
        core = P.svd_map(stack)
        for k, w in enumerate(stack):
            single = P.svd_map(w[None])
            for mesh, want in ((core.mesh_u[k], single.mesh_u[0]), (core.mesh_v[k], single.mesh_v[0])):
                assert P.netlist_to_obj(mesh) == P.netlist_to_obj(want)
            assert np.array_equal(core.diag[k], single.diag[0]) and core.scale[k] == single.scale[0]
    stack = np.ones((3, 1, 1))
    stack[2, 0, 0] = -1.0
    with pytest.raises(MappingError, match="matrix 2"):
        P.svd_map(stack)
    stack = np.ones((3, 2, 2))
    stack[1, 0, 1] = np.inf
    with pytest.raises(ShapeError, match="matrix 1"):
        P.svd_map(stack)


def reference_mesh_matrix(net):
    """One mesh applied MZI by MZI to identity columns: the oracle for the stacked apply."""
    y = np.eye(net.size)
    for r, theta, phi in zip(net.row, net.theta, net.phi):
        top = np.cos(phi) * y[r]
        bot = y[r + 1]
        c, s = np.cos(theta), np.sin(theta)
        y[r] = c * top - s * bot
        y[r + 1] = s * top + c * bot
    return y


MZI_FIELDS = ("col", "row", "theta", "phi")


def test_stacked_apply_pads_meshes_of_any_structure():
    rng = np.random.default_rng(42)
    nets = [P.givens_decompose(random_orthogonal(rng, 5)[None])[0] for _ in range(3)]
    # One MZI fewer (the last of column 2).
    drop = np.flatnonzero(nets[0].col == 2)[-1]
    nets[0] = replace(nets[0], **{f: np.delete(getattr(nets[0], f), drop) for f in MZI_FIELDS})
    # The columns in reverse order: another order of rows per step.
    nets[1] = replace(nets[1], col=nets[1].depth - 1 - nets[1].col[::-1],
                      **{f: getattr(nets[1], f)[::-1] for f in MZI_FIELDS[1:]})
    # An extra column of two overlapping MZIs.
    extra = {"col": [5, 5], "row": [1, 2], "theta": [0.3, -0.4], "phi": [0.2, 3.0]}
    nets[2] = replace(nets[2], depth=6,
                      **{f: np.append(getattr(nets[2], f), extra[f]) for f in MZI_FIELDS})
    perturbed = [P.perturb(net, 0.05, 0, seed=i) for i, net in enumerate(nets)]
    for group in (nets, perturbed):
        stacked = P._apply_meshes(group, np.broadcast_to(np.eye(5), (3, 5, 5)))
        for net, got in zip(group, stacked):
            assert np.array_equal(got, reference_mesh_matrix(net))


# --- perturb ---------------------------------------------------------------------


def test_perturb_noop():
    rng = np.random.default_rng(5)
    net = P.givens_decompose(random_orthogonal(rng, 4)[None])[0]
    same = P.perturb(net, phase_sigma=0.0, bits=0, seed=1)
    for f in MZI_FIELDS:
        assert np.array_equal(getattr(same, f), getattr(net, f))
    assert (same.size, same.depth) == (net.size, net.depth)


def test_perturb_quantization_bound():
    rng = np.random.default_rng(6)
    net = P.givens_decompose(random_orthogonal(rng, 4)[None])[0]
    q = P.perturb(net, phase_sigma=0.0, bits=8, seed=1)
    assert np.max(np.abs(q.theta - net.theta)) <= np.pi / 2**8 + 1e-15
    assert np.max(np.abs(q.phi - net.phi)) <= np.pi / 2**8 + 1e-15


def test_perturb_matches_per_mzi_draws():
    # The array perturb must draw the stream of a per-MZI loop (theta's draw,
    # then phi's, MZI by MZI in physical order) so seeded noisy runs repeat.
    rng = np.random.default_rng(23)
    u = random_orthogonal(rng, 6)
    if np.linalg.det(u) > 0:
        u[:, 0] = -u[:, 0]  # det -1: some MZI carries phi = pi, which quantization moves
    net = P.givens_decompose(u[None])[0]
    assert np.any(net.phi != 0)
    sigma, bits, seed = 0.05, 8, 9
    got = P.perturb(net, sigma, bits, seed)
    draws = np.random.default_rng(seed)
    step = 2 * np.pi / 2**bits
    for i in range(net.mzi_count()):
        theta = round(float(net.theta[i]) / step) * step
        phi = round(float(net.phi[i]) / step) * step
        theta += draws.normal(0.0, sigma)
        phi += draws.normal(0.0, sigma)
        assert (got.theta[i], got.phi[i]) == (theta, phi)
    assert np.array_equal(got.col, net.col) and np.array_equal(got.row, net.row)


@pytest.mark.parametrize("sigma, bits", [
    (-0.1, 0), (float("nan"), 0), (float("inf"), 0), (0.01, -2), (0.01, 54), (0.0, 1100),
])
def test_perturb_rejects_bad_noise(sigma, bits):
    net = P.givens_decompose(np.eye(3)[None])[0]
    with pytest.raises(ShapeError):
        P.perturb(net, sigma, bits, seed=0)


def test_perturb_deterministic_and_error_grows():
    rng = np.random.default_rng(7)
    u = random_orthogonal(rng, 4)
    net = P.givens_decompose(u[None])[0]
    x = rng.normal(size=4)
    errs = []
    for sigma in (0.001, 0.01, 0.1):
        p1 = P.perturb(net, sigma, 0, seed=42)
        p2 = P.perturb(net, sigma, 0, seed=42)
        y1, y2 = P.mesh_matrix(p1) @ x, P.mesh_matrix(p2) @ x
        assert np.array_equal(y1, y2)
        errs.append(np.max(np.abs(y1 - u @ x)))
    assert errs[0] < errs[-1]


# --- svd_map ---------------------------------------------------------------------


def test_svd_map_identity():
    core = P.svd_map(np.eye(3)[None])
    assert core.scale[0] == 1.0
    assert np.allclose(core.diag[0], 1.0, atol=1e-12)
    assert np.allclose(P.core_matrices(core)[0], np.eye(3), atol=1e-10)


def test_svd_map_scaling():
    core = P.svd_map(2.0 * np.eye(2)[None])
    assert abs(core.scale[0] - 2.0) < 1e-12
    assert np.allclose(core.diag[0], [1.0, 1.0], atol=1e-12)
    assert np.allclose(P.core_matrices(core)[0], 2.0 * np.eye(2), atol=1e-10)


def test_svd_map_rectangular():
    rng = np.random.default_rng(8)
    for shape in ((4, 6), (6, 4), (1, 5), (5, 1), (3, 3)):
        w = rng.normal(size=shape)
        core = P.svd_map(w[None])
        assert np.all(core.diag[0] >= 0) and np.all(core.diag[0] <= 1 + 1e-12)
        rel = np.linalg.norm(P.core_matrices(core)[0] - w) / np.linalg.norm(w)
        assert rel < 1e-9, shape


def test_svd_map_negative_scalar_rejected():
    with pytest.raises(MappingError):
        P.svd_map(np.array([[-2.0]])[None])


def test_svd_output_norm_bound():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(5, 3))
    core = P.svd_map(w[None])
    for _ in range(5):
        x = rng.normal(size=3)
        bound = core.scale[0] * np.linalg.norm(x) * core.diag[0].max()
        assert np.linalg.norm(P.core_matrices(core)[0] @ x) <= bound + 1e-9


# --- layer plans -----------------------------------------------------------------


def test_map_identity_tt():
    t = tt_mod.tt_from_dense(np.eye(4), [2, 2], [2, 2], max_rank=16, tol=0.0)
    plan = P.map_tt_layer(t)
    assert plan.wdm_channels == 1
    assert [len(c.mesh_u) for c in plan.cores] == [1, 1]
    assert P.core_histogram([plan]) == {"2x2": 2}
    x = np.array([0.5, -1.0, 2.0, 3.0])
    assert np.allclose(tt_mod.tt_matvec(P.realize_plan(plan), x), x, atol=1e-10)


def test_map_32x32_rank2():
    rng = np.random.default_rng(10)
    ranks = [1, 2, 1]
    cores = [rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(2, 8, 8, 1))]
    t = tt_mod.TTMatrix([4, 8], [4, 8], ranks, cores)
    plan = P.map_tt_layer(t)
    assert plan.wdm_channels == 2
    counts = [len(c.mesh_u) for c in plan.cores]
    assert counts == [2, 2]
    assert P.core_histogram([plan]) == {"4x4": 2, "8x8": 2}


def test_realize_plan_matches_tt_matvec():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = rng.normal(size=(12, 8))
        t = tt_mod.tt_from_dense(w, [3, 4], [2, 4], max_rank=8, tol=0.0)
        realized = P.realize_plan(P.map_tt_layer(t))
        assert realized.ranks == t.ranks
        x = rng.normal(size=8)
        assert np.max(np.abs(tt_mod.tt_matvec(realized, x) - tt_mod.tt_matvec(t, x))) < 1e-8


def test_mode_cap_enforced():
    rng = np.random.default_rng(12)
    t = tt_mod.TTMatrix([9], [9], [1, 1], [rng.normal(size=(1, 9, 9, 1))])
    with pytest.raises(MappingError, match="re-factorize"):
        P.map_tt_layer(t)
    with pytest.raises(MappingError):
        P.map_dense_layer(rng.normal(size=(9, 4)))


def test_mzi_count_formulas():
    rng = np.random.default_rng(13)
    plan4 = P.map_dense_layer(rng.normal(size=(4, 4)))
    assert P.mzi_count(plan4) == 6 + 6 + 4 == 16
    plan2 = P.map_dense_layer(rng.normal(size=(2, 2)))
    assert P.mzi_count(plan2) == 1 + 1 + 2 == 4
    empty = P.LayerShape("tt", [], [], [1], 0, 0)
    assert P.mzi_count(empty) == 0


def test_full_mesh_mzi_count():
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        net = P.givens_decompose(random_orthogonal(rng, n)[None])[0]
        assert net.mzi_count() == n * (n - 1) // 2


def test_stage_depth():
    rng = np.random.default_rng(15)
    plan4 = P.map_dense_layer(rng.normal(size=(4, 4)))
    assert P.stage_depth(plan4) == 4 + 1 + 4 == 9
    cores = [rng.normal(size=(1, 2, 2, 1)), rng.normal(size=(1, 2, 2, 1))]
    t = tt_mod.TTMatrix([2, 2], [2, 2], [1, 1, 1], cores)
    assert P.stage_depth(P.map_tt_layer(t)) == 2 * (2 + 1 + 2) == 10


def test_padded_plan_respects_logical_dims():
    # A 5x3 operator padded to TT modes with trailing 1s still maps/res tores.
    rng = np.random.default_rng(16)
    w = rng.normal(size=(5, 3))
    t = tt_mod.tt_from_dense(w, [5, 1], [3, 1], max_rank=16, tol=0.0)
    plan = P.map_tt_layer(t, logical_out=5, logical_in=3)
    realized = P.realize_plan(plan)
    assert (realized.nrows, realized.ncols) == (plan.logical_out, plan.logical_in)
    x = rng.normal(size=3)
    assert np.allclose(tt_mod.tt_matvec(realized, x), w @ x, atol=1e-9)


def test_plan_serialization_roundtrip():
    rng = np.random.default_rng(17)
    w = rng.normal(size=(8, 6))
    t = tt_mod.tt_from_dense(w, [2, 4], [2, 3], max_rank=4, tol=0.0)
    plan = P.map_tt_layer(t)
    back = P.plan_from_obj(P.plan_to_obj(plan))
    for got, want in zip(P.realize_plan(back).cores, P.realize_plan(plan).cores):
        assert np.array_equal(got, want)


def test_netlist_serialization_roundtrip():
    rng = np.random.default_rng(18)
    u = random_orthogonal(rng, 4)
    net = P.givens_decompose(u[None])[0]
    back = P.netlist_from_obj(P.netlist_to_obj(net))
    assert np.allclose(P.mesh_matrix(back), P.mesh_matrix(net), atol=0)


# --- whole-model compile + realize -------------------------------------------------


def tiny_config(visual_dims=(8, 4), pooling="mean", **tt_flags):
    from tomfn import model as M

    tt = M.TTConfig(visual=False, audio=False, text=False, fusion=False,
                    class_heads=False, max_rank=16, tol=0.0)
    for k, v in tt_flags.items():
        setattr(tt, k, v)
    return M.ModelConfig(
        visual_dims=list(visual_dims),
        audio_dims=[6, 4],
        text=M.TextConfig(d_model=8, heads=2, d_head=4, d_out=4, seq_len=3, pooling=pooling),
        fusion=M.FusionConfig(rank=2, d_h=4),
        heads=4,
        tt=tt,
        seed=0,
    )


def random_sample(rng, cfg):
    return {
        "visual": rng.normal(size=cfg.visual_dims[0]),
        "audio": rng.normal(size=cfg.audio_dims[0]),
        "text": rng.normal(size=(cfg.text.seq_len, cfg.text.d_model)),
    }


def test_compiled_tiny_model_matches_forward():
    from tomfn import model as M

    rng = np.random.default_rng(20)
    configs = (
        tiny_config(),
        tiny_config(visual=True, text=True, fusion=True),
        tiny_config(pooling="last"),
        # 11 is not 8-smooth: the TT operator is zero-padded to 12 columns.
        tiny_config(visual_dims=(11, 4), visual=True, text=True, class_heads=True),
    )
    for cfg in configs:
        m = M.build(cfg)
        bundle = P.compile_model(m)
        for _ in range(5):
            sample = random_sample(rng, cfg)
            optical = M.forward(P.realize(bundle), sample)
            digital = M.forward(m, sample)
            assert np.max(np.abs(optical - digital)) < 1e-8


def test_bundle_totals_and_histogram():
    from tomfn import model as M

    m = M.build(tiny_config())
    bundle = P.compile_model(m)
    totals = P.totals(bundle.config, bundle.plans)
    assert totals["mzis"] == sum(P.mzi_count(p) for p in bundle.plans.values())
    assert totals["wdm_channels"] == 1
    hist = totals["core_histogram"]
    assert sum(hist.values()) == len(bundle.plans)  # all dense: one triple each
    # Sequential chains sum, parallel branches take the max.
    visual = P.stage_depth(bundle.plans["visual.fc0"])
    audio = P.stage_depth(bundle.plans["audio.fc0"])
    text = (P.stage_depth(bundle.plans["text.head0.q"])
            + P.stage_depth(bundle.plans["text.ff"]))
    fusion = max(P.stage_depth(bundle.plans[f"fusion.{m_}.{i}"])
                 for m_ in ("v", "a", "t") for i in range(2))
    heads = max(P.stage_depth(bundle.plans[f"head.{j}"]) for j in range(4))
    assert totals["stages"] == max(visual, audio, text) + fusion + heads


@pytest.mark.parametrize("case", ["default", "tiny", "padded_tt", "pooling_last"])
def test_shape_totals_equal_compiled_totals(case):
    from tomfn import model as M

    cfg = {
        "default": M.default_config,
        "tiny": tiny_config,
        "padded_tt": lambda: tiny_config(visual_dims=(11, 4), visual=True, text=True,
                                         class_heads=True),
        "pooling_last": lambda: tiny_config(pooling="last", visual=True, fusion=True),
    }[case]()
    model = M.build(cfg)
    shapes = P.model_shapes(model)
    bundle = P.compile_model(model)
    assert P.totals(cfg, shapes) == P.totals(cfg, bundle.plans)
    # Counted from the compiled meshes themselves, not from modes and ranks.
    cores = [(core, plan.ranks[k], plan.ranks[k + 1])
             for plan in bundle.plans.values() for k, core in enumerate(plan.cores)]
    for core, r_in, r_out in cores:
        assert len(core.mesh_u) == len(core.mesh_v) == len(core.diag) == len(core.scale) == r_in * r_out
    mzis = sum(net.mzi_count() for core, _, _ in cores for net in core.mesh_u + core.mesh_v)
    mzis += sum(core.diag.size for core, _, _ in cores)
    hist = {}
    for core, _, _ in cores:
        hist[f"{core.m}x{core.n}"] = hist.get(f"{core.m}x{core.n}", 0) + len(core.mesh_u)
    wdm = max(max(r_in, r_out) for _, r_in, r_out in cores)
    totals = P.totals(cfg, shapes)
    assert (totals["mzis"], totals["core_histogram"], totals["wdm_channels"]) == (mzis, hist, wdm)
    if case == "default":
        assert (totals["mzis"], totals["stages"], totals["wdm_channels"]) == (40_044, 128, 8)


def test_dense_oversized_layer_refused():
    from tomfn import model as M

    cfg = M.default_config()
    cfg.tt = M.TTConfig(visual=False, audio=False, text=False)
    with pytest.raises(MappingError):
        P.compile_model(M.build(cfg))


def test_bundle_serialization_roundtrip():
    from tomfn import model as M

    rng = np.random.default_rng(21)
    cfg = tiny_config(visual=True)
    m = M.build(cfg)
    bundle = P.compile_model(m)
    back = P.bundle_from_obj(P.bundle_to_obj(bundle))
    sample = random_sample(rng, cfg)
    assert np.array_equal(M.forward(P.realize(back), sample), M.forward(P.realize(bundle), sample))


def test_perturbed_bundle_deterministic():
    from tomfn import model as M

    rng = np.random.default_rng(22)
    cfg = tiny_config()
    m = M.build(cfg)
    bundle = P.compile_model(m)
    sample = random_sample(rng, cfg)
    p1 = P.perturb_bundle(bundle, 0.01, 8, seed=7)
    p2 = P.perturb_bundle(bundle, 0.01, 8, seed=7)
    y1 = M.forward(P.realize(bundle, p1), sample)
    y2 = M.forward(P.realize(bundle, p2), sample)
    assert np.array_equal(y1, y2)
    ideal = M.forward(P.realize(bundle), sample)
    assert not np.array_equal(y1, ideal)


def test_perturb_bundle_noise_stream():
    """Which seed perturbs which mesh, walked on the bundle's on-disk layout: layers in
    sorted name order, each seeded by the next child of SeedSequence(seed); within a
    layer, core by core, slices [alpha][beta] row-major, each spawning two seeds, U then V."""
    from tomfn import model as M

    bundle = P.compile_model(M.build(tiny_config(visual=True, fusion=True, max_factor=2)))
    assert any(r_in > 1 and r_out > 1 for plan in bundle.plans.values()
               for r_in, r_out in zip(plan.ranks, plan.ranks[1:]))  # slice order matters
    seed, sigma, bits = 5, 0.02, 6
    got = P.perturb_bundle(bundle, sigma, bits, seed)
    assert list(got) == sorted(bundle.plans)
    trial = np.random.SeedSequence(seed)
    for name in sorted(bundle.plans):
        layer = np.random.SeedSequence(trial.spawn(1)[0].generate_state(1)[0])
        want_cores = P.plan_to_obj(bundle.plans[name])["cores"]
        got_cores = P.plan_to_obj(got[name])["cores"]
        for want_core, got_core in zip(want_cores, got_cores, strict=True):
            for want_row, got_row in zip(want_core["triples"], got_core["triples"], strict=True):
                for want, perturbed in zip(want_row, got_row, strict=True):
                    s_u, s_v = (child.generate_state(1)[0] for child in layer.spawn(2))
                    for key, s in (("mesh_u", s_u), ("mesh_v", s_v)):
                        net = P.perturb(P.netlist_from_obj(want[key]), sigma, bits, s)
                        assert perturbed[key] == P.netlist_to_obj(net), (name, key)
                    assert (perturbed["diag"], perturbed["scale"]) == (want["diag"], want["scale"])
