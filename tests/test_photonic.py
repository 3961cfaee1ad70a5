from dataclasses import replace

import numpy as np
import pytest

from tomfn import photonic as P
from tomfn import tt as tt_mod
from tomfn.errors import DecompositionError, MappingError, ShapeError
from tomfn.serialize import floats_to_obj

import oracles


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def one_mesh(stack, k):
    """Mesh k of a stack, as a stack of one."""
    return replace(stack, theta=stack.theta[k:k + 1], phi=stack.phi[k:k + 1])


def rotation(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]])


# --- givens_decompose / mesh_matrix ---------------------------------------------


def test_identity_mesh():
    net = P.givens_decompose(np.eye(4)[None])
    assert net.mzi_count() == 6
    assert net.size == 4
    assert np.all(net.theta == 0.0) and np.all(net.phi == 0.0)
    assert np.allclose(P.mesh_matrix(net)[0], np.eye(4), atol=1e-12)


def test_two_by_two_rotation_single_mzi():
    alpha = 0.7
    net = P.givens_decompose(rotation(alpha)[None])
    assert net.mzi_count() == 1
    assert net.size == 2  # rectangular grid keeps N columns (one is empty)
    assert (net.col.tolist(), net.row.tolist()) == ([0], [0])
    assert abs(net.theta[0, 0] - alpha) < 1e-12
    assert np.allclose(P.mesh_matrix(net)[0], rotation(alpha), atol=1e-12)


def test_two_by_two_reflection():
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    net = P.givens_decompose(refl[None])
    assert np.allclose(P.mesh_matrix(net)[0], refl, atol=1e-12)


def test_random_6x6():
    rng = np.random.default_rng(0)
    u = random_orthogonal(rng, 6)
    net = P.givens_decompose(u[None])
    assert net.mzi_count() == 15
    assert net.size == 6
    assert np.linalg.norm(P.mesh_matrix(net)[0] - u) < 1e-10


def test_roundtrip_many_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        u = random_orthogonal(rng, n)
        if rng.random() < 0.5:
            u[:, 0] = -u[:, 0]  # force det -1 half the time
        net = P.givens_decompose(u[None])
        assert net.mzi_count() == n * (n - 1) // 2
        assert net.size == n
        assert np.linalg.norm(P.mesh_matrix(net)[0] - u) < 1e-10


def test_column_structure_is_rectangular():
    rng = np.random.default_rng(2)
    u = random_orthogonal(rng, 5)
    net = P.givens_decompose(u[None])
    assert np.all(np.diff(net.col) >= 0) and np.all(net.col < net.size)  # physical order
    for ci in range(net.size):
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
    net = P.givens_decompose(u[None])
    for _ in range(10):
        x = rng.normal(size=7)
        assert abs(np.linalg.norm(P.mesh_matrix(net)[0] @ x) - np.linalg.norm(x)) < 1e-12


def test_rejects_non_orthogonal():
    with pytest.raises(DecompositionError, match="orthogonal"):
        P.givens_decompose(np.ones((3, 3))[None])


def test_one_by_one():
    net = P.givens_decompose(np.array([[1.0]])[None])
    assert net.mzi_count() == 0
    with pytest.raises(DecompositionError):
        P.givens_decompose(np.array([[-1.0]])[None])


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_decomposition_matches_single(n):
    rng = np.random.default_rng(30 + n)
    stack = np.stack([random_orthogonal(rng, n) for _ in range(6)])
    stack[::2, :, 0] *= -1  # det -1 for half of them
    nets = P.givens_decompose(stack)
    assert nets.theta.shape[0] == nets.phi.shape[0] == len(stack)
    for k, u in enumerate(stack):
        assert np.linalg.norm(P.mesh_matrix(nets)[k] - u) < 1e-12
        single = P.givens_decompose(u[None])
        # Bit-identical angles and layout.
        assert P.netlist_to_obj(one_mesh(nets, k)) == P.netlist_to_obj(single)


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
            for side, want in ((core.mesh_u, single.mesh_u), (core.mesh_v, single.mesh_v)):
                assert P.netlist_to_obj(one_mesh(side, k)) == P.netlist_to_obj(want)
            assert np.array_equal(core.diag[k], single.diag[0]) and core.scale[k] == single.scale[0]
    stack = np.ones((3, 1, 1))
    stack[2, 0, 0] = -1.0
    with pytest.raises(MappingError, match="matrix 2"):
        P.svd_map(stack)
    stack = np.ones((3, 2, 2))
    stack[1, 0, 1] = np.inf
    with pytest.raises(ShapeError, match="matrix 1"):
        P.svd_map(stack)


def reference_mesh_matrix(net, k, x=None):
    """Mesh k of a stack applied MZI by MZI to the columns of x (default: identity
    columns): the oracle for the stacked apply."""
    y = np.eye(net.size) if x is None else np.array(x, dtype=np.float64)
    for r, theta, phi in zip(net.row, net.theta[k], net.phi[k]):
        top = np.cos(phi) * y[r]
        bot = y[r + 1]
        c, s = np.cos(theta), np.sin(theta)
        y[r] = c * top - s * bot
        y[r + 1] = s * top + c * bot
    return y


MZI_FIELDS = ("col", "row", "theta", "phi")


def grid_variants(net, extra_theta, extra_phi):
    """A compiled stack (size >= 4) and the same meshes on three hand-built grids
    that a loaded bundle may hold."""
    # One MZI fewer (the last of column 2).
    drop = np.flatnonzero(net.col == 2)[-1]
    dropped = replace(net, col=np.delete(net.col, drop), row=np.delete(net.row, drop),
                      theta=np.delete(net.theta, drop, axis=1), phi=np.delete(net.phi, drop, axis=1))
    # The columns in reverse order: another order of rows per step.
    reversed_ = replace(net, col=net.size - 1 - net.col[::-1], row=net.row[::-1],
                        theta=net.theta[:, ::-1], phi=net.phi[:, ::-1])
    # Two overlapping MZIs more, in the last column.
    extra = replace(net, col=np.append(net.col, [net.size - 1] * 2),
                    row=np.append(net.row, [1, 2]), theta=np.hstack([net.theta, extra_theta]),
                    phi=np.hstack([net.phi, extra_phi]))
    return [net, dropped, reversed_, extra]


def test_stacked_apply_matches_mzi_by_mzi_oracle():
    """Every mesh of a stack, compiled or on a hand-built grid that a loaded bundle
    may hold, perturbed or not, equals the MZI-by-MZI oracle bit for bit."""
    rng = np.random.default_rng(42)
    net = P.givens_decompose(np.stack([random_orthogonal(rng, 5) for _ in range(3)]))
    for grid in grid_variants(net, [[0.3, -0.4], [1.1, 2.0], [-2.5, 0.0]],
                              [[0.2, 3.0], [0.0, np.pi], [-1.0, 0.5]]):
        for stack in (grid, P.perturb(grid, 0.05, 0, seeds=[0, 1, 2])):
            assert not np.array_equal(stack.theta[0], stack.theta[1])
            got = P.mesh_matrix(stack)
            for k in range(3):
                assert np.array_equal(got[k], reference_mesh_matrix(stack, k))


# --- perturb ---------------------------------------------------------------------


def test_perturb_noop():
    rng = np.random.default_rng(5)
    net = P.givens_decompose(random_orthogonal(rng, 4)[None])
    same = P.perturb(net, phase_sigma=0.0, bits=0, seeds=[1])
    for f in MZI_FIELDS:
        assert np.array_equal(getattr(same, f), getattr(net, f))
    assert same.size == net.size


def test_perturb_quantization_bound():
    rng = np.random.default_rng(6)
    net = P.givens_decompose(random_orthogonal(rng, 4)[None])
    q = P.perturb(net, phase_sigma=0.0, bits=8, seeds=[1])
    assert np.max(np.abs(q.theta - net.theta)) <= np.pi / 2**8 + 1e-15
    assert np.max(np.abs(q.phi - net.phi)) <= np.pi / 2**8 + 1e-15


def test_perturb_matches_per_mzi_draws():
    # The array perturb must draw the stream of a per-MZI loop (theta's draw,
    # then phi's, MZI by MZI in physical order) so seeded noisy runs repeat.
    rng = np.random.default_rng(23)
    u = random_orthogonal(rng, 6)
    if np.linalg.det(u) > 0:
        u[:, 0] = -u[:, 0]  # det -1: some MZI carries phi = pi, which quantization moves
    net = P.givens_decompose(u[None])
    assert np.any(net.phi != 0)
    sigma, bits, seed = 0.05, 8, 9
    got = P.perturb(net, sigma, bits, [seed])
    draws = np.random.default_rng(seed)
    step = 2 * np.pi / 2**bits
    for i in range(net.mzi_count()):
        theta = round(float(net.theta[0, i]) / step) * step
        phi = round(float(net.phi[0, i]) / step) * step
        theta += draws.normal(0.0, sigma)
        phi += draws.normal(0.0, sigma)
        assert (got.theta[0, i], got.phi[0, i]) == (theta, phi)
    assert np.array_equal(got.col, net.col) and np.array_equal(got.row, net.row)


def test_perturb_draws_any_64_bit_seed_like_default_rng():
    """Each mesh of a stack draws the stream of default_rng(its seed), seeds of 33 to 64 bits too."""
    net = P.givens_decompose(np.stack([random_orthogonal(np.random.default_rng(24), 4)] * 4))
    seeds = [0, 2**32 - 1, 2**32 + 5, 2**64 - 1]
    got = P.perturb(net, 0.05, 0, seeds)
    for k, seed in enumerate(seeds):
        draws = np.random.default_rng(seed).normal(0.0, 0.05, (net.mzi_count(), 2))
        assert np.array_equal(got.theta[k], net.theta[k] + draws[:, 0])
        assert np.array_equal(got.phi[k], net.phi[k] + draws[:, 1])


@pytest.mark.parametrize("seeds", [[5], [5, 6], [5, 6, 7, 8]])
def test_perturb_needs_one_seed_per_mesh(seeds):
    net = P.givens_decompose(np.stack([random_orthogonal(np.random.default_rng(25), 3)] * 3))
    with pytest.raises(ShapeError, match=f"got {len(seeds)} for 3 meshes"):
        P.perturb(net, 0.05, 0, seeds)


ENTROPY_WORDS = [0, 1, 2**31, 2**32 - 1, *np.random.default_rng(26).integers(0, 2**32, 20).tolist()]


@pytest.mark.parametrize("spawn_key", [None, 0, 1, 2**16, 2**32 - 1])
def test_seed_words_equal_numpy_seed_sequence(spawn_key):
    """The array SeedSequence gives numpy's own state words, with and without a spawn key."""
    if spawn_key is None:
        rows = [[word, 0, 0, 0] for word in ENTROPY_WORDS]
        seqs = [np.random.SeedSequence(word) for word in ENTROPY_WORDS]
    else:
        rows = [[word, 0, 0, 0, spawn_key] for word in ENTROPY_WORDS]
        seqs = [np.random.SeedSequence(word, spawn_key=(spawn_key,)) for word in ENTROPY_WORDS]
    assert np.array_equal(P._seed_words(rows, 1), [seq.generate_state(1) for seq in seqs])
    got = P._seed_words(rows, 4, np.uint64)
    assert got.dtype == np.uint64
    assert np.array_equal(got, [seq.generate_state(4, np.uint64) for seq in seqs])


@pytest.mark.parametrize("sigma, bits", [
    (-0.1, 0), (float("nan"), 0), (float("inf"), 0), (0.01, -2), (0.01, 54), (0.0, 1100),
])
def test_perturb_rejects_bad_noise(sigma, bits):
    net = P.givens_decompose(np.eye(3)[None])
    with pytest.raises(ShapeError):
        P.perturb(net, sigma, bits, seeds=[0])


def test_perturb_deterministic_and_error_grows():
    rng = np.random.default_rng(7)
    u = random_orthogonal(rng, 4)
    net = P.givens_decompose(u[None])
    x = rng.normal(size=4)
    errs = []
    for sigma in (0.001, 0.01, 0.1):
        p1 = P.perturb(net, sigma, 0, seeds=[42])
        p2 = P.perturb(net, sigma, 0, seeds=[42])
        y1, y2 = P.mesh_matrix(p1)[0] @ x, P.mesh_matrix(p2)[0] @ x
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
    assert [len(c.mesh_u.theta) for c in plan.cores] == [1, 1]
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
    counts = [len(c.mesh_u.theta) for c in plan.cores]
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
    empty = P.LayerShape("tt", [], [], [1])
    assert P.mzi_count(empty) == 0


def test_full_mesh_mzi_count():
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        net = P.givens_decompose(random_orthogonal(rng, n)[None])
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
    plan = P.map_tt_layer(t)
    realized = P.realize_plan(plan)
    assert (realized.nrows, realized.ncols) == (5, 3)
    x = rng.normal(size=3)
    assert np.allclose(tt_mod.tt_matvec(realized, x), w @ x, atol=1e-9)


def test_plan_serialization_roundtrip():
    """Plans travel in a bundle: every plan, TT ones with several cores and bond ranks > 1,
    reads back to the same operator bit for bit, and a core side [g, first] of K slices
    reads meshes first .. first + K - 1 of grid g."""
    from tomfn import model as M

    bundle = P.compile_model(M.build(tiny_config(visual=True, fusion=True, max_factor=2)))
    obj = P.bundle_to_obj(bundle)
    back = P.bundle_from_obj(obj)
    assert len(obj["grids"]) < sum(2 * len(plan.cores) for plan in bundle.plans.values())
    for name, plan in bundle.plans.items():
        got, want = P.realize_plan(back.plans[name]), P.realize_plan(plan)
        for a, b in zip(getattr(got, "cores", [got]), getattr(want, "cores", [want]), strict=True):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        for core, core_obj in zip(back.plans[name].cores, obj["plans"][name]["cores"], strict=True):
            for key in ("mesh_u", "mesh_v"):
                g, first = core_obj[key]
                grid = P.netlist_from_obj(obj["grids"][g], f"grid {g}")
                meshes = replace(grid, theta=grid.theta[first:first + len(core.scale)],
                                 phi=grid.phi[first:first + len(core.scale)])
                assert P.netlist_to_obj(getattr(core, key)) == P.netlist_to_obj(meshes), (name, key)


def test_netlist_serialization_roundtrip():
    rng = np.random.default_rng(18)
    u = random_orthogonal(rng, 4)
    net = P.givens_decompose(u[None])
    back = P.netlist_from_obj(P.netlist_to_obj(net), "mesh")
    assert np.allclose(P.mesh_matrix(back)[0], P.mesh_matrix(net)[0], atol=0)


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


def deep_config():
    """All dense, with stacks of 3 visual and 2 audio layers of unequal depths, 3 text heads,
    fusion rank 3 and 2 class heads, so a summed stack and a max-reduced one differ."""
    from tomfn import model as M

    return M.ModelConfig(
        visual_dims=[4, 6, 3, 5],
        audio_dims=[5, 7, 2],
        text=M.TextConfig(d_model=6, heads=3, d_head=2, d_out=4, seq_len=3),
        fusion=M.FusionConfig(rank=3, d_h=3),
        heads=2,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
        seed=0,
    )


@pytest.mark.parametrize("case", ["tiny", "deep"])
def test_bundle_totals_and_histogram(case):
    from tomfn import model as M

    cfg = tiny_config() if case == "tiny" else deep_config()
    bundle = P.compile_model(M.build(cfg))
    totals = P.totals(bundle.plans)
    assert totals["mzis"] == sum(P.mzi_count(p) for p in bundle.plans.values())
    assert totals["wdm_channels"] == 1
    hist = totals["core_histogram"]
    assert sum(hist.values()) == len(bundle.plans)  # all dense: one triple each
    # Sequential chains sum, parallel branches take the max.
    depth = {name: P.stage_depth(plan) for name, plan in bundle.plans.items()}
    visual = sum(depth[f"visual.fc{k}"] for k in range(len(cfg.visual_dims) - 1))
    audio = sum(depth[f"audio.fc{k}"] for k in range(len(cfg.audio_dims) - 1))
    text = (max(depth[f"text.head{h}.{part}"] for h in range(cfg.text.heads) for part in "qkv")
            + depth["text.ff"])
    fusion = max(depth[f"fusion.{m_}.{i}"] for m_ in "vat" for i in range(cfg.fusion.rank))
    heads = max(depth[f"head.{j}"] for j in range(cfg.heads))
    assert totals["stages"] == max(visual, audio, text) + fusion + heads
    if case == "deep":  # visual 11 + 10 + 9 outruns text 9 + 11; fusion 10, heads 6
        assert (visual, audio, text, fusion, heads, totals["stages"]) == (30, 23, 20, 10, 6, 46)
        # block_dims: visual 6x4, 3x6, 5x3; audio 7x5, 2x7; nine 2x6 text.head projections and a
        # 4x6 text.ff; fusion v, a, t 3x6, 3x3, 3x5 at each of 3 ranks; two 2x3 heads.
        assert [m * n for m, n in M.block_dims(cfg).values()] == (
            [24, 18, 15, 35, 14] + [12] * 9 + [24] + [18] * 3 + [9] * 3 + [15] * 3 + [6] * 2)
        subnet = (24 + 18 + 15) + (35 + 14) + (9 * 12 + 24)
        all_weights = subnet + 3 * (18 + 9 + 15) + 2 * 6
        full = all_weights + (3 - 1) * (9 * 12 + 24) + 2 * 3 * 3 * 2 * 3  # 3 tokens, 3 heads of d_head 2
        assert M.mac_count(M.build(cfg)) == {
            "subnet_weights_only": subnet, "all_weights": all_weights, "full_runtime": full}
        assert (subnet, all_weights, full) == (238, 376, 748)


def case_config(case):
    from tomfn import model as M

    return {
        "default": M.default_config,
        "tiny": tiny_config,
        "padded_tt": lambda: tiny_config(visual_dims=(11, 4), visual=True, text=True,
                                         class_heads=True),
        "pooling_last": lambda: tiny_config(pooling="last", visual=True, fusion=True),
        # visual.fc0 is one 4x8 TT core; the dense text projections are 4x8 too.
        "tt_beside_dense": lambda: tiny_config(visual=True),
    }[case]()


@pytest.mark.parametrize("case", ["default", "tiny", "padded_tt", "pooling_last"])
def test_shape_totals_equal_compiled_totals(case):
    from tomfn import model as M

    cfg = case_config(case)
    model = M.build(cfg)
    shapes = P.model_shapes(model)
    bundle = P.compile_model(model)
    assert P.totals(shapes) == P.totals(bundle.plans)
    # Counted from the compiled meshes themselves, not from modes and ranks.
    cores = [(core, plan.ranks[k], plan.ranks[k + 1])
             for plan in bundle.plans.values() for k, core in enumerate(plan.cores)]
    for core, r_in, r_out in cores:
        slices = (len(core.mesh_u.theta), len(core.mesh_v.theta), len(core.diag), len(core.scale))
        assert slices == (r_in * r_out,) * 4
    mzis = sum(net.theta.size for core, _, _ in cores for net in (core.mesh_u, core.mesh_v))
    mzis += sum(core.diag.size for core, _, _ in cores)
    hist = {}
    for core, _, _ in cores:
        hist[f"{core.m}x{core.n}"] = hist.get(f"{core.m}x{core.n}", 0) + len(core.mesh_u.theta)
    wdm = max(max(r_in, r_out) for _, r_in, r_out in cores)
    totals = P.totals(shapes)
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


def test_default_bundle_arrays_decode_bit_for_bit():
    """Every decoded angle, amplitude and scale has the compiled bits (-0.0 is not 0.0),
    and writing the decoded bundle gives the same text."""
    import json

    from tomfn import model as M
    from tomfn.serialize import dumps

    bundle = P.compile_model(M.build(M.default_config()))
    text = dumps(P.bundle_to_obj(bundle))
    back = P.bundle_from_obj(json.loads(text))

    def arrays(c):
        return c.diag, c.scale, c.mesh_u.theta, c.mesh_u.phi, c.mesh_v.theta, c.mesh_v.phi

    for name, plan in bundle.plans.items():
        for k, (core, got) in enumerate(zip(plan.cores, back.plans[name].cores)):
            for want, have in zip(arrays(core), arrays(got)):
                assert have.dtype == np.float64 and have.shape == want.shape, (name, k)
                assert np.array_equal(have.view(np.uint64), want.view(np.uint64)), (name, k)
    assert dumps(P.bundle_to_obj(back)) == text


def test_perturbed_bundle_deterministic():
    from tomfn import model as M

    rng = np.random.default_rng(22)
    cfg = tiny_config()
    m = M.build(cfg)
    bundle = P.compile_model(m)
    sample = random_sample(rng, cfg)
    y1 = M.forward(P.realize(bundle, 0.01, 8, seed=7), sample)
    y2 = M.forward(P.realize(bundle, 0.01, 8, seed=7), sample)
    assert np.array_equal(y1, y2)
    ideal = M.forward(P.realize(bundle), sample)
    assert not np.array_equal(y1, ideal)


def test_perturb_bundle_noise_stream():
    """Which seed perturbs which mesh: layers in sorted name order, each seeded by the
    next child of SeedSequence(seed); within a layer, core by core, slice k of each
    stack in turn (slices [alpha][beta] row-major), each spawning two seeds, U then V.
    `_mesh_seeds` gives each core's (K, 2) U/V block in bundle order, and a noisy
    `realize` reads each slice back as its two meshes, perturbed alone, give."""
    from tomfn import model as M

    bundle = P.compile_model(M.build(tiny_config(visual=True, fusion=True, max_factor=2)))
    assert any(r_in > 1 and r_out > 1 for plan in bundle.plans.values()
               for r_in, r_out in zip(plan.ranks, plan.ranks[1:]))  # slice order matters
    assert list(bundle.plans) != sorted(bundle.plans)  # bundle order is not the seeding order
    seed, sigma, bits = 5, 0.02, 6
    trial, want = np.random.SeedSequence(seed), {}
    for name in sorted(bundle.plans):
        layer = np.random.SeedSequence(trial.spawn(1)[0].generate_state(1)[0])
        want[name] = [[[child.generate_state(1)[0] for child in layer.spawn(2)] for _ in core.scale]
                      for core in bundle.plans[name].cores]
    blocks = iter(P._mesh_seeds(bundle.plans, seed))
    realized = P.realize(bundle, sigma, bits, seed).weights
    for name, plan in bundle.plans.items():
        for k, core in enumerate(plan.cores):
            block = next(blocks)
            assert block.shape == (len(core.scale), 2) and np.array_equal(block, want[name][k]), (name, k)
            for j, (s_u, s_v) in enumerate(want[name][k]):
                alone = P.CorePlan(core.m, core.n, P.perturb(one_mesh(core.mesh_u, j), sigma, bits, [s_u]),
                                   P.perturb(one_mesh(core.mesh_v, j), sigma, bits, [s_v]),
                                   core.diag[j:j + 1], core.scale[j:j + 1])
                w, r_out = realized[name], plan.ranks[k + 1]
                got = w if plan.kind == "dense" else w.cores[k][j // r_out, :, :, j % r_out]
                assert got.tobytes() == P.core_matrices(alone)[0].tobytes(), (name, k, j)
    assert next(blocks, None) is None


@pytest.fixture(scope="module")
def default_bundle():
    from tomfn import model as M

    return P.compile_model(M.build(M.default_config()))


def operator_arrays(w):
    return w.cores if isinstance(w, tt_mod.TTMatrix) else [w]


def assert_realizes_perturbed_plans(bundle, sigma, bits, seed):
    """A noisy `realize` gives, weight by weight in bundle order, the bits of the oracle's
    per-mesh perturbed plans read back one by one through `realize_plan`."""
    got = P.realize(bundle, sigma, bits, seed).weights
    want = oracles.perturb_bundle(bundle, sigma, bits, seed)
    assert list(got) == list(bundle.plans) and sorted(got) == list(want)
    for name, plan in want.items():
        for a, b in zip(operator_arrays(got[name]), operator_arrays(P.realize_plan(plan)), strict=True):
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


@pytest.mark.parametrize("sigma, bits", [(0.01, 8), (0.3, 0), (0.0, 4)])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_perturb_bundle_equals_per_mesh_seeding_on_default_config(default_bundle, seed, sigma, bits):
    """The trial's seeds, computed on arrays, perturb the default bundle (29 layers, ranks up
    to 8) bit for bit as a SeedSequence and a default_rng per mesh do."""
    assert len(default_bundle.plans) == 29
    assert max(max(plan.ranks) for plan in default_bundle.plans.values()) == 8
    assert_realizes_perturbed_plans(default_bundle, sigma, bits, seed)


# --- model-wide grouping -----------------------------------------------------------


def per_core_plans(model):
    """Every weight's plan, each core mapped by its own `svd_map` call."""
    plans = {}
    for name, shape in P.model_shapes(model).items():
        w = model.weights[name]
        cores = w.cores if shape.kind == "tt" else [w[None, :, :, None]]
        plans[name] = P.LayerPlan(**vars(shape), cores=[
            P.svd_map(c.transpose(0, 3, 1, 2).reshape(-1, *c.shape[1:3])) for c in cores])
    return plans


def plan_obj(plan):
    """Every field of a plan, its arrays and mesh stacks as the objects that keep their bits."""
    return {**vars(plan), "cores": [{**vars(c), "diag": floats_to_obj(c.diag), "scale": floats_to_obj(c.scale),
                                     "mesh_u": P.netlist_to_obj(c.mesh_u), "mesh_v": P.netlist_to_obj(c.mesh_v)}
                                    for c in plan.cores]}


@pytest.mark.parametrize("case", ["default", "tiny", "padded_tt", "tt_beside_dense"])
def test_grouped_compile_equals_per_core_mapping(case):
    """Mapping every core shape once, model-wide, gives each plan the bits of mapping its
    cores one by one, also where a TT core and a dense weight share a shape."""
    from tomfn import model as M

    model = M.build(case_config(case))
    if case == "tt_beside_dense":
        shapes = P.model_shapes(model).values()
        tt, dense = ({(m, n) for s in shapes if s.kind == kind for m, n in zip(s.row_modes, s.col_modes)}
                     for kind in ("tt", "dense"))
        assert tt & dense
    bundle = P.compile_model(model)
    want = per_core_plans(model)
    assert list(bundle.plans) == list(want)
    for name, plan in bundle.plans.items():
        assert plan_obj(plan) == plan_obj(want[name]), name


def varied_grid_bundle():
    """A compiled bundle (dense weights and multi-rank TT cores) whose stacks of one
    size sit on different grids: every side of size >= 4 takes the next of
    `grid_variants`, in turn."""
    from tomfn import model as M

    rng = np.random.default_rng(43)
    bundle = P.compile_model(M.build(tiny_config(visual=True, fusion=True, max_factor=2)))
    turn = 0
    for plan in bundle.plans.values():
        for k, core in enumerate(plan.cores):
            sides = {}
            for key in ("mesh_u", "mesh_v"):
                net = getattr(core, key)
                if net.size >= 4:
                    extra = rng.uniform(-np.pi, np.pi, size=(2, len(net.theta), 2))
                    sides[key] = grid_variants(net, *extra)[turn % 4]
                    turn += 1
            plan.cores[k] = replace(core, **sides)
    return bundle


def grids(plans, key):
    return {(getattr(c, key).size, getattr(c, key).row.tobytes())
            for plan in plans.values() for c in plan.cores}


def test_grouped_realize_equals_mzi_by_mzi_oracle():
    """Realize, ideal and perturbed, reads every slice back bit for bit as the
    MZI-by-MZI oracle does, when stacks of one size sit on different grids."""
    bundle = varied_grid_bundle()
    sizes = [size for size, _ in grids(bundle.plans, "mesh_u")]
    assert any(sizes.count(size) > 1 for size in sizes)
    for plans, model in ((bundle.plans, P.realize(bundle)),
                         (oracles.perturb_bundle(bundle, 0.05, 0, seed=3), P.realize(bundle, 0.05, 0, seed=3))):
        realized = model.weights
        for name, plan in plans.items():
            for k, core in enumerate(plan.cores):
                r_out = plan.ranks[k + 1]
                for j in range(len(core.scale)):
                    z = np.zeros((core.m, core.n))
                    lead = min(core.m, core.n)
                    z[:lead] = core.diag[j][:, None] * reference_mesh_matrix(core.mesh_v, j)[:lead]
                    want = core.scale[j] * reference_mesh_matrix(core.mesh_u, j, z)
                    w = realized[name]
                    got = w if plan.kind == "dense" else w.cores[k][j // r_out, :, :, j % r_out]
                    assert np.array_equal(got, want), (name, k, j)


def counting(monkeypatch, name):
    calls = []
    inner = getattr(P, name)
    monkeypatch.setattr(P, name, lambda *args: calls.append(1) or inner(*args))
    return calls


def test_perturb_bundle_equals_per_mesh_seeding_on_varied_grids():
    """Meshes perturbed a grid at a time keep their own grids and draws where stacks of
    one size sit on different grids."""
    assert_realizes_perturbed_plans(varied_grid_bundle(), 0.05, 6, seed=11)


def test_one_mesh_pass_per_shape_and_per_grid(monkeypatch):
    """compile_model maps each core shape once model-wide; a noisy realize perturbs and
    applies each grid once a side."""
    from tomfn import model as M

    cfg = M.default_config()
    model = M.build(cfg)
    svd, givens = counting(monkeypatch, "svd_map"), counting(monkeypatch, "givens_decompose")
    bundle = P.compile_model(model)
    histogram = P.totals(P.model_shapes(model))["core_histogram"]
    assert len(svd) == len(histogram) == 17 and len(givens) == 2 * 17
    applies, perturbs = counting(monkeypatch, "_apply_meshes"), counting(monkeypatch, "perturb")
    for b in (bundle, varied_grid_bundle()):
        applies.clear()
        perturbs.clear()
        P.realize(b, 0.01, 0, seed=1)
        assert len(applies) == len(perturbs) == len(grids(b.plans, "mesh_u")) + len(grids(b.plans, "mesh_v"))
    assert len(grids(b.plans, "mesh_u")) > len({size for size, _ in grids(b.plans, "mesh_u")})
