import sys
import weakref

import numpy as np
import pytest

from tomfn import autodiff as ad
from tomfn import model as M
from tomfn import serialize, tt
from tomfn.errors import FactorizationError, ShapeError
from tomfn.tt import (
    TTMatrix,
    factorize_dim,
    next_mappable_dim,
    pad_modes,
    tt_from_dense,
    tt_matvec,
    tt_param_count,
    tt_to_dense,
)

import oracles


def random_tt(rng, row_modes, col_modes, max_rank=3):
    """Random valid TTMatrix with the given modes."""
    d = len(row_modes)
    ranks = [1] + [int(rng.integers(1, max_rank + 1)) for _ in range(d - 1)] + [1]
    cores = [
        rng.normal(size=(ranks[k], row_modes[k], col_modes[k], ranks[k + 1]))
        for k in range(d)
    ]
    return TTMatrix(list(row_modes), list(col_modes), ranks, cores)


# --- factorize_dim -----------------------------------------------------------


def merge_rule_oracle(n, max_factor=8):
    """Spelled-out merge rule, kept independent of the implementation."""
    fs = []
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            fs.append(p)
            m //= p
        p += 1
    if m > 1:
        fs.append(m)
    fs.sort()
    while len(fs) >= 2:
        fs.sort()
        if fs[0] * fs[1] <= max_factor:
            fs = [fs[0] * fs[1]] + fs[2:]
        else:
            break
    return sorted(fs)


def test_factorize_32():
    # {2,2,2,2,2} -> {2,2,2,4} -> {2,4,4} -> {4,8}
    assert factorize_dim(32) == [4, 8]
    assert factorize_dim(32) == merge_rule_oracle(32)


def test_factorize_300():
    # {2,2,3,5,5} -> {3,4,5,5}; next merge 3*4=12 > 8 stops
    assert factorize_dim(300) == [3, 4, 5, 5]
    assert factorize_dim(300) == merge_rule_oracle(300)


def test_factorize_prime_within_cap():
    assert factorize_dim(7) == [7]


def test_factorize_rejects_large_prime():
    with pytest.raises(FactorizationError):
        factorize_dim(33)  # 3 * 11


def test_factorize_products_and_caps():
    for n in range(1, 200):
        try:
            fs = factorize_dim(n)
        except FactorizationError:
            assert max(tt.prime_factors(n)) > 8
            continue
        assert int(np.prod(fs)) == n
        assert all(1 <= f <= 8 for f in fs)
        assert fs == sorted(fs)


def test_next_mappable_dim():
    assert next_mappable_dim(33) == 35  # 5 * 7
    assert next_mappable_dim(65) == 70  # 2 * 5 * 7
    assert next_mappable_dim(32) == 32


def test_pad_modes():
    assert pad_modes([4, 8], [4, 8]) == ([4, 8], [4, 8])
    assert pad_modes([3, 4, 5, 5], [5, 5, 6]) == ([3, 4, 5, 5], [5, 5, 6, 1])
    assert pad_modes([2], [2, 2]) == ([2, 1], [2, 2])


# --- tt_from_dense / tt_to_dense ---------------------------------------------


def test_identity_is_rank_one():
    t = tt_from_dense(np.eye(4), [2, 2], [2, 2], max_rank=16, tol=0.0)
    assert t.ranks == [1, 1, 1]
    # Each core is a scaled 2x2 identity, scalars multiplying back to 1.
    c0, c1 = t.cores[0][0, :, :, 0], t.cores[1][0, :, :, 0]
    s0, s1 = c0[0, 0], c1[0, 0]
    assert np.allclose(c0, s0 * np.eye(2), atol=1e-12)
    assert np.allclose(c1, s1 * np.eye(2), atol=1e-12)
    assert abs(s0 * s1 - 1.0) < 1e-12
    assert np.allclose(tt_to_dense(t), np.eye(4), atol=1e-12)


def test_reconstruction_exact_with_full_ranks():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 8))
    t = tt_from_dense(w, [2, 4], [2, 4], max_rank=64, tol=0.0)
    err = np.linalg.norm(tt_to_dense(t) - w) / np.linalg.norm(w)
    assert err < 1e-10


def test_rank_limited_matches_truncation_oracle():
    # For a two-core split the rank-1 TT-SVD equals truncating the full
    # TT-SVD after its single split, i.e. a rank-1 SVD of the rearranged matrix.
    rng = np.random.default_rng(12)
    w = rng.normal(size=(8, 8))
    t1 = tt_from_dense(w, [2, 4], [2, 4], max_rank=1, tol=0.0)
    err = np.linalg.norm(tt_to_dense(t1) - w)

    full = tt_from_dense(w, [2, 4], [2, 4], max_rank=64, tol=0.0)
    # Oracle: truncate the full decomposition's bond to rank 1 via SVD of the
    # paired-mode rearrangement.
    r = w.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 16)
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    best = (s[0] * np.outer(u[:, 0], vt[0])).reshape(2, 2, 4, 4)
    best = best.transpose(0, 2, 1, 3).reshape(8, 8)
    oracle_err = np.linalg.norm(best - w)
    assert full.ranks[1] == 4
    assert abs(err - oracle_err) < 1e-10


def test_single_core_degenerate():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(3, 5))
    t = tt_from_dense(w, [3], [5], max_rank=1, tol=0.0)
    assert t.ranks == [1, 1]
    assert np.allclose(tt_to_dense(t), w, atol=0)
    assert tt_param_count(t) == 15


def test_roundtrip_many_sizes():
    rng = np.random.default_rng(14)
    cases = [
        ((4, 4), [2, 2], [2, 2]),
        ((8, 4), [2, 2, 2], [2, 2, 1]),
        ((12, 6), [2, 6], [2, 3]),
        ((16, 16), [2, 2, 4], [4, 2, 2]),
        ((6, 15), [2, 3], [3, 5]),
    ]
    for (m, n), rm, cm in cases:
        w = rng.normal(size=(m, n))
        t = tt_from_dense(w, rm, cm, max_rank=m * n, tol=0.0)
        err = np.linalg.norm(tt_to_dense(t) - w) / np.linalg.norm(w)
        assert err < 1e-10, (m, n)


def test_tolerance_budget_bounds_error():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(16, 16))
    for tol in (1e-1, 1e-2, 1e-3):
        t = tt_from_dense(w, [4, 4], [4, 4], max_rank=256, tol=tol)
        err = np.linalg.norm(tt_to_dense(t) - w) / np.linalg.norm(w)
        assert err <= tol + 1e-12


def test_mode_product_mismatch():
    with pytest.raises(ShapeError):
        tt_from_dense(np.eye(4), [2, 2], [2, 3], max_rank=1, tol=0.0)


# --- tt_matvec ----------------------------------------------------------------


def test_matvec_identity_tt():
    t = tt_from_dense(np.eye(4), [2, 2], [2, 2], max_rank=16, tol=0.0)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(tt_matvec(t, x), x, atol=1e-12)


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(16)
    for _ in range(20):
        t = random_tt(rng, [2, 2], [2, 2])
        x = rng.normal(size=4)
        dense = tt_to_dense(t)
        assert np.allclose(tt_matvec(t, x), dense @ x, atol=1e-12)


def test_matvec_zero_and_linearity():
    rng = np.random.default_rng(17)
    t = random_tt(rng, [2, 3, 2], [3, 2, 2])
    assert np.allclose(tt_matvec(t, np.zeros(12)), 0.0, atol=0)
    x, y = rng.normal(size=12), rng.normal(size=12)
    a, b = 0.7, -1.3
    lhs = tt_matvec(t, a * x + b * y)
    rhs = a * tt_matvec(t, x) + b * tt_matvec(t, y)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_matvec_length_mismatch():
    rng = np.random.default_rng(18)
    t = random_tt(rng, [2, 2], [2, 2])
    with pytest.raises(ShapeError):
        tt_matvec(t, np.zeros(5))


# --- tt_param_count ------------------------------------------------------------


def test_param_count_formula():
    rng = np.random.default_rng(19)
    cores = [rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(2, 8, 8, 1))]
    t = TTMatrix([4, 8], [4, 8], [1, 2, 1], cores)
    assert tt_param_count(t) == 1 * 4 * 4 * 2 + 2 * 8 * 8 * 1 == 160


def test_param_count_identity_tt():
    t = tt_from_dense(np.eye(4), [2, 2], [2, 2], max_rank=16, tol=0.0)
    assert tt_param_count(t) == 8


def test_monotone_compression():
    rng = np.random.default_rng(20)
    w = rng.normal(size=(16, 16))
    counts = []
    for max_rank in (1, 2):
        t = tt_from_dense(w, [4, 4], [4, 4], max_rank=max_rank, tol=0.0)
        counts.append(tt_param_count(t))
    assert counts[0] <= counts[1] <= 16 * 16


# --- serialization --------------------------------------------------------------


def test_json_roundtrip():
    rng = np.random.default_rng(21)
    t = random_tt(rng, [2, 4], [4, 2])
    back = serialize.weight_from_obj(serialize.weight_to_obj(t), "weight 't'")
    assert back.row_modes == t.row_modes
    assert back.ranks == t.ranks
    for a, b in zip(back.cores, t.cores):
        assert np.array_equal(a, b)
    assert np.allclose(tt_to_dense(back), tt_to_dense(t), atol=0)


def test_invalid_tt_rejected():
    rng = np.random.default_rng(22)
    with pytest.raises(ShapeError):
        TTMatrix([2], [2], [1, 2], [rng.normal(size=(1, 2, 2, 2))])  # boundary rank != 1
    with pytest.raises(ShapeError):
        TTMatrix([2, 2], [2, 2], [1, 2, 1], [rng.normal(size=(1, 2, 2, 2))])


# --- contract_cores ----------------------------------------------------------


@pytest.mark.parametrize("modes", [([3], [5]), ([2, 3], [4, 2]), ([3, 4, 5, 5], [2, 3, 5, 5])],
                         ids=["one-core", "two-core", "text-weight"])
def test_rebuild_matches_the_composed_oracle_bit_for_bit(modes):
    rng = np.random.default_rng(21)
    w = random_tt(rng, *modes, max_rank=5)
    seed = rng.normal(size=(w.nrows, w.ncols))
    results = []
    for rebuild in (tt.contract_cores, oracles.contract_cores):
        cores = [ad.leaf(c) for c in w.cores]
        out = rebuild(cores, w)
        ad.backward(out, seed)
        results.append([out.value] + [c.grad for c in cores])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_rebuild_keeps_no_product_past_the_forward():
    # Trace every frame that the forward runs, and hold a weak reference to
    # each array that a frame still has when it returns.  Once the forward has
    # returned, only the cores and the output may be alive: the callback redoes
    # the left products in backward instead of keeping them (a (9000, 5)
    # product of a text weight, 0.36 MB, stayed on the composed tape).
    w = M.build(M.default_config()).weights["text.head0.q"]
    cores = [ad.leaf(c) for c in w.cores]
    made = []

    def owner(a):
        return a if a.base is None else a.base

    def trace(frame, event, arg):
        if event == "return":
            for value in frame.f_locals.values():
                for a in value if isinstance(value, (list, tuple)) else [value]:
                    a = getattr(a, "value", a)
                    if isinstance(a, np.ndarray):
                        made.append(weakref.ref(owner(a)))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        op = tt.contract_cores(cores, w)
    finally:
        sys.settrace(previous)
    assert op.node.vjp is not None and len(made) > len(cores)
    allowed = {id(owner(a)) for a in [*w.cores, op.value]}
    alive = [r() for r in made if r() is not None and id(r()) not in allowed]
    assert not alive, f"the tape keeps arrays shaped {sorted({a.shape for a in alive})}"


def test_built_cores_keep_no_svd_factor_alive():
    # tt_from_dense copies each core out of its SVD factor: summing each core's
    # base buffer once gives the cores' own 298,848 bytes over the default
    # build, where views of the factors kept 1,509,904 bytes alive.
    buffers = {}
    for w in M.build(M.default_config()).weights.values():
        for core in getattr(w, "cores", []):
            base = core if core.base is None else core.base
            buffers[id(base)] = base.nbytes
    assert sum(buffers.values()) == 298_848
