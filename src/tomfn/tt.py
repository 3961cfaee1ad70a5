"""Tensor-train (matrix product operator) form of large weight matrices.

A matrix W of size M x N is viewed as a 2d-way tensor by factorizing
M = m_1 ... m_d and N = n_1 ... n_d, interleaving the index pairs as
(m_1, n_1, ..., m_d, n_d), and splitting with sequential SVDs.  Core k
has shape (r_{k-1}, m_k, n_k, r_k) with r_0 = r_d = 1.

The interleaved (paired-mode) ordering makes the contraction a clean
left-to-right sweep (`tt_matvec`, the reference), and it is the layout
and order of the photonic mapping: each core becomes a stack of small
m_k x n_k operators indexed by its two bond ranks.  Training and
inference instead rebuild W from its cores (`contract_cores`) and apply
one matmul, which at these sizes is cheaper than sweeping a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import FactorizationError, ShapeError


def prime_factors(n: int) -> list[int]:
    """Prime factorization of n >= 1 as an ascending list (1 -> [])."""
    if n < 1:
        raise FactorizationError(f"dimension must be positive, got {n}")
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def factorize_dim(n: int, max_factor: int = 8) -> list[int]:
    """Split a dimension into factors no larger than `max_factor`.

    Deterministic rule: start from the prime factorization and repeatedly
    merge the two smallest entries while their product still fits under
    the cap.  The result is ascending, e.g. 32 -> [4, 8], 300 -> [3, 4, 5, 5].

    Raises FactorizationError when n has a prime factor above the cap;
    the caller must zero-pad such a dimension first (see `next_mappable_dim`).
    """
    if max_factor < 2:
        raise FactorizationError(f"max_factor must be >= 2, got {max_factor}")
    if n == 1:
        return [1]
    factors = prime_factors(n)
    if factors[-1] > max_factor:
        raise FactorizationError(
            f"{n} has prime factor {factors[-1]} > {max_factor}; "
            f"pad the dimension to {next_mappable_dim(n, max_factor)} first"
        )
    while len(factors) >= 2 and factors[0] * factors[1] <= max_factor:
        merged = factors[0] * factors[1]
        factors = sorted(factors[2:] + [merged])
    return factors


def next_mappable_dim(n: int, max_factor: int = 8) -> int:
    """Smallest m >= n whose prime factors are all <= max_factor."""
    m = max(n, 1)
    while prime_factors(m) and prime_factors(m)[-1] > max_factor:
        m += 1
    return m


def pad_modes(row: list[int], col: list[int]) -> tuple[list[int], list[int]]:
    """Pad the shorter factor list with trailing 1s so both have equal length."""
    d = max(len(row), len(col))
    return list(row) + [1] * (d - len(row)), list(col) + [1] * (d - len(col))


@dataclass
class TTMatrix:
    """Tensor-train matrix: cores[k] has shape (r_{k-1}, m_k, n_k, r_k)."""

    row_modes: list[int]
    col_modes: list[int]
    ranks: list[int]
    cores: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        d = len(self.row_modes)
        if not (d == len(self.col_modes) == len(self.cores) == len(self.ranks) - 1):
            raise ShapeError("mode, rank and core list lengths do not chain")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ShapeError("boundary ranks must be 1")
        if any(r < 1 for r in self.ranks):
            raise ShapeError("all ranks must be >= 1")
        for k, core in enumerate(self.cores):
            want = (self.ranks[k], self.row_modes[k], self.col_modes[k], self.ranks[k + 1])
            if core.shape != want:
                raise ShapeError(f"core {k} has shape {core.shape}, expected {want}")
            if not np.all(np.isfinite(core)):
                raise ShapeError(f"core {k} contains non-finite entries")

    @property
    def nrows(self) -> int:
        return int(np.prod(self.row_modes))

    @property
    def ncols(self) -> int:
        return int(np.prod(self.col_modes))


def tt_from_dense(w: np.ndarray, row_modes, col_modes, max_rank: int, tol: float) -> TTMatrix:
    """TT-SVD of a dense matrix under the paired-mode layout.

    Each of the d-1 splits keeps the smallest rank (capped at `max_rank`)
    whose discarded singular values carry energy at most
    tol * ||W||_F / sqrt(d-1), so the total reconstruction error is
    bounded by tol * ||W||_F.
    """
    row_modes, col_modes = list(row_modes), list(col_modes)
    if w.ndim != 2:
        raise ShapeError("tt_from_dense takes a 2-way tensor")
    if len(row_modes) != len(col_modes):
        raise ShapeError("row_modes and col_modes must have equal length (use pad_modes)")
    m, n = w.shape
    if int(np.prod(row_modes)) != m or int(np.prod(col_modes)) != n:
        raise ShapeError(
            f"mode products {np.prod(row_modes)}x{np.prod(col_modes)} "
            f"do not match matrix {m}x{n}"
        )
    if max_rank < 1:
        raise ShapeError(f"max_rank must be >= 1, got {max_rank}")
    if tol < 0:
        raise ShapeError(f"tol must be >= 0, got {tol}")

    d = len(row_modes)
    # Interleave row/col modes: (m_1..m_d, n_1..n_d) -> (m_1, n_1, ..., m_d, n_d),
    # then group each pair into one aggregated mode of size m_k * n_k.
    t = w.reshape(row_modes + col_modes)
    perm = [i // 2 if i % 2 == 0 else d + i // 2 for i in range(2 * d)]
    t = t.transpose(perm)
    group = [row_modes[k] * col_modes[k] for k in range(d)]

    budget = tol * np.linalg.norm(w) / np.sqrt(d - 1) if d > 1 else 0.0
    cores = []
    ranks = [1]
    c = t.reshape(group[0], -1)
    for k in range(d - 1):
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        # Flush singular values below numerical rank (matrix_rank's cutoff) so
        # tol=0 still drops bonds that are zero up to roundoff.
        if s.size and s[0] > 0:
            s = np.where(s < s[0] * np.finfo(np.float64).eps * max(c.shape), 0.0, s)
        # Smallest kept rank whose discarded tail energy fits the budget.
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[i] = ||s[i:]||
        keep = len(s)
        for r in range(len(s)):
            if (tail[r + 1] if r + 1 < len(s) else 0.0) <= budget:
                keep = r + 1
                break
        keep = max(1, min(keep, max_rank))
        cores.append(u[:, :keep].reshape(ranks[k], row_modes[k], col_modes[k], keep).copy())
        ranks.append(keep)
        c = (s[:keep, None] * vt[:keep]).reshape(keep * group[k + 1], -1)
    cores.append(c.reshape(ranks[-1], row_modes[-1], col_modes[-1], 1).copy())
    ranks.append(1)
    return TTMatrix(row_modes, col_modes, ranks, cores)


def contract_cores(cores: list, tt: TTMatrix) -> ad.Var:
    """The M x N matrix of `tt` rebuilt from its cores, given as `ad.Var`s.

    Contracts the bonds left to right into the paired-mode tensor, then
    moves the row modes ahead of the column modes.  It is one autodiff op
    whose callback keeps only the core values: it redoes the left products
    with the same numpy calls, then sweeps back core by core, dropping each
    product once it has formed that core's gradient.
    """
    values, ranks, d = [c.value for c in cores], tt.ranks, len(cores)
    paired = [mode for k in range(d) for mode in (tt.row_modes[k], tt.col_modes[k])]
    perm = [2 * k for k in range(d)] + [2 * k + 1 for k in range(d)]

    def products(stop):  # the left products of cores 0..k as (rows, r_{k+1}), k < stop
        out = [values[0].reshape(-1, ranks[1])]  # r_0 = 1
        for k in range(1, stop):
            out.append((out[-1] @ values[k].reshape(ranks[k], -1)).reshape(-1, ranks[k + 1]))
        return out

    def vjp(g):
        g = g.reshape([paired[i] for i in perm]).transpose(np.argsort(perm)).reshape(-1, 1)
        lefts, grads = products(d - 1), [None] * d
        for k in range(d - 1, 0, -1):  # as `ad.matmul`'s callback: the core's gradient first
            g = g.reshape(lefts[-1].shape[0], -1)
            grads[k] = (lefts.pop().swapaxes(-1, -2) @ g).reshape(values[k].shape)
            g = g @ values[k].reshape(ranks[k], -1).swapaxes(-1, -2)
        grads[0] = g.reshape(values[0].shape)
        return grads

    return ad.Var(products(d)[-1].reshape(paired).transpose(perm).reshape(tt.nrows, tt.ncols),
                  cores, vjp)


def tt_to_dense(tt: TTMatrix) -> np.ndarray:
    """Contract all cores back to the represented M x N matrix."""
    return contract_cores([ad.constant(c) for c in tt.cores], tt).value


def tt_matvec(tt: TTMatrix, x: np.ndarray) -> np.ndarray:
    """y = W @ x by the reference sweep over the cores, never forming W.

    The photonic cores apply this order; training and inference rebuild W
    instead (`contract_cores`).  The running state is a flat array whose
    (row-major) axis order is [r_{k-1}, n_k, ..., n_d, m_1, ..., m_{k-1}]:
    contracting core k consumes the leading (r_{k-1}, n_k) axes and
    appends m_k at the back.
    """
    if x.ndim != 1:
        raise ShapeError("tt_matvec takes a 1-way tensor")
    if x.size != tt.ncols:
        raise ShapeError(f"input length {x.size} does not match {tt.ncols} columns")
    tmp = x
    for core in tt.cores:
        r_in, mk, nk, r_out = core.shape
        rest = tmp.size // (r_in * nk)
        a = core.transpose(1, 3, 0, 2).reshape(mk * r_out, r_in * nk)
        new = a @ tmp.reshape(r_in * nk, rest)
        tmp = np.moveaxis(new.reshape(mk, r_out, rest), 0, -1)
    return tmp.reshape(tt.nrows)


def tt_param_count(tt: TTMatrix) -> int:
    """Number of stored core entries: sum_k r_{k-1} m_k n_k r_k."""
    return int(sum(core.size for core in tt.cores))

