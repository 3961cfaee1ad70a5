"""Compile weight matrices into MZI-mesh netlists, and read them back.

Everything here is real-valued.  One MZI on waveguide pair (r, r+1)
applies R(theta) * diag(cos(phi), 1): a Givens rotation preceded by a
sign element on the top port.  Compiled netlists only ever use
phi in {0, pi}, which keeps each block orthogonal (rotation or
reflection); `perturb` may move phi off the grid, modelling a lossy
phase error.

A full N x N orthogonal matrix becomes the rectangular arrangement of
N(N-1)/2 rotations over N columns (column c holds pairs whose top row
has c's parity).  The sign diagonal produced by the two-sided
elimination is folded into the angles, walking the mesh from the output
side: a sign pair (s_top, s_bot) entering a block R(theta)*diag(sigma,1)
is absorbed as

    (-,-): theta += pi
    (-,+): theta = -theta,     sigma = -sigma
    (+,-): theta = pi - theta, sigma = -sigma

so no separate output phase column is needed.

Rectangular matrices go through an SVD triple (mesh_V, attenuating
diagonal, mesh_U) with a digital global scale chosen so every on-chip
amplitude stays in [0, 1].  Fixing both bond indices of TT core k yields
r_{k-1} * r_k small m_k x n_k operators, each its own SVD triple; the bond
channels ride WDM wavelengths and are summed digitally after detection.

A core is one stack (`CorePlan`): its K = r_{k-1} * r_k slices, row-major
over the bond pair, as a U and a V mesh stack, (K, min(m, n)) amplitudes
and (K,) scales; a dense weight is a core of one slice.  The elimination
order, and so the grid packing, depends on N alone, so the K meshes of a
side share one grid: a mesh stack (`MeshNetlist`) holds the MZIs in
physical order as `col` (non-decreasing, below N: an N-mode mesh has N
columns) and `row`, the (K, MZI) angles `theta` and `phi`, and the `size`
N.  The batching is model-wide: `compile_model` maps the slices of
all cores of one shape (m, n), whatever their weight, through one `svd_map`
(one batched SVD, one `givens_decompose` a side) and splits the stack back;
`realize` reads every V stack, then every U stack, back in one mesh apply
per grid (size, col, row), and a noisy trial perturbs each grid with
one `perturb` as `realize` applies it.  The bundle file stores the meshes of
each grid as one netlist, and a core side as a [grid, first mesh]
reference.  Every check (finite entries, orthogonality, the sign diagonal,
a negative 1 x 1) still holds matrix by matrix, and a refusal names the
weight, the core and the slice.

Accounting (MZIs, stages, WDM channels, the core-size histogram) reads
only each layer's name, modes and bond ranks, so `describe` counts from
the `LayerShape` records of the built model and never decomposes a mesh.

Simulation does not re-implement the network.  For fixed phases a
compiled plan is a linear map, so `realize` reads every (possibly
perturbed) plan back into the TT cores or dense weight it computes, and
builds from those a model that the one batched forward pass
(`model.forward_batch`) runs.  Phase errors from `perturb` are static per
trial: one draw per seeded `realize`.  Per-shot detector noise, if
ever added, varies from one input to the next and must be injected at the
detection points inside the forward pass, not folded into the realized weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tt as tt_mod
from .model import ModelConfig, TOMFNModel, block_dims
from .errors import DataError, DecompositionError, MappingError, ShapeError
from .serialize import field, floats_from_obj, floats_to_obj, integer, integers, json_list, numbers, sizes

CORE_SIZE_CAP = 8
BUNDLE_FORMAT = 5  # the on-disk layout `bundle_to_obj` writes and `bundle_from_obj` reads


# --- netlists -------------------------------------------------------------------


@dataclass
class MeshNetlist:
    """K meshes on one grid: MZI i of every mesh sits in column col[i] (of `size`) on
    waveguides (row[i], row[i] + 1); mesh k sets it to theta[k, i], phi[k, i]."""

    size: int
    col: np.ndarray
    row: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def mzi_count(self) -> int:
        return len(self.col)


def _apply_meshes(net: MeshNetlist, x: np.ndarray) -> np.ndarray:
    """Apply mesh k of the stack to the rows of x[k], for an x of shape (K, N, C).

    Step j applies MZI j (physical order) of all K meshes at once, to two rows of an
    (N, C, K) copy, each a contiguous (C, K) block.
    """
    y = np.array(np.moveaxis(x, 0, 2), dtype=np.float64, order="C")
    cos_t, sin_t = np.cos(net.theta).T.copy(), np.sin(net.theta).T.copy()  # (MZI, K), rows contiguous
    cos_p = np.cos(net.phi).T.copy()
    top, tmp = np.empty(y.shape[1:]), np.empty(y.shape[1:])
    for j, r in enumerate(net.row.tolist()):
        c, s = cos_t[j], sin_t[j]
        np.multiply(cos_p[j], y[r], out=top)
        np.subtract(np.multiply(c, top, out=y[r]), np.multiply(s, y[r + 1], out=tmp), out=y[r])
        np.add(np.multiply(s, top, out=tmp), np.multiply(c, y[r + 1], out=y[r + 1]), out=y[r + 1])
    return np.ascontiguousarray(np.moveaxis(y, 2, 0))


def mesh_matrix(net: MeshNetlist) -> np.ndarray:
    """The (K, N, N) matrices the stack realizes (each mesh applied to identity columns)."""
    return _apply_meshes(net, np.broadcast_to(np.eye(net.size), (len(net.theta), net.size, net.size)))


def _by_grid(nets: list[MeshNetlist]):
    """For each grid (size, col, row) among the stacks, in order of first use: the
    indices of its stacks, their meshes as one stack, and the bounds of each stack's meshes
    in it."""
    grids: dict[tuple, list[int]] = {}
    for i, net in enumerate(nets):
        grids.setdefault((net.size, net.col.tobytes(), net.row.tobytes()), []).append(i)
    for grid in grids.values():
        joint = replace(nets[grid[0]], theta=np.concatenate([nets[i].theta for i in grid]),
                        phi=np.concatenate([nets[i].phi for i in grid]))
        yield grid, joint, np.cumsum([0] + [len(nets[i].theta) for i in grid])


def givens_decompose(u: np.ndarray, name="matrix {}".format) -> MeshNetlist:
    """Decompose a (K, N, N) stack of real orthogonal matrices into K rectangular meshes.

    Two-sided Givens elimination (alternating column and row sweeps)
    reduces each matrix to a +-1 diagonal; the rotations are packed into
    the N-column rectangular grid and the diagonal is folded into the MZI
    angles/signs as described in the module docstring.  Every step runs on
    the whole stack; the checks name the first failing matrix k as name(k).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise DecompositionError(f"expected a (K, N, N) stack, got shape {u.shape}")
    count, n = u.shape[:2]
    residual = np.linalg.norm(np.swapaxes(u, 1, 2) @ u - np.eye(n), axis=(1, 2))
    if (bad := np.flatnonzero(~(residual < 1e-8))).size:
        raise DecompositionError(
            f"{name(bad[0])} is not orthogonal: ||U^T U - I||_F = {residual[bad[0]]:.3e}")
    if n == 1:
        if (bad := np.flatnonzero(u[:, 0, 0] < 0)).size:
            raise DecompositionError(f"{name(bad[0])}: a 1x1 mesh has no MZI to carry a negative sign")
        empty = np.zeros(0, dtype=np.intp)
        return MeshNetlist(1, empty, empty, np.zeros((count, 0)), np.zeros((count, 0)))

    v = u.copy()
    left: list[tuple[int, np.ndarray]] = []  # G(k, theta) applied as V <- G V
    right: list[tuple[int, np.ndarray]] = []  # G(k, theta) applied as V <- V G
    for i in range(n - 1):
        if i % 2 == 0:
            for j in range(i + 1):
                r, c = n - 1 - j, i - j
                th = np.arctan2(-v[:, r, c], v[:, r, c + 1])
                ct, st = np.cos(th)[:, None], np.sin(th)[:, None]
                new_c = v[:, :, c] * ct + v[:, :, c + 1] * st
                new_c1 = -v[:, :, c] * st + v[:, :, c + 1] * ct
                v[:, :, c], v[:, :, c + 1] = new_c, new_c1
                right.append((c, th))
        else:
            for j in range(i + 1):
                r, c = n - 1 - i + j, j
                th = np.arctan2(-v[:, r, c], v[:, r - 1, c])
                ct, st = np.cos(th)[:, None], np.sin(th)[:, None]
                new_top = v[:, r - 1] * ct - v[:, r] * st
                new_bot = v[:, r - 1] * st + v[:, r] * ct
                v[:, r - 1], v[:, r] = new_top, new_bot
                left.append((r - 1, th))

    signs = np.sign(np.diagonal(v, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    off = np.linalg.norm(v - signs[:, :, None] * np.eye(n), axis=(1, 2))
    if (bad := np.flatnonzero(~(off <= 1e-7))).size:
        raise DecompositionError(f"{name(bad[0])}: elimination failed to reach a sign diagonal")

    # U = L1^T..Lp^T D Rq^T..R1^T.  Pull D to the front: conjugating a
    # rotation by the sign diagonal multiplies its angle by s_k * s_{k+1}.
    matrix_order = [(k, signs[:, k] * signs[:, k + 1] * (-th)) for k, th in left]
    matrix_order += [(k, -th) for k, th in reversed(right)]

    # Greedy earliest-column packing (respecting the rectangular grid's
    # row/column parity) in physical order: last matrix factor first.
    placed = []  # (column, row) per rotation, in physical order
    free = [0] * n  # first free column per row
    for k, _ in reversed(matrix_order):
        col = max(free[k], free[k + 1])
        col += (col - k) % 2
        if col >= n:
            raise DecompositionError("rotation sequence does not fit the rectangular grid")
        placed.append((col, k))
        free[k] = free[k + 1] = col + 1

    # Fold the output sign diagonal into angles.  Walking output -> input,
    # a row's sign is absorbed by the MZI on it nearest the output (the one
    # in column free[row] - 1); every MZI after that sees +1 on the row.
    cols, ks = np.array(placed, dtype=np.intp).T
    last = np.array(free) - 1
    top = (cols == last[ks])[:, None] & (signs[:, ks].T < 0)
    bot = (cols == last[ks + 1])[:, None] & (signs[:, ks + 1].T < 0)
    th = np.array([th for _, th in reversed(matrix_order)])  # (rotation, matrix)
    th = np.where(top & bot, th + np.pi, np.where(top, -th, np.where(bot, np.pi - th, th)))
    sigma_flip = top != bot  # phi = pi where the fold flipped the sign element
    th = (th + np.pi) % (2 * np.pi) - np.pi  # wrap to (-pi, pi]
    th = np.where(th == -np.pi, np.pi, th)
    if (bad := np.flatnonzero(np.any(signs[:, last < 0] < 0, axis=1))).size:
        raise DecompositionError(f"{name(bad[0])}: unabsorbed output sign; the mesh misses a row")

    layout = np.lexsort((ks, cols))  # physical order: by column, then row
    return MeshNetlist(n, cols[layout], ks[layout], th[layout].T,
                       np.where(sigma_flip[layout], np.pi, 0.0).T)


def check_noise(phase_sigma: float, bits: int):
    """Phase noise needs a finite phase_sigma >= 0 and 0 <= bits <= 53 (NaN
    fails both).  From 54 bits on, the 2*pi / 2**bits grid is finer than the
    float64 spacing of angles near pi, so quantizing would mean nothing."""
    if not 0 <= phase_sigma < math.inf:
        raise ShapeError(f"phase_sigma must be a finite number >= 0, got {phase_sigma}")
    if not 0 <= bits <= 53:
        raise ShapeError(f"bits must be between 0 and 53, got {bits}")


# numpy SeedSequence's constants (numpy/random/bit_generator.pyx), as uint32 arrays: their
# arithmetic wraps, where uint32 scalars warn.  _HASH_A[i] = INIT_A * MULT_A**i, B likewise.
_HASH_A, _HASH_B = (np.array([init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(257)], np.uint32)
                    for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)))
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _seed_words(entropy, n_words: int, dtype=np.uint32) -> np.ndarray:
    """SeedSequence(...).generate_state(n_words, dtype) for each row of (up to 64) uint32 entropy
    words: the pool of 4, zero-padded, then any spawn-key words.  Up to 256 uint32 words."""
    e = np.asarray(entropy, dtype=np.uint32)

    def hashmix(v, i, n):  # numpy's hashes i .. i + n - 1, one to a column of v
        v = (v ^ _HASH_A[i:i + n]) * _HASH_A[i + 1:i + n + 1]
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> _XSHIFT)

    pool = hashmix(e[:, :4], 0, 4)
    for src, dst in enumerate(np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])):
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for src in range(4, e.shape[1]):  # each spawn-key word's hash mixes into every word
        pool = mix(pool, hashmix(e[:, src, None], 4 * src, 4))
    n = n_words * np.dtype(dtype).itemsize // 4
    v = (pool[:, np.arange(n) % 4] ^ _HASH_B[:n]) * _HASH_B[1:n + 1]
    return np.ascontiguousarray(v ^ (v >> _XSHIFT), "<u4").view(f"<u{np.dtype(dtype).itemsize}").astype(dtype)


@functools.cache
def _state_type() -> type:
    """numpy's ISeedSequence handing a bit generator the SeedSequence state words set on it,
    computed ahead; a bit generator reads them as it is made, so one State serves each mesh in
    turn.  Made on first use, so that importing tomfn does not import numpy.random."""

    class State(np.random.bit_generator.ISeedSequence):
        words = None

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return State


def perturb(net: MeshNetlist, phase_sigma: float, bits: int, seeds) -> MeshNetlist:
    """Quantize angles to a 2*pi / 2**bits grid (bits=0: none), then add
    N(0, phase_sigma^2) jitter.  Mesh k draws from default_rng(seeds[k]), seeds[k] in
    [0, 2**64): theta's draw, then phi's, for each MZI in physical order.  A seed count
    other than the K meshes, or a phase that leaves the float range, is a ShapeError."""
    check_noise(phase_sigma, bits)
    if len(seeds) != len(net.theta):
        raise ShapeError(f"perturb needs one seed per mesh: got {len(seeds)} for {len(net.theta)} meshes")
    angles = np.stack([net.theta, net.phi], axis=2)  # (K, MZI, 2)
    if bits >= 1:
        step = 2 * np.pi / 2**bits
        angles = np.round(angles / step) * step
    if phase_sigma > 0:
        s = np.asarray(seeds, dtype=np.uint64)
        words = _seed_words(np.stack([s & 0xFFFFFFFF, s >> 32, 0 * s, 0 * s], axis=1), 4, np.uint64)
        seq, z = _state_type()(), np.empty(angles.shape)
        for seq.words, row in zip(words, z):  # numpy's normal(0.0, phase_sigma) is 0.0 + phase_sigma * z
            np.random.Generator(np.random.PCG64(seq)).standard_normal(out=row)
        with np.errstate(over="ignore"):  # a sigma * z past the float range is refused below
            angles += 0.0 + phase_sigma * z
        if not np.isfinite(angles).all():
            raise ShapeError(f"phase_sigma {phase_sigma:g} draws phases beyond the float range")
    return replace(net, theta=angles[..., 0], phi=angles[..., 1])


# --- SVD mapping -----------------------------------------------------------------


@dataclass
class CorePlan:
    """K same-shape (m, n) operators, slice k = scale[k] * U_k diag(diag[k]) V_k^T.

    U_k is mesh k of the stack `mesh_u` (m waveguides), V_k^T mesh k of
    `mesh_v` (n waveguides), and diag[k] holds min(m, n) attenuator
    amplitudes in [0, 1].  A TT core holds its r_{k-1} * r_k bond slices
    row-major over the bond pair (alpha, beta); a dense weight is one slice.
    """

    m: int
    n: int
    mesh_u: MeshNetlist  # a stack of K meshes
    mesh_v: MeshNetlist  # a stack of K meshes
    diag: np.ndarray  # (K, min(m, n))
    scale: np.ndarray  # (K,) digital global scales, each >= 1


def svd_map(w: np.ndarray, name="matrix {}".format) -> CorePlan:
    """Realize a (K, m, n) stack of real matrices as meshes plus attenuators.

    One batched SVD covers the stack.  Each matrix's digital global scale
    is max(its largest singular value, 1), so the on-chip diagonal never
    amplifies.  A refusal names matrix k as `name(k)`.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"svd_map takes a (K, m, n) stack, got shape {w.shape}")
    if (bad := np.flatnonzero(~np.isfinite(w).all(axis=(1, 2)))).size:
        raise ShapeError(f"{name(bad[0])}: svd_map requires finite entries")
    m, n = w.shape[1:]
    if m == 1 and n == 1 and (bad := np.flatnonzero(w[:, 0, 0] < 0)).size:
        raise MappingError(f"{name(bad[0])}: no MZI can carry the sign of a negative 1x1 weight")
    u, s, vt = np.linalg.svd(w, full_matrices=True)
    if (bad := np.flatnonzero(~np.isfinite(s).all(axis=1))).size:
        raise MappingError(f"{name(bad[0])}: singular values are not finite")
    if min(m, n) == 1 < max(m, n):  # a 1 x 1 mesh cannot carry a sign: push it into the larger factor
        flip = (u if m == 1 else vt)[:, 0, 0] < 0
        u[flip, :, 0], vt[flip, 0] = -u[flip, :, 0], -vt[flip, 0]
    scale = np.maximum(s[:, 0], 1.0)
    return CorePlan(m, n, givens_decompose(u, name), givens_decompose(vt, name), s / scale[:, None], scale)


def _core_stacks(cores: list[CorePlan], phase_sigma=0.0, bits=0, seeds=None) -> list[np.ndarray]:
    """The (K, m, n) matrices of every core's slices, V sides then U sides, one pass per grid;
    with `seeds` (each core's (K, 2) U/V block), each grid is perturbed just before its pass.
    Every V mesh of a grid has its size N, so the V pass starts from one identity; zero-padding
    a U grid's inputs changes no bit kept: every MZI acts on each column alone."""
    xs = [None] * len(cores)
    for s, side in ((1, "mesh_v"), (0, "mesh_u")):
        for grid, joint, bounds in _by_grid([getattr(c, side) for c in cores]):
            if seeds is not None:
                joint = perturb(joint, phase_sigma, bits, np.concatenate([seeds[i][:, s] for i in grid]))
            if s:
                x = np.broadcast_to(np.eye(joint.size), (bounds[-1], joint.size, joint.size))
            else:
                x = np.zeros((bounds[-1], joint.size, max(xs[i].shape[2] for i in grid)))
                for i, lo, hi in zip(grid, bounds, bounds[1:]):
                    x[lo:hi, :xs[i].shape[1], :xs[i].shape[2]] = xs[i]
            y = _apply_meshes(joint, x)
            for i, lo, hi in zip(grid, bounds, bounds[1:]):
                xs[i] = y[lo:hi, :, :cores[i].n]
        if s:
            xs = [c.diag[:, :, None] * v[:, :min(c.m, c.n)] for c, v in zip(cores, xs)]
    return [c.scale[:, None, None] * u for c, u in zip(cores, xs)]


def core_matrices(core: CorePlan) -> np.ndarray:
    """The (K, m, n) matrices of a core's slices."""
    return _core_stacks([core])[0]


# --- layer shapes, plans and accounting --------------------------------------------


@dataclass
class LayerShape:
    """What accounting reads of a layer: its kind, modes and bond ranks.

    A dense (m, n) layer is one core with row_modes [m], col_modes [n] and
    ranks [1, 1]; a TT layer's size before padding is its `block_dims` entry.
    """

    kind: str  # "dense" or "tt"
    row_modes: list[int]
    col_modes: list[int]
    ranks: list[int]

    @property
    def wdm_channels(self) -> int:
        """Bond channels ride WDM wavelengths, so the widest bond sets the count."""
        return max(self.ranks)


@dataclass
class LayerPlan(LayerShape):
    cores: list[CorePlan]


def _core_shapes(shape: LayerShape):
    """(m_k, n_k, number of bond slices r_{k-1} * r_k) per core."""
    for k, (m, n) in enumerate(zip(shape.row_modes, shape.col_modes)):
        yield m, n, shape.ranks[k] * shape.ranks[k + 1]


def layer_shape(w) -> LayerShape:
    """The shape of the plan that maps operator `w` (dense (out, in) or TT).

    Raises MappingError when a core (a dense operator, or one TT mode pair)
    exceeds the CORE_SIZE_CAP x CORE_SIZE_CAP core size.
    """
    if isinstance(w, tt_mod.TTMatrix):
        shape = LayerShape("tt", list(w.row_modes), list(w.col_modes), list(w.ranks))
        hint = "re-factorize the dimension into smaller modes"
    else:
        shape = LayerShape("dense", [w.shape[0]], [w.shape[1]], [1, 1])
        hint = "tensorize the layer (TT) so every mode fits"
    for k, (m, n, _) in enumerate(_core_shapes(shape)):
        if m > CORE_SIZE_CAP or n > CORE_SIZE_CAP:
            raise MappingError(f"{shape.kind} core {k} is {m}x{n}, above the "
                               f"{CORE_SIZE_CAP}x{CORE_SIZE_CAP} cap; {hint}")
    return shape


def _map_layers(weights: dict, shapes: dict[str, LayerShape]) -> dict[str, LayerPlan]:
    """Map every weight, one `svd_map` per core shape (m, n): each (r_in, m, n, r_out)
    core's bond slices, row-major over (alpha, beta), join the stack of its shape."""
    groups: dict[tuple, list] = {}  # (m, n) -> [(weight, core index, its slices)]
    for name, w in weights.items():
        for k, c in enumerate(w.cores if shapes[name].kind == "tt" else [np.asarray(w)[None, :, :, None]]):
            slices = c.transpose(0, 3, 1, 2).reshape(-1, *c.shape[1:3])
            groups.setdefault(slices.shape[1:], []).append((name, k, slices))
    plans = {name: LayerPlan(**vars(shape), cores=[None] * (len(shape.ranks) - 1))
             for name, shape in shapes.items()}
    for group in groups.values():
        owners = [(j, name, k) for name, k, slices in group for j in range(len(slices))]
        core = svd_map(np.concatenate([slices for *_, slices in group]),
                       lambda i: "matrix {} of '{}' core {}".format(*owners[i]))
        bounds = np.cumsum([0] + [len(slices) for *_, slices in group])
        for (name, k, _), lo, hi in zip(group, bounds, bounds[1:]):
            u, v = (replace(t, theta=t.theta[lo:hi], phi=t.phi[lo:hi]) for t in (core.mesh_u, core.mesh_v))
            plans[name].cores[k] = CorePlan(core.m, core.n, u, v, core.diag[lo:hi], core.scale[lo:hi])
    return plans


def map_dense_layer(w: np.ndarray) -> LayerPlan:
    """One SVD triple for a small dense operator (both dims <= CORE_SIZE_CAP)."""
    return _map_layers({"dense": w}, {"dense": layer_shape(w)})["dense"]


def map_tt_layer(tt: tt_mod.TTMatrix) -> LayerPlan:
    """Slice every core over its bond-rank pairs into small mesh operators.

    Core k contributes r_{k-1} * r_k sub-matrices of shape m_k x n_k; the
    bond index rides a WDM channel, so the plan needs max_k r_k channels.
    """
    return _map_layers({"tt": tt}, {"tt": layer_shape(tt)})["tt"]


def mzi_count(shape: LayerShape) -> int:
    """Two meshes plus min(m, n) attenuator MZIs per sub-matrix."""
    return sum((m * (m - 1) // 2 + n * (n - 1) // 2 + min(m, n)) * slices
               for m, n, slices in _core_shapes(shape))


def dense_mzi_estimate(block_dims: dict) -> int:
    """Hypothetical MZI count if every logical (m, n) matrix ran as one big SVD triple."""
    return sum(mzi_count(LayerShape("dense", [m], [n], [1, 1])) for m, n in block_dims.values())


def stage_depth(shape: LayerShape) -> int:
    """Cascaded optical stages: each core contributes m + 1 + n columns."""
    return sum(m + 1 + n for m, n, _ in _core_shapes(shape))


def core_histogram(shapes) -> dict[str, int]:
    """Count of sub-matrices per shape, keyed like '4x4'."""
    hist: dict[str, int] = {}
    for shape in shapes:
        for m, n, slices in _core_shapes(shape):
            hist[f"{m}x{n}"] = hist.get(f"{m}x{n}", 0) + slices
    return dict(sorted(hist.items()))


def _stage_total(shapes: dict) -> int:
    """Sequential stages with parallel branches contributing their max, by weight name.

    The three subnetworks run side by side (max of the three chains): the
    visual.* and audio.* layers each in sequence, the text.head* projections
    in parallel before text.ff.  All fusion.* projections are parallel, as
    are the head.* classifiers; the attention score/softmax and the
    elementwise fusion products are detection-side operations, not MZI stages.
    """
    def depths(prefix: str) -> list[int]:
        return [stage_depth(s) for name, s in shapes.items() if name.startswith(prefix)]

    chains = (sum(depths("visual.")), sum(depths("audio.")),
              max(depths("text.head")) + stage_depth(shapes["text.ff"]))
    return max(chains) + max(depths("fusion.")) + max(depths("head."))


def totals(shapes: dict) -> dict:
    """MZIs, optical stages, WDM channels and core histogram of a model's layers.

    `shapes` maps each of a model's `block_dims` names to its LayerShape; compiled
    LayerPlans serve too, and give the same totals, since only modes and ranks count.
    """
    return {
        "mzis": sum(mzi_count(s) for s in shapes.values()),
        "stages": _stage_total(shapes),
        "wdm_channels": max(s.wdm_channels for s in shapes.values()),
        "core_histogram": core_histogram(shapes.values()),
    }


# --- whole-model compilation and realization -------------------------------------


@dataclass
class ModelBundle:
    """Every weight of a model mapped to a LayerPlan, in `model.weights` order: dataflow
    order from `build`, the weights file's sorted-name order after `--weights`."""

    config: ModelConfig
    plans: dict[str, LayerPlan]


def model_shapes(model) -> dict[str, LayerShape]:
    """The LayerShape of every weight, cap check included, without compiling a mesh."""
    return {name: layer_shape(w) for name, w in model.weights.items()}


def compile_model(model) -> ModelBundle:
    """Map every weight (dense or TT) onto photonic core plans, after the cap check of all."""
    return ModelBundle(config=model.config, plans=_map_layers(model.weights, model_shapes(model)))


def _mesh_seeds(plans: dict, seed: int) -> list[np.ndarray]:
    """Each core's (K, 2) U/V mesh seeds, in `plans` order, from one `_seed_words` call.  Layer i
    in sorted name order takes s_i, the state of child i of SeedSequence(seed); core by core, slice
    k (row-major over the bond pair) seeds its U mesh with the state of child 2k of
    SeedSequence(s_i), that is of SeedSequence(s_i, spawn_key=(2k,)), and its V mesh with 2k + 1's."""
    children = dict(zip(sorted(plans), np.random.SeedSequence(seed).spawn(len(plans))))
    counts = [2 * sum(len(c.scale) for c in plan.cores) for plan in plans.values()]
    j = np.concatenate([np.arange(n) for n in counts])  # child j of its layer
    layers = np.repeat([children[name].generate_state(1)[0] for name in plans], counts)
    pairs = _seed_words(np.stack([layers, 0 * j, 0 * j, 0 * j, j], axis=1), 1).reshape(-1, 2)  # (U, V) seeds
    return np.split(pairs, np.cumsum([len(c.scale) for plan in plans.values() for c in plan.cores])[:-1])


def _realize_plans(plans: dict, phase_sigma=0.0, bits=0, seed=None) -> dict:
    """What each plan computes, perturbed as `realize` says when a seed is given: a dense
    plan's (m, n) matrix, or a TTMatrix whose core k holds, at bond pair (a, b), the matrix of
    slice a * r_k + b (the digital sum over bond channels after detection is exactly the TT sweep)."""
    seeds = None if seed is None else _mesh_seeds(plans, seed)
    stacks = iter(_core_stacks([c for plan in plans.values() for c in plan.cores], phase_sigma, bits, seeds))
    ops = {}
    for name, plan in plans.items():
        cores = [next(stacks).reshape(r_in, r_out, c.m, c.n).transpose(0, 2, 3, 1)
                 for c, r_in, r_out in zip(plan.cores, plan.ranks, plan.ranks[1:])]
        ops[name] = cores[0][0, :, :, 0] if plan.kind == "dense" else tt_mod.TTMatrix(
            plan.row_modes, plan.col_modes, plan.ranks, cores)
    return ops


def realize_plan(plan: LayerPlan):
    """The operator a plan computes, read back from its meshes."""
    return _realize_plans({"": plan})[""]


def realize(bundle: ModelBundle, phase_sigma=0.0, bits=0, seed=None) -> TOMFNModel:
    """A model whose weights are the operators the bundle's plans realize.

    Given a seed, a noisy trial: each grid's meshes are perturbed (`perturb`, attenuators
    kept) as that grid is applied, mesh by mesh from the seeds `_mesh_seeds` gives.
    """
    return TOMFNModel(bundle.config, _realize_plans(bundle.plans, phase_sigma, bits, seed))


# --- serialization -----------------------------------------------------------------


def netlist_to_obj(net: MeshNetlist) -> dict:
    return {"size": net.size, "col": net.col.tolist(), "row": net.row.tolist(),
            "theta": floats_to_obj(net.theta), "phi": floats_to_obj(net.phi)}


def netlist_from_obj(obj: dict, what: str) -> MeshNetlist:
    """A stack of meshes on one grid, as many as its `theta` shape gives, its MZIs in physical
    order; a refusal names it as `what` and its size."""
    size = integer(field(obj, "size", what), f"{what} size", 1, CORE_SIZE_CAP)
    what = f"{what} (size {size})"
    col, row = (numbers(field(obj, key, what), f"{what}: {key}", 1, np.intp) for key in ("col", "row"))
    theta_shape = field(field(obj, "theta", what), "shape", f"{what}: theta")
    count = integers(theta_shape, f"{what}: theta shape", 2, 0)[0]
    theta, phi = (floats_from_obj(field(obj, key, what), f"{what}: {key}", (count, len(col)))
                  for key in ("theta", "phi"))
    if np.any(np.diff(col) < 0) or np.any(col < 0) or np.any(col >= size):
        raise DataError(f"{what}: col must be non-decreasing and lie in [0, {size - 1}]")
    if row.shape != col.shape or np.any(row < 0) or np.any(row > size - 2):
        raise DataError(f"{what}: row must hold one entry per MZI ({len(col)}) in [0, {size - 2}]")
    return MeshNetlist(size, col, row, theta, phi)


def _core_from_obj(obj: dict, what: str, m: int, n: int, count: int, grids: list, claims: list) -> CorePlan:
    """A core of the plan's modes (m, n) holding `count` slices of that size.  Each mesh stack
    is a [grid, first] reference, read as a view of that grid's meshes first .. first + count - 1;
    the claim goes on `claims`, for the check that every grid mesh has exactly one owner."""
    diag = floats_from_obj(field(obj, "diag", what), f"{what}: diag", (count, min(m, n)))
    scale = floats_from_obj(field(obj, "scale", what), f"{what}: scale", (count,))
    if not (((diag >= 0) & (diag <= 1)).all() and (scale >= 1).all()):
        raise DataError(f"{what}: diag amplitudes must lie in [0, 1] and scales must be >= 1")
    sides = []
    for key, size in (("mesh_u", m), ("mesh_v", n)):
        g, first = integers(field(obj, key, what), f"{what}: {key} reference", 2, 0)
        if g >= len(grids):
            raise DataError(f"{what}: {key} names grid {g}, but the bundle has {len(grids)} grids")
        net, end = grids[g], first + count
        if net.size != size or end > len(net.theta):
            raise DataError(f"{what}: {key} needs meshes {first}..{end - 1} of size {size}, but grid {g} "
                            f"holds {len(net.theta)} of size {net.size}")
        claims.append((g, first, end, f"{what}: {key}"))
        sides.append(MeshNetlist(size, net.col, net.row, net.theta[first:end], net.phi[first:end]))
    return CorePlan(m, n, *sides, diag, scale)


def _plan_from_obj(obj: dict, what: str, grids: list, claims: list) -> LayerPlan:
    """A plan whose cores chain by its modes and ranks."""
    kind = field(obj, "kind", what)
    if kind not in ("dense", "tt"):
        raise DataError(f"{what}: kind must be 'dense' or 'tt', got {kind!r}")
    row_modes = sizes(field(obj, "row_modes", what), f"{what}: row_modes", high=CORE_SIZE_CAP)
    d = len(row_modes)
    col_modes = sizes(field(obj, "col_modes", what), f"{what}: col_modes", d, CORE_SIZE_CAP)
    ranks = sizes(field(obj, "ranks", what), f"{what}: ranks", d + 1)
    if ranks[0] != 1 or ranks[-1] != 1 or (kind == "dense" and d != 1):
        raise DataError(f"{what}: a {kind} plan cannot have ranks {ranks}")
    cores = [_core_from_obj(c, f"{what} core {k}", row_modes[k], col_modes[k], ranks[k] * ranks[k + 1],
                            grids, claims)
             for k, c in enumerate(json_list(field(obj, "cores", what), f"{what}: cores", d))]
    return LayerPlan(kind, row_modes, col_modes, ranks, cores=cores)


def bundle_to_obj(bundle: ModelBundle) -> dict:
    """The config, the meshes of each grid as one netlist (`grids`), and each plan: its LayerShape
    fields and its cores, whose mesh stacks are [grid, first mesh] references.  Nothing the reader
    recomputes is written: a grid's column count (its size), a core's modes, a plan's `block_dims` size."""
    cores = [core for plan in bundle.plans.values() for core in plan.cores]
    grids, refs = [], [None] * (2 * len(cores))
    for grid, joint, bounds in _by_grid([getattr(c, side) for c in cores for side in ("mesh_u", "mesh_v")]):
        for i, first in zip(grid, bounds.tolist()):
            refs[i] = [len(grids), first]
        grids.append(netlist_to_obj(joint))
    refs = iter(refs)
    plans = {name: {**vars(plan), "cores": [{"diag": floats_to_obj(c.diag), "scale": floats_to_obj(c.scale),
                                             "mesh_u": next(refs), "mesh_v": next(refs)} for c in plan.cores]}
             for name, plan in bundle.plans.items()}
    return {"format": BUNDLE_FORMAT, "config": bundle.config.to_dict(), "grids": grids, "plans": plans}


def bundle_from_obj(obj: dict) -> ModelBundle:
    """A bundle with one plan per weight of its config, each fitting the weight's `block_dims`
    size, whose mesh stacks are views of the grids, each grid mesh in exactly one stack."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if type(fmt) is not int or fmt != BUNDLE_FORMAT:
        raise DataError(f"not a format-{BUNDLE_FORMAT} bundle (format {fmt!r:.40}); "
                        "recompile it with `tomfn compile`")
    config = ModelConfig.from_dict(field(obj, "config", "bundle"))
    plans_obj = field(obj, "plans", "bundle")
    dims = block_dims(config)
    if not isinstance(plans_obj, dict) or set(plans_obj) != set(dims):
        names = set(plans_obj) if isinstance(plans_obj, dict) else set()
        raise DataError(f"bundle plans must be an object naming the config's weights: missing "
                        f"{sorted(set(dims) - names)[:4]}, unexpected {sorted(names - set(dims))[:4]}")
    grids = [netlist_from_obj(g, f"grid {i}") for i, g in enumerate(json_list(field(obj, "grids", "bundle"),
                                                                                "bundle grids"))]
    plans, claims = {}, []
    for name, want in dims.items():
        what = f"plan '{name}'"
        plan = plans[name] = _plan_from_obj(plans_obj[name], what, grids, claims)
        full = (math.prod(plan.row_modes), math.prod(plan.col_modes))
        fits = full == want if plan.kind == "dense" else full[0] >= want[0] and full[1] >= want[1]
        if not fits:
            raise DataError(f"{what} is {full[0]}x{full[1]}; the config needs {want[0]}x{want[1]}")
    ends = [0] * len(grids)  # each grid's claims, in order, then a mark at its mesh count must tile it
    for g, first, end, what in sorted(claims + [(g, len(net.theta), 0, "") for g, net in enumerate(grids)]):
        if first < ends[g]:
            raise DataError(f"{what} claims mesh {first} of grid {g}, which another core side claims")
        if first > ends[g]:
            raise DataError(f"grid {g} (size {grids[g].size}): mesh {ends[g]} belongs to no core side")
        ends[g] = end
    return ModelBundle(config=config, plans=plans)
