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
diagonal, mesh_U) with a digital `global_scale` chosen so every on-chip
amplitude stays in [0, 1].  A TT layer maps core by core: fixing both
bond indices of core k yields r_{k-1} * r_k small m_k x n_k operators,
each realized as its own SVD triple, with bond channels carried on WDM
wavelengths and summed digitally after detection.

Decomposition works on stacks.  The elimination order, and so the packing
of rotations into the grid, depends on N alone, so `givens_decompose`
takes a (K, N, N) stack and runs each elimination and sign-folding step on
all K matrices at once; `svd_map` takes a (K, m, n) stack, such as one TT
core's r_{k-1} * r_k bond slices, through one batched SVD.  A single
matrix is a stack of one.  Every check (finite entries, orthogonality, the
sign diagonal, a negative 1 x 1) still holds matrix by matrix.

A mesh (`MeshNetlist`) holds its MZIs in physical order as four flat
arrays, `col` (non-decreasing), `row`, `theta` and `phi`, beside its `size`
and `depth` (columns, empty ones included).  `perturb` is one array
operation; only the JSON codec visits MZIs one at a time.

Accounting (MZIs, stages, WDM channels, the core-size histogram) reads
only each layer's modes and bond ranks, so `describe` counts from the
`LayerShape` records of the built model and never decomposes a mesh.

Simulation does not re-implement the network.  For fixed phases a
compiled plan is a linear map, so `realize_plan` reads each (possibly
perturbed) plan back into the TT core or dense weight it computes, and
`realize` assembles those into a model that the one batched forward pass
(`model.forward_batch`) runs.  The meshes of one core run as a stack, one
MZI of every mesh per step; a mesh with fewer MZIs is padded with identity
MZIs (theta = phi = 0, exact), so meshes of any valid structure, such as
those of a bundle loaded from JSON, take the same path.  Phase errors from
`perturb` are static per trial: one draw per noisy copy of the bundle.
Per-shot detector noise, if ever added, varies from one input to the next
and must be injected at the detection points inside the forward pass, not
folded into the realized weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tt as tt_mod
from .model import ROW_APPLIED, ModelConfig, TOMFNModel, block_dims
from .errors import DataError, DecompositionError, MappingError, ShapeError
from .serialize import field, integer, json_list, number, sizes

CORE_SIZE_CAP = 8


# --- netlists -------------------------------------------------------------------


@dataclass
class MeshNetlist:
    """MZI i sits in column col[i] on waveguides (row[i], row[i] + 1)."""

    size: int
    depth: int
    col: np.ndarray
    row: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def mzi_count(self) -> int:
        return len(self.col)


def _apply_meshes(nets: list[MeshNetlist], x: np.ndarray) -> np.ndarray:
    """Apply mesh k of `nets` to the rows of x[k], for an x of shape (K, N, C).

    Step j applies the j-th MZI of every mesh (physical order), so the
    meshes advance together; shorter meshes are padded with identity MZIs.
    """
    y = np.array(x, dtype=np.float64)
    counts = np.array([net.mzi_count() for net in nets])
    filled = np.arange(counts.max(initial=0)) < counts[:, None]  # (mesh, step)
    table = np.zeros((3,) + filled.shape)
    for t, field in zip(table, ("row", "theta", "phi")):
        t[filled] = np.concatenate([getattr(net, field) for net in nets])
    rows = table[0].astype(np.intp)
    cos_t, sin_t, cos_p = np.cos(table[1]), np.sin(table[1]), np.cos(table[2])
    ks = np.arange(len(nets))
    for j in range(filled.shape[1]):
        r = rows[:, j]
        top = cos_p[:, j, None] * y[ks, r]
        bot = y[ks, r + 1]
        c, s = cos_t[:, j, None], sin_t[:, j, None]
        y[ks, r] = c * top - s * bot
        y[ks, r + 1] = s * top + c * bot
    return y


def mesh_matrix(net: MeshNetlist) -> np.ndarray:
    """The matrix the netlist realizes (mesh applied to identity columns)."""
    return _apply_meshes([net], np.eye(net.size)[None])[0]


def givens_decompose(u: np.ndarray) -> list[MeshNetlist]:
    """Decompose a (K, N, N) stack of real orthogonal matrices into rectangular meshes.

    Two-sided Givens elimination (alternating column and row sweeps)
    reduces each matrix to a +-1 diagonal; the rotations are packed into
    the N-column rectangular grid and the diagonal is folded into the MZI
    angles/signs as described in the module docstring.  Every step runs on
    the whole stack; the checks name the first matrix that fails them.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise DecompositionError(f"expected a (K, N, N) stack, got shape {u.shape}")
    count, n = u.shape[:2]
    residual = np.linalg.norm(np.swapaxes(u, 1, 2) @ u - np.eye(n), axis=(1, 2))
    if (bad := np.flatnonzero(~(residual < 1e-8))).size:
        raise DecompositionError(
            f"matrix {bad[0]} is not orthogonal: ||U^T U - I||_F = {residual[bad[0]]:.3e}")
    if n == 1:
        if (bad := np.flatnonzero(u[:, 0, 0] < 0)).size:
            raise DecompositionError(f"matrix {bad[0]}: a 1x1 mesh has no MZI to carry a negative sign")
        empty = np.zeros(0, dtype=np.intp)
        return [MeshNetlist(1, 0, empty, empty, np.zeros(0), np.zeros(0)) for _ in range(count)]

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
        raise DecompositionError(f"matrix {bad[0]}: elimination failed to reach a sign diagonal")

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
        raise DecompositionError(f"matrix {bad[0]}: unabsorbed output sign; the mesh misses a row")

    layout = np.lexsort((ks, cols))  # physical order: by column, then row
    phis = np.where(sigma_flip[layout], np.pi, 0.0).T
    return [MeshNetlist(n, n, cols[layout], ks[layout], theta, phi)
            for theta, phi in zip(th[layout].T, phis)]


def check_noise(phase_sigma: float, bits: int):
    """Phase noise needs a finite phase_sigma >= 0 and 0 <= bits <= 53 (NaN
    fails both).  From 54 bits on, the 2*pi / 2**bits grid is finer than the
    float64 spacing of angles near pi, so quantizing would mean nothing."""
    if not 0 <= phase_sigma < math.inf:
        raise ShapeError(f"phase_sigma must be a finite number >= 0, got {phase_sigma}")
    if not 0 <= bits <= 53:
        raise ShapeError(f"bits must be between 0 and 53, got {bits}")


def perturb(net: MeshNetlist, phase_sigma: float, bits: int, seed: int) -> MeshNetlist:
    """Quantize angles to a 2*pi / 2**bits grid (bits=0: none), then add
    N(0, phase_sigma^2) jitter.  Deterministic under `seed`: the draws are
    theta's, then phi's, for each MZI in physical order."""
    check_noise(phase_sigma, bits)
    angles = np.stack([net.theta, net.phi], axis=1)  # (MZI, 2)
    if bits >= 1:
        step = 2 * np.pi / 2**bits
        angles = np.round(angles / step) * step
    if phase_sigma > 0:
        angles = angles + np.random.default_rng(seed).normal(0.0, phase_sigma, angles.shape)
    return replace(net, theta=angles[:, 0], phi=angles[:, 1])


# --- SVD mapping -----------------------------------------------------------------


@dataclass
class SVDTriple:
    """W = global_scale * U diag(amplitudes) V^T with amplitudes in [0, 1]."""

    mesh_u: MeshNetlist
    diag: np.ndarray
    global_scale: float
    mesh_v: MeshNetlist
    m: int
    n: int


def svd_map(w: np.ndarray) -> list[SVDTriple]:
    """Realize a (K, m, n) stack of real matrices as meshes plus attenuators.

    One batched SVD covers the stack.  Each matrix's digital global scale
    is max(its largest singular value, 1), so the on-chip diagonal never
    amplifies.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"svd_map takes a (K, m, n) stack, got shape {w.shape}")
    if (bad := np.flatnonzero(~np.isfinite(w).all(axis=(1, 2)))).size:
        raise ShapeError(f"matrix {bad[0]}: svd_map requires finite entries")
    m, n = w.shape[1:]
    if m == 1 and n == 1 and (bad := np.flatnonzero(w[:, 0, 0] < 0)).size:
        raise MappingError(f"matrix {bad[0]}: no MZI can carry the sign of a negative 1x1 weight")
    u, s, vt = np.linalg.svd(w, full_matrices=True)
    # A 1 x 1 mesh cannot carry a sign: push it into the larger factor.
    if m == 1 and n > 1:
        flip = u[:, 0, 0] < 0
        u[flip] = -u[flip]
        vt[flip, 0] = -vt[flip, 0]
    if n == 1 and m > 1:
        flip = vt[:, 0, 0] < 0
        vt[flip] = -vt[flip]
        u[flip, :, 0] = -u[flip, :, 0]
    scale = np.maximum(s[:, 0], 1.0)
    parts = zip(givens_decompose(u), s / scale[:, None], scale, givens_decompose(vt))
    return [SVDTriple(mesh_u=mu, diag=d, global_scale=float(g), mesh_v=mv, m=m, n=n)
            for mu, d, g, mv in parts]


def _triple_matrices(triples: list[SVDTriple]) -> np.ndarray:
    """The (K, m, n) matrices of K same-shape triples, each mesh side run as a stack."""
    m, n = triples[0].m, triples[0].n
    t = _apply_meshes([tr.mesh_v for tr in triples], np.broadcast_to(np.eye(n), (len(triples), n, n)))
    k = min(m, n)
    z = np.zeros((len(triples), m, n))
    z[:, :k] = np.array([tr.diag for tr in triples])[:, :, None] * t[:, :k]
    scale = np.array([tr.global_scale for tr in triples])
    return scale[:, None, None] * _apply_meshes([tr.mesh_u for tr in triples], z)


def svd_matrix(triple: SVDTriple) -> np.ndarray:
    return _triple_matrices([triple])[0]


# --- layer shapes, plans and accounting --------------------------------------------


@dataclass
class LayerShape:
    """What accounting reads of a layer: its kind, modes and bond ranks.

    A dense (m, n) layer is one core with row_modes [m], col_modes [n] and
    ranks [1, 1]; logical_out/logical_in give its size before TT padding.
    """

    kind: str  # "dense" or "tt"
    row_modes: list[int]
    col_modes: list[int]
    ranks: list[int]
    logical_out: int
    logical_in: int

    @property
    def wdm_channels(self) -> int:
        """Bond channels ride WDM wavelengths, so the widest bond sets the count."""
        return max(self.ranks)


@dataclass
class CorePlan:
    m: int
    n: int
    triples: list[list[SVDTriple]]  # indexed [alpha][beta] over bond ranks


@dataclass
class LayerPlan(LayerShape):
    cores: list[CorePlan]


def _core_shapes(shape: LayerShape):
    """(m_k, n_k, number of bond slices r_{k-1} * r_k) per core."""
    for k, (m, n) in enumerate(zip(shape.row_modes, shape.col_modes)):
        yield m, n, shape.ranks[k] * shape.ranks[k + 1]


def layer_shape(w, logical_out: int | None = None, logical_in: int | None = None) -> LayerShape:
    """The shape of the plan that maps operator `w` (dense (out, in) or TT).

    Raises MappingError when a core (a dense operator, or one TT mode pair)
    exceeds the CORE_SIZE_CAP x CORE_SIZE_CAP core size.
    """
    if isinstance(w, tt_mod.TTMatrix):
        shape = LayerShape("tt", list(w.row_modes), list(w.col_modes), list(w.ranks),
                           logical_out or w.nrows, logical_in or w.ncols)
        hint = "re-factorize the dimension into smaller modes"
    else:
        shape = LayerShape("dense", [w.shape[0]], [w.shape[1]], [1, 1], *w.shape)
        hint = "tensorize the layer (TT) so every mode fits"
    for k, (m, n, _) in enumerate(_core_shapes(shape)):
        if m > CORE_SIZE_CAP or n > CORE_SIZE_CAP:
            raise MappingError(f"{shape.kind} core {k} is {m}x{n}, above the "
                               f"{CORE_SIZE_CAP}x{CORE_SIZE_CAP} cap; {hint}")
    return shape


def _map_cores(shape: LayerShape, cores) -> LayerPlan:
    """Map each (r_in, m, n, r_out) core's bond slices as one stack of SVD triples."""
    core_plans = []
    for core in cores:
        r_in, mk, nk, r_out = core.shape
        triples = svd_map(core.transpose(0, 3, 1, 2).reshape(r_in * r_out, mk, nk))
        core_plans.append(CorePlan(m=mk, n=nk, triples=[triples[a * r_out:(a + 1) * r_out]
                                                         for a in range(r_in)]))
    return LayerPlan(**vars(shape), cores=core_plans)


def map_dense_layer(w: np.ndarray) -> LayerPlan:
    """One SVD triple for a small dense operator (both dims <= CORE_SIZE_CAP)."""
    return _map_cores(layer_shape(w), [w[None, :, :, None]])


def map_tt_layer(tt: tt_mod.TTMatrix, logical_out: int | None = None,
                 logical_in: int | None = None) -> LayerPlan:
    """Slice every core over its bond-rank pairs into small mesh operators.

    Core k contributes r_{k-1} * r_k sub-matrices of shape m_k x n_k; the
    bond index rides a WDM channel, so the plan needs max_k r_k channels.
    """
    return _map_cores(layer_shape(tt, logical_out, logical_in), tt.cores)


def mzi_count(shape: LayerShape) -> int:
    """Two meshes plus min(m, n) attenuator MZIs per sub-matrix."""
    return sum((m * (m - 1) // 2 + n * (n - 1) // 2 + min(m, n)) * slices
               for m, n, slices in _core_shapes(shape))


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


def _stage_total(config: ModelConfig, shapes: dict) -> int:
    """Sequential stages with parallel branches contributing their max.

    The three subnetworks run side by side (max of the three chains);
    all fusion projections are parallel, as are the class heads; the
    attention score/softmax and the elementwise fusion products are
    detection-side operations, not MZI stages.
    """
    chains = []
    for stack, dims in (("visual", config.visual_dims), ("audio", config.audio_dims)):
        chains.append(sum(stage_depth(shapes[f"{stack}.fc{k}"]) for k in range(len(dims) - 1)))
    qkv = max(
        stage_depth(shapes[f"text.head{h}.{part}"])
        for h in range(config.text.heads)
        for part in ("q", "k", "v")
    )
    chains.append(qkv + stage_depth(shapes["text.ff"]))
    fusion_stage = max(
        stage_depth(shapes[f"fusion.{m}.{i}"])
        for m in ("v", "a", "t")
        for i in range(config.fusion.rank)
    )
    head_stage = max(stage_depth(shapes[f"head.{j}"]) for j in range(config.heads))
    return max(chains) + fusion_stage + head_stage


def totals(config: ModelConfig, shapes: dict) -> dict:
    """MZIs, optical stages, WDM channels and core histogram of a model's layers.

    `shapes` maps every weight name to its LayerShape; compiled LayerPlans
    serve too, and give the same totals, since only modes and ranks count.
    """
    return {
        "mzis": sum(mzi_count(s) for s in shapes.values()),
        "stages": _stage_total(config, shapes),
        "wdm_channels": max(s.wdm_channels for s in shapes.values()),
        "core_histogram": core_histogram(shapes.values()),
    }


def perturb_plan(plan: LayerPlan, phase_sigma: float, bits: int, seed: int) -> LayerPlan:
    """Perturb every netlist in the plan; seeds fan out per mesh."""
    seq = np.random.SeedSequence(seed)

    def perturbed(tr: SVDTriple) -> SVDTriple:
        s_u, s_v = seq.spawn(2)
        return replace(tr, mesh_u=perturb(tr.mesh_u, phase_sigma, bits, s_u.generate_state(1)[0]),
                       diag=tr.diag.copy(),
                       mesh_v=perturb(tr.mesh_v, phase_sigma, bits, s_v.generate_state(1)[0]))

    return replace(plan, cores=[replace(core, triples=[[perturbed(tr) for tr in row]
                                                       for row in core.triples])
                                for core in plan.cores])


# --- whole-model compilation and realization -------------------------------------


@dataclass
class ModelBundle:
    """Every weight of a model mapped to a LayerPlan, in dataflow order."""

    config: ModelConfig
    plans: dict[str, LayerPlan]


def _operators(model):
    """(name, operator, logical (out, in)) per weight.

    Dense weights stored in row-applied orientation (text projections,
    class heads) are transposed, so each operator multiplies a column vector.
    """
    dims = block_dims(model.config)
    for name, w in model.weights.items():
        dense_row = not isinstance(w, tt_mod.TTMatrix) and name.startswith(ROW_APPLIED)
        yield name, (w.T if dense_row else w), dims[name]


def model_shapes(model) -> dict[str, LayerShape]:
    """The LayerShape of every weight, cap check included, without compiling a mesh."""
    return {name: layer_shape(op, *dims) for name, op, dims in _operators(model)}


def compile_model(model) -> ModelBundle:
    """Map every weight (dense or TT) onto photonic core plans."""
    plans = {}
    for name, op, (out_dim, in_dim) in _operators(model):
        if isinstance(op, tt_mod.TTMatrix):
            plans[name] = map_tt_layer(op, out_dim, in_dim)
        else:
            plans[name] = map_dense_layer(np.asarray(op))
    return ModelBundle(config=model.config, plans=plans)


def realize_plan(plan: LayerPlan):
    """The operator a (possibly perturbed) plan computes, read back from its meshes.

    A dense plan gives its (m, n) matrix.  A TT plan gives a TTMatrix whose
    core k holds, at bond pair (a, b), the matrix of triple [a][b]: the
    digital sum over bond channels after detection is exactly the TT sweep.
    """
    cores = []
    for core in plan.cores:
        r_in, r_out = len(core.triples), len(core.triples[0])
        mats = _triple_matrices([t for row in core.triples for t in row])
        cores.append(mats.reshape(r_in, r_out, core.m, core.n).transpose(0, 2, 3, 1))
    if plan.kind == "dense":
        return cores[0][0, :, :, 0]
    return tt_mod.TTMatrix(plan.row_modes, plan.col_modes, plan.ranks, cores)


def realize(bundle: ModelBundle, plans: dict | None = None) -> TOMFNModel:
    """A model whose weights are the operators the bundle's plans realize.

    `plans` (default: the bundle's own) may be perturbed copies from
    `perturb_bundle`.  Row-applied dense weights are transposed back to
    their stored (in, out) orientation, undoing `compile_model`.
    """
    plans = bundle.plans if plans is None else plans
    weights = {}
    for name, plan in plans.items():
        w = realize_plan(plan)
        weights[name] = w.T if plan.kind == "dense" and name.startswith(ROW_APPLIED) else w
    return TOMFNModel(bundle.config, weights)


def perturb_bundle(bundle: ModelBundle, phase_sigma: float, bits: int, seed: int) -> dict:
    """Perturbed copies of every plan, seeded per layer for determinism."""
    seq = np.random.SeedSequence(seed)
    out = {}
    for name in sorted(bundle.plans):
        child = seq.spawn(1)[0]
        out[name] = perturb_plan(bundle.plans[name], phase_sigma, bits, child.generate_state(1)[0])
    return out


# --- serialization -----------------------------------------------------------------


def netlist_to_obj(net: MeshNetlist) -> dict:
    columns = [[] for _ in range(net.depth)]
    for c, r, t, p in zip(net.col.tolist(), net.row.tolist(), net.theta.tolist(), net.phi.tolist()):
        columns[c].append({"row": r, "theta": t, "phi": p})
    return {"size": net.size, "columns": columns}


def netlist_from_obj(obj: dict) -> MeshNetlist:
    size = integer(field(obj, "size", "mesh"), "mesh size", 1)
    columns = json_list(field(obj, "columns", "mesh"), "mesh columns")
    mzis = [(ci, integer(field(m, "row", "MZI"), "MZI row", 0, size - 2),
             number(field(m, "theta", "MZI"), "MZI theta"), number(field(m, "phi", "MZI"), "MZI phi"))
            for ci, col in enumerate(columns) for m in json_list(col, "mesh column")]
    col, row, theta, phi = np.array(mzis, dtype=np.float64).reshape(-1, 4).T
    return MeshNetlist(size, len(columns), col.astype(np.intp), row.astype(np.intp), theta, phi)


def _triple_to_obj(tr: SVDTriple) -> dict:
    return {
        "mesh_u": netlist_to_obj(tr.mesh_u),
        "diag": tr.diag.tolist(),
        "scale": tr.global_scale,
        "mesh_v": netlist_to_obj(tr.mesh_v),
        "m": tr.m,
        "n": tr.n,
    }


def _check_size(obj: dict, m: int, n: int, what: str):
    """A core or triple must have the size (m, n) that its plan's modes give."""
    got = tuple(integer(field(obj, key, what), f"{what} {key}", 1) for key in "mn")
    if got != (m, n):
        raise DataError(f"{what} is {got[0]}x{got[1]} where the plan's modes give {m}x{n}")


def _triple_from_obj(obj: dict, m: int, n: int) -> SVDTriple:
    _check_size(obj, m, n, "triple")
    mesh_u = netlist_from_obj(field(obj, "mesh_u", "triple"))
    mesh_v = netlist_from_obj(field(obj, "mesh_v", "triple"))
    if (mesh_u.size, mesh_v.size) != (m, n):
        raise DataError(f"meshes of sizes {mesh_u.size}, {mesh_v.size} in a {m}x{n} triple")
    diag = [number(v, "diag entry") for v in json_list(field(obj, "diag", "triple"), "diag", min(m, n))]
    return SVDTriple(
        mesh_u=mesh_u,
        diag=np.asarray(diag, dtype=np.float64),
        global_scale=number(field(obj, "scale", "triple"), "scale"),
        mesh_v=mesh_v,
        m=m,
        n=n,
    )


def _core_from_obj(obj: dict, m: int, n: int, r_in: int, r_out: int) -> CorePlan:
    """A core of modes (m, n) holding r_in x r_out triples of that size."""
    _check_size(obj, m, n, "core")
    triples = [[_triple_from_obj(t, m, n) for t in json_list(row, "row of core triples", r_out)]
               for row in json_list(field(obj, "triples", "core"), "core triples", r_in)]
    return CorePlan(m=m, n=n, triples=triples)


def plan_to_obj(plan: LayerPlan) -> dict:
    return {
        "kind": plan.kind,
        "row_modes": plan.row_modes,
        "col_modes": plan.col_modes,
        "ranks": plan.ranks,
        "wdm_channels": plan.wdm_channels,
        "logical_out": plan.logical_out,
        "logical_in": plan.logical_in,
        "cores": [
            {
                "m": c.m,
                "n": c.n,
                "triples": [[_triple_to_obj(t) for t in row] for row in c.triples],
            }
            for c in plan.cores
        ],
    }


def plan_from_obj(obj: dict) -> LayerPlan:
    """A plan whose cores, triples and meshes chain by its modes and ranks.

    `wdm_channels` is not read: it follows from the ranks.
    """
    kind = field(obj, "kind", "plan")
    if kind not in ("dense", "tt"):
        raise DataError(f"plan kind must be 'dense' or 'tt', got {kind!r}")
    row_modes = sizes(field(obj, "row_modes", "plan"), "row_modes", high=CORE_SIZE_CAP)
    d = len(row_modes)
    col_modes = sizes(field(obj, "col_modes", "plan"), "col_modes", d, CORE_SIZE_CAP)
    ranks = sizes(field(obj, "ranks", "plan"), "ranks", d + 1)
    if ranks[0] != 1 or ranks[-1] != 1 or (kind == "dense" and d != 1):
        raise DataError(f"a {kind} plan cannot have ranks {ranks}")
    cores = [_core_from_obj(c, row_modes[k], col_modes[k], ranks[k], ranks[k + 1])
             for k, c in enumerate(json_list(field(obj, "cores", "plan"), "plan cores", d))]
    return LayerPlan(
        kind=kind,
        row_modes=row_modes,
        col_modes=col_modes,
        ranks=ranks,
        logical_out=integer(field(obj, "logical_out", "plan"), "logical_out", 1),
        logical_in=integer(field(obj, "logical_in", "plan"), "logical_in", 1),
        cores=cores,
    )


def bundle_to_obj(bundle: ModelBundle) -> dict:
    return {
        "config": bundle.config.to_dict(),
        "plans": {name: plan_to_obj(p) for name, p in bundle.plans.items()},
    }


def bundle_from_obj(obj: dict) -> ModelBundle:
    """A bundle with one plan per weight of its config, each of the weight's logical size."""
    config = ModelConfig.from_dict(field(obj, "config", "bundle"))
    plans_obj = field(obj, "plans", "bundle")
    dims = block_dims(config)
    if not isinstance(plans_obj, dict) or set(plans_obj) != set(dims):
        names = set(plans_obj) if isinstance(plans_obj, dict) else set()
        raise DataError(f"bundle plans must be an object naming the config's weights: missing "
                        f"{sorted(set(dims) - names)[:4]}, unexpected {sorted(names - set(dims))[:4]}")
    plans = {}
    for name, want in dims.items():
        plan = plans[name] = plan_from_obj(plans_obj[name])
        full = (math.prod(plan.row_modes), math.prod(plan.col_modes))
        fits = full == want if plan.kind == "dense" else full[0] >= want[0] and full[1] >= want[1]
        if (plan.logical_out, plan.logical_in) != want or not fits:
            raise DataError(f"plan '{name}' is {full[0]}x{full[1]} (logical {plan.logical_out}x"
                            f"{plan.logical_in}); the config needs {want[0]}x{want[1]}")
    return ModelBundle(config=config, plans=plans)
