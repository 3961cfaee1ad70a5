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

Simulation does not re-implement the network.  For fixed phases a
compiled plan is a linear map, so `realize_plan` reads each (possibly
perturbed) plan back into the TT core or dense weight it computes, and
`realize` assembles those into a model that the one batched forward pass
(`model.forward_batch`) runs.  Phase errors from `perturb` are therefore
static per trial: one draw per noisy copy of the bundle.  Per-shot
detector noise, if ever added, varies from one input to the next and must
be injected at the detection points inside the forward pass, not folded
into the realized weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tt as tt_mod
from .model import ROW_APPLIED, ModelConfig, TOMFNModel, block_dims
from .errors import DataError, DecompositionError, MappingError, ShapeError

CORE_SIZE_CAP = 8


# --- netlists -------------------------------------------------------------------


@dataclass
class MZISetting:
    layer_index: int
    row_index: int
    theta: float
    phi: float = 0.0


@dataclass
class MeshNetlist:
    size: int
    columns: list[list[MZISetting]]

    def mzi_count(self) -> int:
        return sum(len(col) for col in self.columns)

    @property
    def depth(self) -> int:
        return len(self.columns)


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    t = (theta + np.pi) % (2 * np.pi) - np.pi
    return np.pi if t == -np.pi else t


def _apply_columns(net: MeshNetlist, x: np.ndarray) -> np.ndarray:
    """Apply the mesh to the rows of x (shape (N,) or (N, K))."""
    y = x.astype(np.float64, copy=True)
    for col in net.columns:
        for mzi in col:
            r = mzi.row_index
            top = np.cos(mzi.phi) * y[r]
            bot = y[r + 1]
            c, s = np.cos(mzi.theta), np.sin(mzi.theta)
            y[r] = c * top - s * bot
            y[r + 1] = s * top + c * bot
    return y


def mesh_apply(net: MeshNetlist, x: np.ndarray) -> np.ndarray:
    """Run an N-vector through the mesh, column by column."""
    if x.shape[0] != net.size:
        raise ShapeError(f"input length {x.shape[0]} != mesh size {net.size}")
    return _apply_columns(net, x)


def mesh_matrix(net: MeshNetlist) -> np.ndarray:
    """The matrix the netlist realizes (mesh applied to identity columns)."""
    return _apply_columns(net, np.eye(net.size))


def givens_decompose(u: np.ndarray) -> MeshNetlist:
    """Decompose a real orthogonal N x N matrix into a rectangular mesh.

    Two-sided Givens elimination (alternating column and row sweeps)
    reduces U to a +-1 diagonal; the rotations are packed into the
    N-column rectangular grid and the diagonal is folded into the MZI
    angles/signs as described in the module docstring.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DecompositionError(f"expected a square matrix, got {u.shape}")
    n = u.shape[0]
    residual = np.linalg.norm(u.T @ u - np.eye(n))
    if residual >= 1e-8:
        raise DecompositionError(f"matrix is not orthogonal: ||U^T U - I||_F = {residual:.3e}")
    if n == 1:
        if u[0, 0] < 0:
            raise DecompositionError("a 1x1 mesh has no MZI to carry a negative sign")
        return MeshNetlist(size=1, columns=[])

    v = u.copy()
    left: list[tuple[int, float]] = []  # G(k, theta) applied as V <- G V
    right: list[tuple[int, float]] = []  # G(k, theta) applied as V <- V G
    for i in range(n - 1):
        if i % 2 == 0:
            for j in range(i + 1):
                r, c = n - 1 - j, i - j
                th = np.arctan2(-v[r, c], v[r, c + 1])
                ct, st = np.cos(th), np.sin(th)
                new_c = v[:, c] * ct + v[:, c + 1] * st
                new_c1 = -v[:, c] * st + v[:, c + 1] * ct
                v[:, c], v[:, c + 1] = new_c, new_c1
                right.append((c, th))
        else:
            for j in range(i + 1):
                r, c = n - 1 - i + j, j
                th = np.arctan2(-v[r, c], v[r - 1, c])
                ct, st = np.cos(th), np.sin(th)
                new_top = v[r - 1] * ct - v[r] * st
                new_bot = v[r - 1] * st + v[r] * ct
                v[r - 1], v[r] = new_top, new_bot
                left.append((r - 1, th))

    signs = np.sign(np.diag(v))
    signs[signs == 0] = 1.0
    if np.linalg.norm(v - np.diag(signs)) > 1e-7:
        raise DecompositionError("elimination failed to reach a sign diagonal")

    # U = L1^T..Lp^T D Rq^T..R1^T.  Pull D to the front: conjugating a
    # rotation by the sign diagonal multiplies its angle by s_k * s_{k+1}.
    matrix_order = [(k, signs[k] * signs[k + 1] * (-th)) for k, th in left]
    matrix_order += [(k, -th) for k, th in reversed(right)]

    # Greedy earliest-column packing (respecting the rectangular grid's
    # row/column parity) in physical order: last matrix factor first.
    columns: list[list[MZISetting]] = [[] for _ in range(n)]
    free = np.zeros(n, dtype=int)  # first free column per row
    for k, th in reversed(matrix_order):
        col = int(max(free[k], free[k + 1]))
        if (col - k) % 2 != 0:
            col += 1
        if col >= n:
            raise DecompositionError("rotation sequence does not fit the rectangular grid")
        columns[col].append(MZISetting(layer_index=col, row_index=k, theta=th, phi=0.0))
        free[k] = free[k + 1] = col + 1

    # Fold the output sign diagonal into angles, walking output -> input.
    pending = signs.copy()
    for col in reversed(columns):
        for mzi in col:
            s_top, s_bot = pending[mzi.row_index], pending[mzi.row_index + 1]
            sigma = 1.0
            if s_top < 0 and s_bot < 0:
                mzi.theta += np.pi
            elif s_top < 0 <= s_bot:
                mzi.theta, sigma = -mzi.theta, -1.0
            elif s_bot < 0 <= s_top:
                mzi.theta, sigma = np.pi - mzi.theta, -1.0
            mzi.phi = np.pi if sigma < 0 else 0.0
            mzi.theta = _wrap_angle(mzi.theta)
            pending[mzi.row_index] = pending[mzi.row_index + 1] = 1.0
    if np.any(pending < 0):
        raise DecompositionError("unabsorbed output sign; mesh does not cover every row")
    for col in columns:
        col.sort(key=lambda m: m.row_index)
    return MeshNetlist(size=n, columns=columns)


def perturb(net: MeshNetlist, phase_sigma: float, bits: int, seed: int) -> MeshNetlist:
    """Quantize angles to a 2*pi / 2**bits grid (bits=0: none), then add
    N(0, phase_sigma^2) jitter.  Deterministic under `seed`."""
    if phase_sigma < 0:
        raise ShapeError("phase_sigma must be >= 0")
    if bits < 0:
        raise ShapeError("bits must be >= 0")
    rng = np.random.default_rng(seed)
    step = 2 * np.pi / (2**bits) if bits >= 1 else None
    columns = []
    for col in net.columns:
        new_col = []
        for mzi in col:
            theta, phi = mzi.theta, mzi.phi
            if step is not None:
                theta = round(theta / step) * step
                phi = round(phi / step) * step
            if phase_sigma > 0:
                theta += rng.normal(0.0, phase_sigma)
                phi += rng.normal(0.0, phase_sigma)
            new_col.append(MZISetting(mzi.layer_index, mzi.row_index, theta, phi))
        columns.append(new_col)
    return MeshNetlist(size=net.size, columns=columns)


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


def svd_map(w: np.ndarray) -> SVDTriple:
    """Realize an arbitrary real m x n matrix as meshes plus attenuators.

    The digital global scale is max(largest singular value, 1) so the
    on-chip diagonal never amplifies.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError("svd_map takes a matrix")
    if not np.all(np.isfinite(w)):
        raise ShapeError("svd_map requires finite entries")
    m, n = w.shape
    u, s, vt = np.linalg.svd(w, full_matrices=True)
    # A 1 x 1 mesh cannot carry a sign: push it into the larger factor.
    if m == 1 and n > 1 and u[0, 0] < 0:
        u = -u
        vt[0] = -vt[0]
    if n == 1 and m > 1 and vt[0, 0] < 0:
        vt = -vt
        u[:, 0] = -u[:, 0]
    if m == 1 and n == 1 and w[0, 0] < 0:
        raise MappingError("cannot realize a negative 1x1 weight; no MZI carries its sign")
    global_scale = max(float(s[0]) if s.size else 0.0, 1.0)
    return SVDTriple(
        mesh_u=givens_decompose(u),
        diag=s / global_scale,
        global_scale=global_scale,
        mesh_v=givens_decompose(vt),
        m=m,
        n=n,
    )


def svd_apply(triple: SVDTriple, x: np.ndarray) -> np.ndarray:
    """Simulate the triple on a vector or on the columns of a matrix."""
    t = _apply_columns(triple.mesh_v, x)
    k = triple.diag.shape[0]
    out_shape = (triple.m,) + t.shape[1:]
    z = np.zeros(out_shape)
    z[:k] = triple.diag.reshape((k,) + (1,) * (t.ndim - 1)) * t[:k]
    return triple.global_scale * _apply_columns(triple.mesh_u, z)


def svd_matrix(triple: SVDTriple) -> np.ndarray:
    return svd_apply(triple, np.eye(triple.n))


# --- layer plans -----------------------------------------------------------------


@dataclass
class CorePlan:
    m: int
    n: int
    triples: list[list[SVDTriple]]  # indexed [alpha][beta] over bond ranks


@dataclass
class LayerPlan:
    kind: str  # "dense" or "tt"
    row_modes: list[int]
    col_modes: list[int]
    ranks: list[int]
    cores: list[CorePlan]
    wdm_channels: int
    logical_out: int
    logical_in: int

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.row_modes))

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.col_modes))


def map_dense_layer(w: np.ndarray, cap: int = CORE_SIZE_CAP) -> LayerPlan:
    """One SVD triple for a small dense operator (both dims <= cap)."""
    m, n = w.shape
    if m > cap or n > cap:
        raise MappingError(
            f"dense {m}x{n} exceeds the {cap}x{cap} core cap; "
            f"tensorize the layer (TT) so every mode fits"
        )
    return LayerPlan(
        kind="dense",
        row_modes=[m],
        col_modes=[n],
        ranks=[1, 1],
        cores=[CorePlan(m=m, n=n, triples=[[svd_map(w)]])],
        wdm_channels=1,
        logical_out=m,
        logical_in=n,
    )


def map_tt_layer(tt: tt_mod.TTMatrix, cap: int = CORE_SIZE_CAP,
                 logical_out: int | None = None, logical_in: int | None = None) -> LayerPlan:
    """Slice every core over its bond-rank pairs into small mesh operators.

    Core k contributes r_{k-1} * r_k sub-matrices of shape m_k x n_k; the
    bond index rides a WDM channel, so the plan needs max_k r_k channels.
    """
    for k, (mk, nk) in enumerate(zip(tt.row_modes, tt.col_modes)):
        if mk > cap or nk > cap:
            raise MappingError(
                f"core {k} is {mk}x{nk}, above the {cap}x{cap} cap; "
                f"re-factorize the dimension into smaller modes"
            )
    cores = []
    for core in tt.cores:
        r_in, mk, nk, r_out = core.shape
        triples = [[svd_map(core[a, :, :, b]) for b in range(r_out)] for a in range(r_in)]
        cores.append(CorePlan(m=mk, n=nk, triples=triples))
    return LayerPlan(
        kind="tt",
        row_modes=list(tt.row_modes),
        col_modes=list(tt.col_modes),
        ranks=list(tt.ranks),
        cores=cores,
        wdm_channels=max(tt.ranks),
        logical_out=logical_out or tt.nrows,
        logical_in=logical_in or tt.ncols,
    )


def mzi_count(plan: LayerPlan) -> int:
    """Two meshes plus min(m, n) attenuator MZIs per sub-matrix."""
    total = 0
    for core in plan.cores:
        per = core.m * (core.m - 1) // 2 + core.n * (core.n - 1) // 2 + min(core.m, core.n)
        total += per * len(core.triples) * len(core.triples[0])
    return total


def stage_depth(plan: LayerPlan) -> int:
    """Cascaded optical stages: each core contributes m + 1 + n columns."""
    return sum(core.m + 1 + core.n for core in plan.cores)


def core_histogram(plans) -> dict[str, int]:
    """Count of sub-matrices per shape, keyed like '4x4'."""
    hist: dict[str, int] = {}
    for plan in plans:
        for core in plan.cores:
            key = f"{core.m}x{core.n}"
            hist[key] = hist.get(key, 0) + len(core.triples) * len(core.triples[0])
    return dict(sorted(hist.items()))


def perturb_plan(plan: LayerPlan, phase_sigma: float, bits: int, seed: int) -> LayerPlan:
    """Perturb every netlist in the plan; seeds fan out per mesh."""
    seq = np.random.SeedSequence(seed)
    cores = []
    for core in plan.cores:
        triples = []
        for row in core.triples:
            new_row = []
            for tr in row:
                s_u, s_v = seq.spawn(2)
                new_row.append(
                    SVDTriple(
                        mesh_u=perturb(tr.mesh_u, phase_sigma, bits, s_u.generate_state(1)[0]),
                        diag=tr.diag.copy(),
                        global_scale=tr.global_scale,
                        mesh_v=perturb(tr.mesh_v, phase_sigma, bits, s_v.generate_state(1)[0]),
                        m=tr.m,
                        n=tr.n,
                    )
                )
            triples.append(new_row)
        cores.append(CorePlan(m=core.m, n=core.n, triples=triples))
    return LayerPlan(
        kind=plan.kind,
        row_modes=plan.row_modes,
        col_modes=plan.col_modes,
        ranks=plan.ranks,
        cores=cores,
        wdm_channels=plan.wdm_channels,
        logical_out=plan.logical_out,
        logical_in=plan.logical_in,
    )


# --- whole-model compilation and realization -------------------------------------


@dataclass
class ModelBundle:
    """Every weight of a model mapped to a LayerPlan, in dataflow order."""

    config: ModelConfig
    plans: dict[str, LayerPlan]

    def mzi_total(self) -> int:
        return sum(mzi_count(p) for p in self.plans.values())

    def wdm_channels(self) -> int:
        return max(p.wdm_channels for p in self.plans.values())

    def histogram(self) -> dict[str, int]:
        return core_histogram(self.plans.values())

    def stage_total(self) -> int:
        """Sequential stages with parallel branches contributing their max.

        The three subnetworks run side by side (max of the three chains);
        all fusion projections are parallel, as are the class heads; the
        attention score/softmax and the elementwise fusion products are
        detection-side operations, not MZI stages.
        """
        cfg = self.config
        chains = []
        for stack, dims in (("visual", cfg.visual_dims), ("audio", cfg.audio_dims)):
            chains.append(
                sum(stage_depth(self.plans[f"{stack}.fc{k}"]) for k in range(len(dims) - 1))
            )
        qkv = max(
            stage_depth(self.plans[f"text.head{h}.{part}"])
            for h in range(cfg.text.heads)
            for part in ("q", "k", "v")
        )
        chains.append(qkv + stage_depth(self.plans["text.ff"]))
        fusion_stage = max(
            stage_depth(self.plans[f"fusion.{m}.{i}"])
            for m in ("v", "a", "t")
            for i in range(cfg.fusion.rank)
        )
        head_stage = max(stage_depth(self.plans[f"head.{j}"]) for j in range(cfg.heads))
        return max(chains) + fusion_stage + head_stage


def compile_model(model, cap: int = CORE_SIZE_CAP) -> ModelBundle:
    """Map every weight (dense or TT) onto photonic core plans.

    Dense weights stored in row-applied orientation (text projections,
    class heads) are transposed first so each plan realizes the operator
    that multiplies a column vector.
    """
    dims = block_dims(model.config)
    plans = {}
    for name, w in model.weights.items():
        out_dim, in_dim = dims[name]
        if isinstance(w, tt_mod.TTMatrix):
            plans[name] = map_tt_layer(w, cap=cap, logical_out=out_dim, logical_in=in_dim)
        else:
            op = w.T if name.startswith(ROW_APPLIED) else w
            plans[name] = map_dense_layer(np.asarray(op), cap=cap)
    return ModelBundle(config=model.config, plans=plans)


def realize_plan(plan: LayerPlan):
    """The operator a (possibly perturbed) plan computes, read back from its meshes.

    A dense plan gives its (m, n) matrix.  A TT plan gives a TTMatrix whose
    core k holds, at bond pair (a, b), the matrix of triple [a][b]: the
    digital sum over bond channels after detection is exactly the TT sweep.
    """
    if plan.kind == "dense":
        return svd_matrix(plan.cores[0].triples[0][0])
    cores = [
        np.stack([np.stack([svd_matrix(t) for t in row], axis=-1) for row in core.triples])
        for core in plan.cores
    ]
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
    return {
        "size": net.size,
        "columns": [
            [{"row": m.row_index, "theta": m.theta, "phi": m.phi} for m in col]
            for col in net.columns
        ],
    }


def _number(value, what: str) -> float:
    """A finite JSON number as float; anything else is a DataError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _index(value, low: int, high: float, what: str) -> int:
    """A JSON integer in [low, high]; anything else is a DataError."""
    if type(value) is not int or not low <= value <= high:
        raise DataError(f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return value


def netlist_from_obj(obj: dict) -> MeshNetlist:
    size = _index(obj["size"], 1, math.inf, "mesh size")
    columns = [
        [
            MZISetting(ci, _index(m["row"], 0, size - 2, "MZI row"),
                       _number(m["theta"], "MZI theta"), _number(m["phi"], "MZI phi"))
            for m in col
        ]
        for ci, col in enumerate(obj["columns"])
    ]
    return MeshNetlist(size=size, columns=columns)


def _triple_to_obj(tr: SVDTriple) -> dict:
    return {
        "mesh_u": netlist_to_obj(tr.mesh_u),
        "diag": tr.diag.tolist(),
        "scale": tr.global_scale,
        "mesh_v": netlist_to_obj(tr.mesh_v),
        "m": tr.m,
        "n": tr.n,
    }


def _triple_from_obj(obj: dict) -> SVDTriple:
    m = _index(obj["m"], 1, math.inf, "triple m")
    n = _index(obj["n"], 1, math.inf, "triple n")
    mesh_u, mesh_v = netlist_from_obj(obj["mesh_u"]), netlist_from_obj(obj["mesh_v"])
    if (mesh_u.size, mesh_v.size) != (m, n):
        raise DataError(f"meshes of sizes {mesh_u.size}, {mesh_v.size} in a {m}x{n} triple")
    diag = [_number(v, "diag entry") for v in obj["diag"]]
    if len(diag) != min(m, n):
        raise DataError(f"diag has {len(diag)} entries, a {m}x{n} triple needs {min(m, n)}")
    return SVDTriple(
        mesh_u=mesh_u,
        diag=np.asarray(diag, dtype=np.float64),
        global_scale=_number(obj["scale"], "scale"),
        mesh_v=mesh_v,
        m=m,
        n=n,
    )


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
    return LayerPlan(
        kind=obj["kind"],
        row_modes=[int(v) for v in obj["row_modes"]],
        col_modes=[int(v) for v in obj["col_modes"]],
        ranks=[int(v) for v in obj["ranks"]],
        cores=[
            CorePlan(
                m=int(c["m"]),
                n=int(c["n"]),
                triples=[[_triple_from_obj(t) for t in row] for row in c["triples"]],
            )
            for c in obj["cores"]
        ],
        wdm_channels=int(obj["wdm_channels"]),
        logical_out=int(obj["logical_out"]),
        logical_in=int(obj["logical_in"]),
    )


def bundle_to_obj(bundle: ModelBundle) -> dict:
    return {
        "config": bundle.config.to_dict(),
        "plans": {name: plan_to_obj(p) for name, p in bundle.plans.items()},
    }


def bundle_from_obj(obj: dict) -> ModelBundle:
    return ModelBundle(
        config=ModelConfig.from_dict(obj["config"]),
        plans={name: plan_from_obj(p) for name, p in obj["plans"].items()},
    )
