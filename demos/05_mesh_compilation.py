#!/usr/bin/env python3
"""From matrices to MZI meshes: decomposition, SVD triples, TT layer plans.

Any real orthogonal matrix becomes a rectangular mesh of N(N-1)/2
Givens-style MZIs, N columns deep.  Rectangular matrices sandwich an
attenuating diagonal between two meshes (amplitudes scaled into [0,1]
with a digital global factor), and a TT layer becomes stacks of small
per-bond operators whose channels ride separate wavelengths.
"""

import numpy as np

from tomfn import photonic as P
from tomfn import tt

rng = np.random.default_rng(3)

print("=== a 6x6 orthogonal matrix as a mesh ===")
q, r = np.linalg.qr(rng.normal(size=(6, 6)))
u = q * np.sign(np.diag(r))
net = P.givens_decompose(u[None])  # a stack of one mesh
print(f"MZIs: {net.mzi_count()} (= 6*5/2), depth: {net.size} columns")
print("MZIs per column:", np.bincount(net.col, minlength=net.size).tolist())
print(f"reconstruction error: {np.linalg.norm(P.mesh_matrix(net)[0] - u):.2e}")
x = rng.normal(size=6)
print(f"norm preserved: |y| - |x| = {np.linalg.norm(P.mesh_matrix(net)[0] @ x) - np.linalg.norm(x):.2e}")

print()
print("=== rectangular weights via an SVD triple ===")
w = rng.normal(size=(4, 6))
core = P.svd_map(w[None])  # a stack of one slice
print(f"global scale {core.scale[0]:.3f}, on-chip amplitudes "
      f"{np.round(core.diag[0], 3)} (all <= 1)")
print(f"reconstruction error: {np.linalg.norm(P.core_matrices(core)[0] - w):.2e}")

print()
print("=== a 32x32 TT layer mapped to small cores ===")
w = rng.normal(size=(32, 32))
t = tt.tt_from_dense(w, [4, 8], [4, 8], max_rank=4, tol=0.0)
plan = P.map_tt_layer(t)
print(f"TT ranks {t.ranks} -> WDM channels: {max(plan.ranks)}")
print(f"core histogram: {P.core_histogram([plan])}")
print(f"MZIs: {P.mzi_count(plan)}, cascaded stages: {P.stage_depth(plan)}")
x = rng.normal(size=32)
print("bond slices per core:", [len(core.mesh_u.theta) for core in plan.cores])
realized = P.realize_plan(plan)  # each core read back from its bond-slice meshes
err = np.max(np.abs(tt.tt_matvec(realized, x) - tt.tt_matvec(t, x)))
print(f"realized optical plan vs TT contraction: max error {err:.2e}")

print()
print("=== phase noise and quantization ===")
x6 = rng.normal(size=6)
ideal = P.mesh_matrix(net)[0] @ x6
for sigma in (0.001, 0.01, 0.05):
    noisy_net = P.perturb(net, phase_sigma=sigma, bits=8, seeds=[7])
    err = np.max(np.abs(P.mesh_matrix(noisy_net)[0] @ x6 - ideal))
    print(f"  sigma={sigma:<6} 8-bit phases: max output error {err:.3e}")
