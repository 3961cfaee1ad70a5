#!/usr/bin/env python3
"""Low-rank multimodal fusion versus the explicit fusion tensor.

The fused vector h sums, over the fusion rank, elementwise products of
per-modality projections of bias-augmented embeddings.  That is exactly
a CP factorization of the 4-way tensor a full tensor-fusion layer would
contract with the outer product of the three embeddings - so the cheap
path and the explicit path must agree to machine precision, at a tiny
fraction of the parameters.  The factors here are a built model's own
`fusion.*` weights.
"""

import numpy as np

from tomfn import model as M

cfg = M.ModelConfig(
    visual_dims=[16, 8], audio_dims=[12, 6],
    text=M.TextConfig(d_model=8, heads=2, d_head=4, d_out=10, seq_len=3),
    fusion=M.FusionConfig(rank=3, d_h=5), heads=4,
    tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
    seed=1,
)
model = M.build(cfg)
rank, modalities = cfg.fusion.rank, ("v", "a", "t")
factors = {m: [model.weights[f"fusion.{m}.{i}"] for i in range(rank)] for m in modalities}


def low_rank(factors, z):
    """h = sum_i (W_v^i z'_v) * (W_a^i z'_a) * (W_t^i z'_t), as the model fuses."""
    terms = zip(*(factors[m] for m in modalities))
    return sum(np.prod([w @ np.append(z[m], 1.0) for m, w in zip(modalities, ws)], axis=0)
               for ws in terms)


rng = np.random.default_rng(1)
z = {"v": rng.normal(size=8), "a": rng.normal(size=6), "t": rng.normal(size=10)}

full = sum(np.einsum("jp,jq,js->jpqs", *(factors[m][i] for m in modalities))
           for i in range(rank))
h_explicit = np.einsum("jpqs,p,q,s->j", full, *(np.append(z[m], 1.0) for m in modalities))

params = M.param_count(model)["per_block"]
factor_params = sum(n for name, n in params.items() if name.startswith("fusion."))
print(f"explicit fusion tensor shape: {full.shape} -> {full.size} entries")
print(f"low-rank factors:             {factor_params} entries "
      f"({full.size / factor_params:.1f}x fewer)")
print(f"max |h_lowrank - h_explicit| = {np.max(np.abs(low_rank(factors, z) - h_explicit)):.2e}")

print()
print("appended bias 1 keeps unimodal and bimodal terms alive:")
h_silent = low_rank(factors, {m: np.zeros_like(z[m]) for m in modalities})
print(f"  all-zero inputs still fuse to h = {np.round(h_silent, 3)}")
silent = {"visual": np.zeros(16), "audio": np.zeros(12), "text": np.zeros((3, 8))}
logits = np.stack([h_silent @ model.weights[f"head.{j}"] for j in range(cfg.heads)])
probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
print(f"  M.forward on an all-zero sample vs the class heads on that h: "
      f"max difference {np.max(np.abs(M.forward(model, silent) - probs)):.2e}")

print()
print("each rank term is independent (zeroing one drops only its term):")
truncated = {m: f[:-1] + [np.zeros_like(f[-1])] for m, f in factors.items()}
kept = {m: f[:-1] for m, f in factors.items()}
diff = low_rank(truncated, z) - low_rank(kept, z)
print(f"  max difference after dropping the last term both ways: {np.max(np.abs(diff)):.2e}")
