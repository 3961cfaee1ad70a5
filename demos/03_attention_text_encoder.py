#!/usr/bin/env python3
"""The multi-head self-attention text encoder, feature by feature.

Two parallel heads project tokens to queries/keys/values, attention
mixes value rows with row-softmax weights, head outputs concatenate back
to the model width, and a feed-forward layer plus mean pooling produces
a fixed-size embedding regardless of sequence length.  Everything below
runs a built tiny model, through `M.forward` or on its `text.*` weights.
"""

import numpy as np

from tomfn import model as M

rng = np.random.default_rng(2)
d_model, d_head = 12, 6


def tiny(seq_len, pooling="mean"):
    # Text weights do not depend on seq_len, so every model here shares them.
    return M.build(M.ModelConfig(
        visual_dims=[4, 3], audio_dims=[4, 3],
        text=M.TextConfig(d_model=d_model, heads=2, d_head=d_head, d_out=5,
                          seq_len=seq_len, pooling=pooling),
        fusion=M.FusionConfig(rank=2, d_h=4), heads=4,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
        seed=2,
    ))


def sample(tokens):
    return {"visual": np.ones(4), "audio": np.ones(4), "text": tokens}


print("=== attention rows are convex mixtures of value rows ===")
w = tiny(4).weights
x = rng.normal(size=(4, d_model))
q, k, v = (x @ w[f"text.head0.{p}"].T for p in "qkv")
scores = q @ k.T / np.sqrt(d_head)
weights = np.exp(scores - scores.max(axis=1, keepdims=True))
weights /= weights.sum(axis=1, keepdims=True)
out = weights @ v
print(f"attention weights: min {weights.min():.3f}, row sums", np.round(weights.sum(axis=1), 12))
print("value column ranges:", np.round(v.min(axis=0), 2), "..", np.round(v.max(axis=0), 2))
print("output row 0:       ", np.round(out[0], 2))

print()
print("=== one pooled embedding, whatever the sequence length ===")
for length in (1, 4, 20):
    probs = M.forward(tiny(length), sample(rng.normal(size=(length, d_model))))
    print(f"  L={length:>2}: the network's output has shape {probs.shape}")

print()
print("=== mean pooling makes the encoder order-free ===")
x = rng.normal(size=(6, d_model))
model = tiny(6)
p = M.forward(model, sample(x))
p_shuffled = M.forward(model, sample(x[rng.permutation(6)]))
print(f"max |p - p_shuffled| = {np.max(np.abs(p - p_shuffled)):.2e}")

print()
print("=== 'last' pooling keeps order sensitivity instead ===")
model_last = tiny(6, pooling="last")
p = M.forward(model_last, sample(x))
p_reversed = M.forward(model_last, sample(x[::-1].copy()))
print(f"max |p - p_reversed| = {np.max(np.abs(p - p_reversed)):.2e}")
