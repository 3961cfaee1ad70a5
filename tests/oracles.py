"""Explicit numpy oracles for the network's stages, one sample at a time.

They share no code with `model._Graph`, the package's only forward pass:
attention is a loop over query and key tokens, fusion builds the explicit
4-way fusion tensor and contracts it, and `forward` chains them.  The
runners at the end call the graph's own stages on hand-made weights.
Dense weights only.
"""

import numpy as np

from tomfn import autodiff as ad
from tomfn import model as M

MODALITIES = ("v", "a", "t")


def softmax(scores):
    e = np.exp(scores - np.max(scores))
    return e / np.sum(e)


def relu(x):
    return np.maximum(x, 0.0)


def encode_text(x, heads, ff, pooling):
    """Embed an (L, d_model) token matrix.

    `heads` lists (W_q, W_k, W_v), each (d_model, d_head); `ff` is
    (d_model, d_out).  Token i attends to every token j with weight
    softmax_j(q_i . k_j / sqrt(d_head)).
    """
    length = x.shape[0]
    features = []
    for i in range(length):
        mixed = []
        for w_q, w_k, w_v in heads:
            q_i = x[i] @ w_q
            scores = np.array([q_i @ (x[j] @ w_k) for j in range(length)])
            weights = softmax(scores / np.sqrt(w_q.shape[1]))
            mixed.append(sum(weights[j] * (x[j] @ w_v) for j in range(length)))
        features.append(relu(np.concatenate(mixed) @ ff))
    return np.mean(features, axis=0) if pooling == "mean" else features[-1]


def fusion_tensor(factors):
    """T[j, p, q, s] = sum_i Wv_i[j, p] Wa_i[j, q] Wt_i[j, s], row by row.

    `factors` maps "v", "a", "t" to equal-length lists of (d_h, d_m + 1)
    matrices.
    """
    wv, wa, wt = (factors[m] for m in MODALITIES)
    d_h = wv[0].shape[0]
    t = np.zeros((d_h, wv[0].shape[1], wa[0].shape[1], wt[0].shape[1]))
    for i in range(len(wv)):
        for j in range(d_h):
            t[j] += np.multiply.outer(np.multiply.outer(wv[i][j], wa[i][j]), wt[i][j])
    return t


def contract(t, z_v, z_a, z_t):
    """h_j = sum over p, q, s of T[j, p, q, s] z'_v[p] z'_a[q] z'_t[s], z' = [z, 1]."""
    zv, za, zt = (np.append(z, 1.0) for z in (z_v, z_a, z_t))
    outer = np.multiply.outer(np.multiply.outer(zv, za), zt)
    return np.array([np.sum(t[j] * outer) for j in range(t.shape[0])])


def forward(model, sample):
    """Per-head class probabilities (heads, 2) of one sample of a dense model."""
    cfg, w = model.config, model.weights

    def fc_stack(stack, dims, z):
        for k in range(len(dims) - 1):
            z = w[f"{stack}.fc{k}"] @ z
            if k < len(dims) - 2:
                z = relu(z)
        return z

    z_v = fc_stack("visual", cfg.visual_dims, np.asarray(sample["visual"]))
    z_a = fc_stack("audio", cfg.audio_dims, np.asarray(sample["audio"]))
    heads = [tuple(w[f"text.head{h}.{p}"] for p in "qkv") for h in range(cfg.text.heads)]
    z_t = encode_text(np.asarray(sample["text"]), heads, w["text.ff"], cfg.text.pooling)
    factors = {m: [w[f"fusion.{m}.{i}"] for i in range(cfg.fusion.rank)] for m in MODALITIES}
    h = contract(fusion_tensor(factors), z_v, z_a, z_t)
    return np.stack([softmax(h @ w[f"head.{j}"]) for j in range(cfg.heads)])


# --- the shipped stages ----------------------------------------------------------


def graph_encode_text(model, x):
    """`_Graph._encode_text` on a batch (B, L, d_model), or on one (L, d_model) sample."""
    graph = M._Graph(model, requires_grad=False)
    if x.ndim == 2:
        return graph._encode_text(ad.constant(x[None])).value[0]
    return graph._encode_text(ad.constant(x)).value


def graph_fuse(factors, z_v, z_a, z_t):
    """`_Graph._fuse` with the given fusion factors, on a batch (B, d_m) of
    embeddings per modality, or on one (d_m,) embedding each."""
    rank, d_h = len(factors["v"]), factors["v"][0].shape[0]
    d_v, d_a, d_t = (factors[m][0].shape[1] - 1 for m in MODALITIES)
    config = M.ModelConfig(
        visual_dims=[1, d_v], audio_dims=[1, d_a],
        text=M.TextConfig(d_model=1, heads=1, d_head=1, d_out=d_t, seq_len=1),
        fusion=M.FusionConfig(rank=rank, d_h=d_h), heads=1,
    )
    weights = {f"fusion.{m}.{i}": factors[m][i] for m in MODALITIES for i in range(rank)}
    graph = M._Graph(M.TOMFNModel(config, weights), requires_grad=False)
    zs = [ad.constant(np.atleast_2d(z)) for z in (z_v, z_a, z_t)]
    h = graph._fuse(*zs).value
    return h[0] if np.ndim(z_v) == 1 else h
