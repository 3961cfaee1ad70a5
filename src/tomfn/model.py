"""Full multimodal network: subnetworks, fusion, classification heads.

Weights live in a flat name -> array/TTMatrix map so the optimizer, the
serializer, and the photonic compiler all see the same inventory.  Every
weight, dense or TT, is an (out, in) operator that maps a column vector,
as a mesh computes y = W x (`block_dims` gives each one's dims):

    visual.fc{k}, audio.fc{k}    (dims[k + 1], dims[k]) FC stack layers
    text.head{h}.{q|k|v}         (d_head, d_model) attention projections
    text.ff                      (d_out, d_model) feed-forward
    fusion.{v|a|t}.{i}           (d_h, d_m + 1) factor for rank term i
    head.{j}                     (2, d_h) per-emotion softmax head

`_Graph` is the package's one forward pass, batched over samples on one
reverse-mode graph (see `autodiff`); training, evaluation and the
optical simulation all run it.  Its stages:

- visual and audio: FC stacks with relu between layers;
- text (`_encode_text`): each head maps the L tokens to queries, keys and
  values and mixes value rows by softmax(Q K^T / sqrt(d_head)); the heads
  concatenate back to d_model, then text.ff and a relu give per-token
  features, pooled by their mean or the last token.  With no positional
  encoding, mean pooling makes the embedding order-free;
- fusion (`_fuse`): h = sum_i (W_v^i z'_v) * (W_a^i z'_a) * (W_t^i z'_t)
  over bias-augmented embeddings z' = [z, 1], elementwise.  That is a
  CP factorization of the explicit fusion tensor
  T[j,p,q,s] = sum_i W_v^i[j,p] W_a^i[j,q] W_t^i[j,s], so h equals T
  contracted with z'_v, z'_a and z'_t, which is never materialized;
- heads: a softmax over two classes per emotion.

Dimensions that are not 8-smooth are zero-padded only inside TT
operators; the graph rebuilds each TT operator densely from its cores
and slices it back to the logical (out, in) block, so callers never see
the padding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import tt as tt_mod
from .errors import ConfigError, DataError, ShapeError
from .serialize import flag, integer, integers, number, string

EMOTIONS = ("happy", "sad", "angry", "neutral")


# --- configuration ------------------------------------------------------------


@dataclass
class TextConfig:
    d_model: int = 300
    heads: int = 2
    d_head: int = 150
    d_out: int = 64
    seq_len: int = 20
    pooling: str = "mean"


@dataclass
class FusionConfig:
    rank: int = 4
    d_h: int = 32


@dataclass
class TTConfig:
    visual: bool = True
    audio: bool = True
    text: bool = True
    fusion: bool = True
    class_heads: bool = True
    max_rank: int = 8
    tol: float = 0.0
    max_factor: int = 8


@dataclass
class ModelConfig:
    visual_dims: list[int] = field(default_factory=lambda: [80, 32, 32, 32])
    audio_dims: list[int] = field(default_factory=lambda: [36, 32, 32, 32])
    text: TextConfig = field(default_factory=TextConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    heads: int = 4
    tt: TTConfig = field(default_factory=TTConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("visual_dims", "audio_dims"):
            dims = getattr(self, name)
            if len(dims) < 2 or any(d < 1 for d in dims):
                raise ConfigError(f"{name} must chain at least two positive dims, got {dims}")
        t = self.text
        for name in ("d_model", "heads", "d_head", "d_out", "seq_len"):
            if getattr(t, name) < 1:
                raise ConfigError(f"text.{name} must be >= 1, got {getattr(t, name)}")
        if t.heads * t.d_head != t.d_model:
            raise ConfigError(
                f"text.heads * text.d_head must equal text.d_model "
                f"({t.heads} * {t.d_head} != {t.d_model})"
            )
        if t.pooling not in ("mean", "last"):
            raise ConfigError(f"text.pooling must be 'mean' or 'last', got '{t.pooling}'")
        if self.fusion.rank < 1 or self.fusion.d_h < 1:
            raise ConfigError("fusion.r and fusion.d_h must be >= 1")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tt.max_rank < 1:
            raise ConfigError(f"tt.max_rank must be >= 1, got {self.tt.max_rank}")
        if not 0 <= self.tt.tol < math.inf:
            raise ConfigError(f"tt.tol must be a finite number >= 0, got {self.tt.tol}")
        if self.tt.max_factor < 2:
            raise ConfigError(f"tt.max_factor must be >= 2, got {self.tt.max_factor}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fusion"] = {"r": self.fusion.rank, "d_h": self.fusion.d_h}
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        return _from_json(cls, obj)


# The validator a JSON value goes through, per field annotation.
_JSON_TYPES = {"int": integer, "float": number, "bool": flag, "str": string, "list[int]": integers}


def _from_json(cls, obj, prefix: str = ""):
    """Config dataclass `cls` from its JSON object: sections recurse, and
    every other value must match its field's annotation (ConfigError names
    the field).  `FusionConfig.rank` is spelled "r" in JSON."""
    if not isinstance(obj, dict):
        where = f"field '{prefix[:-1]}'" if prefix else "config"
        raise ConfigError(f"{where} must be a JSON object, got {obj!r:.40}")
    by_key = {"r" if f.name == "rank" else f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        name = prefix + key
        if key not in by_key:
            raise ConfigError(f"unknown config field '{name}'")
        f = by_key[key]
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _from_json(f.default_factory, value, name + ".")
            continue
        try:
            _JSON_TYPES[f.type](value, f"field '{name}'")
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        kwargs[f.name] = value  # as written, so a config re-written from it keeps its bytes
    return cls(**kwargs)


def default_config() -> ModelConfig:
    return ModelConfig()


# --- model container ------------------------------------------------------------


@dataclass
class TOMFNModel:
    config: ModelConfig
    weights: dict  # name -> np.ndarray | TTMatrix

    def leaves(self):
        """Yield (key, array) for every trainable array, TT cores included."""
        for name in sorted(self.weights):
            w = self.weights[name]
            if isinstance(w, tt_mod.TTMatrix):
                for k, core in enumerate(w.cores):
                    yield f"{name}/core{k}", core
            else:
                yield name, w


def _glorot(rng, fan_out: int, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _to_tt_operator(w_op: np.ndarray, tt_cfg: TTConfig) -> tt_mod.TTMatrix:
    """TT-SVD of an (out, in) operator, zero-padding non-8-smooth dims."""
    m, n = w_op.shape
    mp = tt_mod.next_mappable_dim(m, tt_cfg.max_factor)
    np_ = tt_mod.next_mappable_dim(n, tt_cfg.max_factor)
    if (mp, np_) != (m, n):
        padded = np.zeros((mp, np_))
        padded[:m, :n] = w_op
        w_op = padded
    rows, cols = tt_mod.pad_modes(
        tt_mod.factorize_dim(mp, tt_cfg.max_factor),
        tt_mod.factorize_dim(np_, tt_cfg.max_factor),
    )
    return tt_mod.tt_from_dense(w_op, rows, cols, tt_cfg.max_rank, tt_cfg.tol)


def build(config: ModelConfig) -> TOMFNModel:
    """Draw every weight of `block_dims`, in its order (Glorot-uniform, seeded), and
    tensorize the flagged blocks.  A `text.*` or `head.*` weight is drawn (in, out)
    and kept as the (out, in) view of that draw, so every seed gives the weights
    it always has.  The TT-SVD draws nothing, so a TT and a dense model from the
    same seed start from identical matrices."""
    rng = np.random.default_rng(config.seed)
    tt_cfg = config.tt
    flags = {"visual": tt_cfg.visual, "audio": tt_cfg.audio, "text": tt_cfg.text,
             "fusion": tt_cfg.fusion, "head": tt_cfg.class_heads}
    w: dict = {}
    drawn_in_out = ("text.", "head.")  # the draw order these weights always had, so every seed keeps them
    for name, (out_dim, in_dim) in block_dims(config).items():
        if name.startswith(drawn_in_out):
            w[name] = _glorot(rng, out_dim, in_dim, (in_dim, out_dim)).T
        else:
            w[name] = _glorot(rng, out_dim, in_dim, (out_dim, in_dim))
        if flags[name.split(".")[0]]:
            w[name] = _to_tt_operator(w[name], tt_cfg)
    return TOMFNModel(config, w)


# --- forward / loss graph ---------------------------------------------------------


class _Graph:
    """One forward/loss graph over a batch, with weight leaves kept by leaf key.

    With requires_grad=False the weights are constants, so the graph keeps
    no tape (inference only).
    """

    def __init__(self, model: TOMFNModel, requires_grad: bool = True):
        self.model = model
        self.dims = block_dims(model.config)
        self.leaves = {key: ad.leaf(arr, requires_grad) for key, arr in model.leaves()}

    def _apply(self, name: str, x: ad.Var) -> ad.Var:
        """The layer `name` applied to every row of x: (B, in) -> (B, out).

        A TT weight is rebuilt from its core leaves as its dense operator,
        cut down to its logical (out, in) block, `block_dims(config)[name]`,
        so every weight goes through the same one matmul, x @ W^T.
        """
        w = self.model.weights[name]
        if isinstance(w, tt_mod.TTMatrix):
            cores = [self.leaves[f"{name}/core{k}"] for k in range(len(w.cores))]
            op = tt_mod.contract_cores(cores, w)
            for axis, dim in enumerate(self.dims[name]):
                if op.shape[axis] != dim:
                    op = ad.slice_axis(op, axis, 0, dim)
        else:
            op = self.leaves[name]
        return ad.matmul(x, ad.transpose(op, (1, 0)))

    def _fc_stack(self, stack: str, dims: list[int], h: ad.Var) -> ad.Var:
        for k in range(len(dims) - 1):
            h = self._apply(f"{stack}.fc{k}", h)
            if k < len(dims) - 2:
                h = ad.relu(h)
        return h

    def _encode_text(self, x3: ad.Var) -> ad.Var:
        cfg = self.model.config.text
        b, length, _ = x3.value.shape
        flat = ad.reshape(x3, (b * length, cfg.d_model))

        def head(h, out):
            q, k, v = (ad.reshape(self._apply(f"text.head{h}.{p}", flat), (b, length, cfg.d_head))
                       for p in "qkv")
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(cfg.d_head))
            return ad.matmul(ad.softmax_last(scores), v, out=out)

        # Each head is made in turn and writes its output straight into its slice.
        concat = ad.concat([partial(head, h) for h in range(cfg.heads)], axis=2,
                           out=np.empty((b, length, cfg.d_model)))
        feats = ad.relu(
            ad.reshape(
                self._apply("text.ff", ad.reshape(concat, (b * length, cfg.d_model))),
                (b, length, cfg.d_out),
            )
        )
        if cfg.pooling == "mean":
            return ad.mean_axis(feats, 1)
        return ad.reshape(ad.slice_axis(feats, 1, length - 1, length), (b, cfg.d_out))

    def _fuse(self, z_v: ad.Var, z_a: ad.Var, z_t: ad.Var) -> ad.Var:
        cfg = self.model.config.fusion
        b = z_v.value.shape[0]
        one = ad.constant(np.ones((b, 1)))
        aug = {
            "v": ad.concat([z_v, one], axis=1),
            "a": ad.concat([z_a, one], axis=1),
            "t": ad.concat([z_t, one], axis=1),
        }
        h = None
        for i in range(cfg.rank):
            term = None
            for m in ("v", "a", "t"):
                p = self._apply(f"fusion.{m}.{i}", aug[m])
                term = p if term is None else ad.mul(term, p)
            h = term if h is None else ad.add(h, term)
        return h

    def outputs(self, visual, audio, text, labels=None):
        """Return (probs Var (B, heads, 2), loss Var or None)."""
        cfg = self.model.config
        b = visual.shape[0]
        z_v = self._fc_stack("visual", cfg.visual_dims, ad.constant(visual))
        z_a = self._fc_stack("audio", cfg.audio_dims, ad.constant(audio))
        z_t = self._encode_text(ad.constant(text))
        h = self._fuse(z_v, z_a, z_t)
        probs, ces = [], []
        for j in range(cfg.heads):
            logits = self._apply(f"head.{j}", h)
            probs.append(ad.reshape(ad.softmax_last(logits), (b, 1, 2)))
            if labels is not None:
                picked = ad.gather_last(logits, labels[:, j])
                ces.append(ad.add(ad.logsumexp_last(logits), ad.scale(picked, -1.0)))
        prob = ad.concat(probs, axis=1)
        loss = ad.mean_all(ad.concat(ces, axis=0)) if labels is not None else None
        return prob, loss


def check_batch(config: ModelConfig, visual, audio, text, labels=None):
    """Raise ShapeError unless the batch arrays (and labels, if given) fit `config`."""
    b = visual.shape[0]
    wants = {
        "visual": (visual, (b, config.visual_dims[0])),
        "audio": (audio, (b, config.audio_dims[0])),
        "text": (text, (b, config.text.seq_len, config.text.d_model)),
    }
    if labels is not None:
        wants["labels"] = (labels, (b, config.heads))
    for name, (array, want) in wants.items():
        if array.shape != want:
            raise ShapeError(f"{name} batch has shape {array.shape}, expected {want}")


def forward_batch(model: TOMFNModel, visual, audio, text) -> np.ndarray:
    """Per-head class probabilities for a batch, shape (B, heads, 2)."""
    visual, audio, text = (np.asarray(a, dtype=np.float64) for a in (visual, audio, text))
    check_batch(model.config, visual, audio, text)
    prob, _ = _Graph(model, requires_grad=False).outputs(visual, audio, text)
    return prob.value


def forward(model: TOMFNModel, sample: dict) -> np.ndarray:
    """Probabilities for one sample dict with 'visual', 'audio', 'text'."""
    return forward_batch(
        model,
        np.asarray(sample["visual"])[None, :],
        np.asarray(sample["audio"])[None, :],
        np.asarray(sample["text"])[None, :, :],
    )[0]


def loss_and_grad(model: TOMFNModel, visual, audio, text, labels):
    """Mean cross-entropy over heads and samples, plus gradients per leaf key."""
    visual, audio, text = (np.asarray(a, dtype=np.float64) for a in (visual, audio, text))
    labels = np.asarray(labels, dtype=np.int64)
    check_batch(model.config, visual, audio, text, labels)
    graph = _Graph(model)
    _, loss = graph.outputs(visual, audio, text, labels)
    ad.backward(loss)
    grads = {key: v.grad if v.grad is not None else np.zeros_like(v.value)
             for key, v in graph.leaves.items()}
    return float(loss.value), grads


# --- counting ------------------------------------------------------------------


def block_dims(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Logical (out, in) dims per weight name, independent of TT padding."""
    dims: dict[str, tuple[int, int]] = {}
    for stack, ds in (("visual", config.visual_dims), ("audio", config.audio_dims)):
        for k in range(len(ds) - 1):
            dims[f"{stack}.fc{k}"] = (ds[k + 1], ds[k])
    t = config.text
    for h in range(t.heads):
        for part in ("q", "k", "v"):
            dims[f"text.head{h}.{part}"] = (t.d_head, t.d_model)
    dims["text.ff"] = (t.d_out, t.d_model)
    ins = {"v": config.visual_dims[-1], "a": config.audio_dims[-1], "t": t.d_out}
    for m in ("v", "a", "t"):
        for i in range(config.fusion.rank):
            dims[f"fusion.{m}.{i}"] = (config.fusion.d_h, ins[m] + 1)
    for j in range(config.heads):
        dims[f"head.{j}"] = (2, config.fusion.d_h)
    return dims


def param_count(model: TOMFNModel) -> dict:
    """Stored parameters per block, with the dense-equivalent for comparison."""
    logical = block_dims(model.config)
    per_block, total, dense_total = {}, 0, 0
    for name, w in model.weights.items():
        n = tt_mod.tt_param_count(w) if isinstance(w, tt_mod.TTMatrix) else int(w.size)
        per_block[name] = n
        total += n
        m, k = logical[name]
        dense_total += m * k
    return {"per_block": per_block, "total": total, "dense_equivalent_total": dense_total}


def mac_count(model: TOMFNModel) -> dict[str, int]:
    """Dense-equivalent multiply-accumulates for one inference, per scope.

    subnet_weights_only counts each visual/audio/text matrix once;
    all_weights adds fusion factors and class heads; full_runtime repeats
    text matrices per token and adds the attention-score products.
    """
    per_stack: dict[str, int] = {}
    for name, (m, n) in block_dims(model.config).items():
        stack = name.split(".")[0]
        per_stack[stack] = per_stack.get(stack, 0) + m * n
    subnet = per_stack["visual"] + per_stack["audio"] + per_stack["text"]
    all_weights = subnet + per_stack["fusion"] + per_stack["head"]
    t = model.config.text
    attn = 2 * t.seq_len * t.seq_len * t.d_head * t.heads
    return {"subnet_weights_only": subnet, "all_weights": all_weights,
            "full_runtime": all_weights + (t.seq_len - 1) * per_stack["text"] + attn}
