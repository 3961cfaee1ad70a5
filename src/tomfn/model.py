"""Full multimodal network: subnetworks, fusion, classification heads.

Weights live in a flat name -> array/TTMatrix map so the optimizer, the
serializer, and the photonic compiler all see the same inventory:

    visual.fc{k}, audio.fc{k}    (out, in) matrices of the FC stacks
    text.head{h}.{q|k|v}         (d_model, d_head) dense, or a TT operator
                                 with row modes over d_head
    text.ff                      (d_model, d_out) dense, or a TT operator
    fusion.{v|a|t}.{i}           (d_h, d_m + 1) factor for rank term i
    head.{j}                     (d_h, 2) per-emotion softmax head

Forward and gradients are computed on one reverse-mode graph (see
`autodiff`), batched over samples.  Dimensions that are not 8-smooth are
zero-padded only inside TT operators; the graph rebuilds each TT operator
densely from its cores and slices it back to the logical (out, in)
block, so callers never see the padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import tt as tt_mod
from .errors import ConfigError, ShapeError
from .fusion import LMFLayer
from .attention import AttentionHead, TextEncoder

EMOTIONS = ("happy", "sad", "angry", "neutral")

# Dense weights under these name prefixes are stored (in, out) and applied
# to a row as x @ W; every other dense weight is an (out, in) operator.
ROW_APPLIED = ("text.", "head.")


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
        if t.heads * t.d_head != t.d_model:
            raise ConfigError(
                f"text.heads * text.d_head must equal text.d_model "
                f"({t.heads} * {t.d_head} != {t.d_model})"
            )
        if t.pooling not in ("mean", "last"):
            raise ConfigError(f"text.pooling must be 'mean' or 'last', got '{t.pooling}'")
        if t.seq_len < 1:
            raise ConfigError(f"text.seq_len must be >= 1, got {t.seq_len}")
        if self.fusion.rank < 1 or self.fusion.d_h < 1:
            raise ConfigError("fusion.r and fusion.d_h must be >= 1")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.tt.max_rank < 1:
            raise ConfigError(f"tt.max_rank must be >= 1, got {self.tt.max_rank}")
        if self.tt.tol < 0:
            raise ConfigError(f"tt.tol must be >= 0, got {self.tt.tol}")
        if self.tt.max_factor < 2:
            raise ConfigError(f"tt.max_factor must be >= 2, got {self.tt.max_factor}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fusion"] = {"r": self.fusion.rank, "d_h": self.fusion.d_h}
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        known = {"visual_dims", "audio_dims", "text", "fusion", "heads", "tt", "seed"}
        for key in obj:
            if key not in known:
                raise ConfigError(f"unknown config field '{key}'")
        def convert(field_name, fn):
            try:
                return fn(obj[field_name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad config field '{field_name}': {exc}") from exc

        kwargs = {}
        if "visual_dims" in obj:
            kwargs["visual_dims"] = convert("visual_dims", lambda v: [int(x) for x in v])
        if "audio_dims" in obj:
            kwargs["audio_dims"] = convert("audio_dims", lambda v: [int(x) for x in v])
        if "text" in obj:
            kwargs["text"] = convert("text", lambda v: TextConfig(**v))
        if "fusion" in obj:

            def make_fusion(v):
                f = dict(v)
                if "r" in f:
                    f["rank"] = f.pop("r")
                return FusionConfig(**f)

            kwargs["fusion"] = convert("fusion", make_fusion)
        if "heads" in obj:
            kwargs["heads"] = convert("heads", int)
        if "tt" in obj:
            kwargs["tt"] = convert("tt", lambda v: TTConfig(**v))
        if "seed" in obj:
            kwargs["seed"] = convert("seed", int)
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

    def text_encoder(self) -> TextEncoder:
        heads = [
            AttentionHead(
                self.weights[f"text.head{h}.q"],
                self.weights[f"text.head{h}.k"],
                self.weights[f"text.head{h}.v"],
            )
            for h in range(self.config.text.heads)
        ]
        return TextEncoder(heads=heads, ff=self.weights["text.ff"], pooling=self.config.text.pooling)

    def fusion_layer(self) -> LMFLayer:
        cfg = self.config.fusion
        return LMFLayer(
            fusion_rank=cfg.rank,
            out_dim=cfg.d_h,
            factors={
                m: [self.weights[f"fusion.{m}.{i}"] for i in range(cfg.rank)]
                for m in ("v", "a", "t")
            },
        )


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
    """Initialize all weights (Glorot-uniform, seeded), then tensorize flagged blocks.

    The dense draw happens first in a fixed order, so a TT model and a dense
    model from the same seed start from identical matrices.
    """
    rng = np.random.default_rng(config.seed)
    w: dict = {}
    for stack, dims in (("visual", config.visual_dims), ("audio", config.audio_dims)):
        for k in range(len(dims) - 1):
            w[f"{stack}.fc{k}"] = _glorot(rng, dims[k + 1], dims[k], (dims[k + 1], dims[k]))
    t = config.text
    for h in range(t.heads):
        for part in ("q", "k", "v"):
            w[f"text.head{h}.{part}"] = _glorot(rng, t.d_head, t.d_model, (t.d_model, t.d_head))
    w["text.ff"] = _glorot(rng, t.d_out, t.d_model, (t.d_model, t.d_out))
    dims_in = {"v": config.visual_dims[-1], "a": config.audio_dims[-1], "t": t.d_out}
    for m in ("v", "a", "t"):
        for i in range(config.fusion.rank):
            d_in = dims_in[m] + 1
            w[f"fusion.{m}.{i}"] = _glorot(
                rng, config.fusion.d_h, d_in, (config.fusion.d_h, d_in)
            )
    for j in range(config.heads):
        w[f"head.{j}"] = _glorot(rng, 2, config.fusion.d_h, (config.fusion.d_h, 2))

    tt_cfg = config.tt
    flags = {"visual": tt_cfg.visual, "audio": tt_cfg.audio, "text": tt_cfg.text,
             "fusion": tt_cfg.fusion, "head": tt_cfg.class_heads}
    for name in w:
        if flags[name.split(".")[0]]:
            # TT weights are always (out, in) operators.
            op = w[name].T if name.startswith(ROW_APPLIED) else w[name]
            w[name] = _to_tt_operator(op, tt_cfg)
    return TOMFNModel(config, w)


# --- forward / loss graph ---------------------------------------------------------


class _Graph:
    """One forward/loss graph over a batch, with weight leaves kept by leaf key.

    With requires_grad=False the weights are constants, so the graph keeps
    no tape (inference only).
    """

    def __init__(self, model: TOMFNModel, requires_grad: bool = True):
        self.model = model
        self.leaves = {key: ad.leaf(arr, requires_grad) for key, arr in model.leaves()}

    def _apply(self, name: str, x: ad.Var, out_dim: int) -> ad.Var:
        """The layer `name` applied to every row of x: (B, in) -> (B, out_dim).

        A TT weight is rebuilt from its core leaves as its dense operator,
        cut down to the logical (out_dim, in) block, so every weight goes
        through the same one matmul.
        """
        w = self.model.weights[name]
        is_tt = isinstance(w, tt_mod.TTMatrix)
        if is_tt:
            cores = [self.leaves[f"{name}/core{k}"] for k in range(len(w.cores))]
            op = tt_mod.contract_cores(cores, w)
            for axis, dim in enumerate((out_dim, x.shape[1])):
                if op.shape[axis] != dim:
                    op = ad.slice_axis(op, axis, 0, dim)
        else:
            op = self.leaves[name]
        if is_tt or not name.startswith(ROW_APPLIED):
            op = ad.transpose(op, (1, 0))
        return ad.matmul(x, op)

    def _fc_stack(self, stack: str, dims: list[int], x: ad.Var) -> ad.Var:
        h = x
        for k in range(len(dims) - 1):
            h = self._apply(f"{stack}.fc{k}", h, dims[k + 1])
            if k < len(dims) - 2:
                h = ad.relu(h)
        return h

    def _encode_text(self, x3: ad.Var) -> ad.Var:
        cfg = self.model.config.text
        b, length, _ = x3.value.shape
        flat = ad.reshape(x3, (b * length, cfg.d_model))
        outs = []
        for h in range(cfg.heads):
            q = ad.reshape(self._apply(f"text.head{h}.q", flat, cfg.d_head), (b, length, cfg.d_head))
            k = ad.reshape(self._apply(f"text.head{h}.k", flat, cfg.d_head), (b, length, cfg.d_head))
            v = ad.reshape(self._apply(f"text.head{h}.v", flat, cfg.d_head), (b, length, cfg.d_head))
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(cfg.d_head))
            outs.append(ad.matmul(ad.softmax_last(scores), v))
        concat = ad.concat(outs, axis=2)
        feats = ad.relu(
            ad.reshape(
                self._apply("text.ff", ad.reshape(concat, (b * length, cfg.d_model)), cfg.d_out),
                (b, length, cfg.d_out),
            )
        )
        if cfg.pooling == "mean":
            return ad.mean_axis(feats, 1)
        return ad.take(feats, length - 1, axis=1)

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
                p = self._apply(f"fusion.{m}.{i}", aug[m], cfg.d_h)
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
            logits = self._apply(f"head.{j}", h, 2)
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


def grad(model: TOMFNModel, batch) -> dict:
    """Gradients for a batch given as a Dataset or a dict of arrays."""
    if hasattr(batch, "visual"):
        v, a, t, y = batch.visual, batch.audio, batch.text, batch.labels
    else:
        v, a, t, y = batch["visual"], batch["audio"], batch["text"], batch["labels"]
    _, grads = loss_and_grad(model, v, a, t, y)
    return grads


def batch_loss(model: TOMFNModel, visual, audio, text, labels) -> float:
    """Loss only; used by finite-difference checks."""
    visual, audio, text = (np.asarray(a, dtype=np.float64) for a in (visual, audio, text))
    labels = np.asarray(labels, dtype=np.int64)
    _, loss = _Graph(model, requires_grad=False).outputs(visual, audio, text, labels)
    return float(loss.value)


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


def mac_count(model: TOMFNModel, scope: str = "subnet_weights_only") -> int:
    """Dense-equivalent multiply-accumulates for one inference.

    subnet_weights_only counts each visual/audio/text matrix once;
    all_weights adds fusion factors and class heads; full_runtime repeats
    text matrices per token and adds the attention-score products.
    """
    cfg = model.config
    dims = block_dims(cfg)
    subnet = sum(m * n for name, (m, n) in dims.items()
                 if name.split(".")[0] in ("visual", "audio", "text"))
    if scope == "subnet_weights_only":
        return subnet
    extra = sum(m * n for name, (m, n) in dims.items()
                if name.split(".")[0] in ("fusion", "head"))
    if scope == "all_weights":
        return subnet + extra
    if scope == "full_runtime":
        text_macs = sum(m * n for name, (m, n) in dims.items() if name.startswith("text."))
        length = cfg.text.seq_len
        attn = 2 * length * length * cfg.text.d_head * cfg.text.heads
        return subnet - text_macs + length * text_macs + extra + attn
    raise ConfigError(f"unknown mac_count scope '{scope}'")
