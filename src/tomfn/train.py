"""Synthetic data generation, Adam training loop, and F1 evaluation.

The synthetic set mirrors the shape of an emotion-recognition corpus:
four one-hot label patterns assigned round-robin, one class template per
modality, plus an interaction component whose class information lives
only in the *product* of per-sample sign channels across the three
modalities.  No single modality (nor any pair) carries that bit, so a
fusion layer that multiplies modality projections has a strict advantage
over unimodal models on the interaction-only variant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import serialize
from .errors import DataError, ShapeError
from .model import EMOTIONS, TOMFNModel
from .serialize import field, numbers


@dataclass
class SynthSpec:
    n_samples: int
    seq_len: int = 4
    noise_std: float = 0.05
    interaction_strength: float = 1.0
    seed: int = 0
    template_scale: float = 1.0  # 0 removes per-modality class signal

    def __post_init__(self):
        if self.n_samples < 4:
            raise DataError("need at least 4 samples (one per emotion)")
        if not 0 <= self.noise_std < math.inf:
            raise DataError(f"noise_std must be a finite number >= 0, got {self.noise_std}")
        for name in ("interaction_strength", "template_scale"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    visual: np.ndarray  # (n, d_v)
    audio: np.ndarray  # (n, d_a)
    text: np.ndarray  # (n, L, d_t)
    labels: np.ndarray  # (n, heads) in {0, 1}

    def __len__(self):
        return self.visual.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.visual[idx], self.audio[idx], self.text[idx], self.labels[idx])

    def sample(self, i) -> dict:
        return {
            "visual": self.visual[i],
            "audio": self.audio[i],
            "text": self.text[i],
            "labels": self.labels[i],
        }


def zero_modalities(ds: Dataset, keep: str) -> Dataset:
    """Copy of `ds` with every modality except `keep` zeroed (ablation input)."""
    if keep not in ("visual", "audio", "text"):
        raise DataError(f"unknown modality '{keep}'")
    return Dataset(
        ds.visual if keep == "visual" else np.zeros_like(ds.visual),
        ds.audio if keep == "audio" else np.zeros_like(ds.audio),
        ds.text if keep == "text" else np.zeros_like(ds.text),
        ds.labels.copy(),
    )


def gen_synthetic(spec: SynthSpec, config: model_mod.ModelConfig | None = None) -> Dataset:
    """Deterministic synthetic multimodal dataset matching `config` dims."""
    cfg = config or model_mod.default_config()
    rng = np.random.default_rng(spec.seed)
    d_v, d_a, d_t = cfg.visual_dims[0], cfg.audio_dims[0], cfg.text.d_model
    n_classes = cfg.heads
    n_bits = max(1, int(np.ceil(np.log2(n_classes))))

    def unit(size):
        v = rng.normal(size=size)
        return v / np.linalg.norm(v)

    templates = {
        "v": np.stack([unit(d_v) for _ in range(n_classes)]),
        "a": np.stack([unit(d_a) for _ in range(n_classes)]),
        "t": np.stack([unit(d_t) for _ in range(n_classes)]),
    }
    directions = {
        "v": np.stack([unit(d_v) for _ in range(n_bits)]),
        "a": np.stack([unit(d_a) for _ in range(n_bits)]),
        "t": np.stack([unit(d_t) for _ in range(n_bits)]),
    }

    n, length = spec.n_samples, spec.seq_len
    classes = np.arange(n) % n_classes
    labels = np.zeros((n, n_classes), dtype=np.int64)
    labels[np.arange(n), classes] = 1

    # Random sign channels; only the three-way product is class-dependent.
    s_v = rng.choice([-1.0, 1.0], size=(n, n_bits))
    s_a = rng.choice([-1.0, 1.0], size=(n, n_bits))
    bits = np.stack([2.0 * ((classes >> b) & 1) - 1.0 for b in range(n_bits)], axis=1)
    s_t = s_v * s_a * bits

    gamma, scale = spec.interaction_strength, spec.template_scale
    visual = scale * templates["v"][classes] + gamma * (s_v @ directions["v"])
    audio = scale * templates["a"][classes] + gamma * (s_a @ directions["a"])
    token = scale * templates["t"][classes] + gamma * (s_t @ directions["t"])
    text = np.repeat(token[:, None, :], length, axis=1)

    if spec.noise_std > 0:
        visual = visual + rng.normal(scale=spec.noise_std, size=visual.shape)
        audio = audio + rng.normal(scale=spec.noise_std, size=audio.shape)
        text = text + rng.normal(scale=spec.noise_std, size=text.shape)
    return Dataset(visual, audio, text, labels)


# --- JSONL dataset files -----------------------------------------------------


def save_jsonl(ds: Dataset, path: str):
    with open(path, "w") as f:
        for i in range(len(ds)):
            rec = {
                "visual": ds.visual[i].tolist(),
                "audio": ds.audio[i].tolist(),
                "text": ds.text[i].tolist(),
                "labels": ds.labels[i].tolist(),
            }
            f.write(serialize.dumps(rec) + "\n")


# Per sample field: how deep its lists nest, and its dtype (labels are 0/1 flags).
_SAMPLE_FIELDS = {"visual": (1, np.float64), "audio": (1, np.float64), "text": (2, np.float64),
                  "labels": (1, np.int64)}


def load_jsonl(path: str) -> Dataset:
    columns = {key: [] for key in _SAMPLE_FIELDS}
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable, or not UTF-8
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: bad sample record ({exc})") from exc
        where = f"{path}:{lineno}: sample"
        for key, (ndim, dtype) in _SAMPLE_FIELDS.items():
            columns[key].append(numbers(field(rec, key, where), f"{where} {key}", ndim, dtype))
    if not columns["visual"]:
        raise DataError(f"{path}: empty dataset")
    try:
        ds = Dataset(*(np.stack(column) for column in columns.values()))
    except ValueError as exc:
        raise DataError(f"{path}: inconsistent sample shapes ({exc})") from exc
    if not set(np.unique(ds.labels)) <= {0, 1}:
        raise DataError(f"{path}: labels must be binary flags")
    return ds


# --- training ------------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class TrainOpts:
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 8
    seed: int = 0
    shuffle: bool = True
    target_accuracy: float | None = None  # early exit once train accuracy reaches this


class Adam:
    def __init__(self, opts: TrainOpts):
        self.opts = opts
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, leaves, grads):
        lr = self.opts.lr
        self.t += 1
        for key, w in leaves:
            g = grads[key]
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(w)
                self.m[key] = m
                self.v[key] = np.zeros_like(w)
            v = self.v[key]
            m += (1 - BETA1) * (g - m)
            v += (1 - BETA2) * (g * g - v)
            m_hat = m / (1 - BETA1**self.t)
            v_hat = v / (1 - BETA2**self.t)
            w -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def _diverged(epoch: int, batch: int, what: str) -> DataError:
    return DataError(f"training diverged in epoch {epoch + 1}, batch {batch + 1}: {what}; "
                     f"scale the data down or lower --lr")


def train_model(model: TOMFNModel, ds: Dataset, opts: TrainOpts | None = None):
    """Train in place; returns (model, per-epoch mean loss history).

    A loss or weight that is not finite stops training with a DataError."""
    if len(ds) == 0:
        raise DataError("cannot train on an empty dataset")
    opts = opts or TrainOpts()
    optimizer = Adam(opts)
    rng = np.random.default_rng(opts.seed)
    history = []
    for epoch in range(opts.epochs):
        order = rng.permutation(len(ds)) if opts.shuffle else np.arange(len(ds))
        losses = []
        for batch, start in enumerate(range(0, len(ds), opts.batch_size)):
            idx = order[start : start + opts.batch_size]
            with np.errstate(all="ignore"):  # divergence is reported once, below, not warned about
                loss, grads = model_mod.loss_and_grad(
                    model, ds.visual[idx], ds.audio[idx], ds.text[idx], ds.labels[idx]
                )
                if not math.isfinite(loss):
                    raise _diverged(epoch, batch, f"the loss is {loss}")
                optimizer.step(list(model.leaves()), grads)
            losses.append(loss)
        if not all(np.isfinite(w).all() for _, w in model.leaves()):
            raise _diverged(epoch, batch, "a weight is not finite")
        history.append(float(np.mean(losses)))
        if opts.target_accuracy is not None:
            if evaluate(model, ds)["accuracy"] >= opts.target_accuracy:
                break
    return model, history


# --- evaluation ------------------------------------------------------------------


def f1_score(tp: int, fp: int, fn: int) -> float:
    """2PR/(P+R) with the convention that an empty precision+recall gives 0."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def probabilities(model: TOMFNModel, ds: Dataset, batch_size: int = 64) -> np.ndarray:
    """Per-head class probabilities for every sample, (n, heads, 2), a batch at a time."""
    return np.concatenate([
        model_mod.forward_batch(model, ds.visual[s : s + batch_size], ds.audio[s : s + batch_size],
                                ds.text[s : s + batch_size])
        for s in range(0, len(ds), batch_size)
    ])


def predictions(model: TOMFNModel, ds: Dataset, batch_size: int = 64) -> np.ndarray:
    return np.argmax(probabilities(model, ds, batch_size), axis=2)


def evaluate(model: TOMFNModel, ds: Dataset) -> dict:
    """Per-emotion F1 and mean binary accuracy over heads and samples."""
    if len(ds) == 0:
        raise DataError("cannot evaluate an empty dataset")
    if ds.labels.shape[1] != model.config.heads:
        raise ShapeError(
            f"dataset has {ds.labels.shape[1]} label flags, model has {model.config.heads} heads"
        )
    pred = predictions(model, ds)
    names = list(EMOTIONS[: model.config.heads])
    if model.config.heads > len(EMOTIONS):
        names += [f"head{j}" for j in range(len(EMOTIONS), model.config.heads)]
    f1 = {}
    for j, name in enumerate(names):
        tp = int(np.sum((pred[:, j] == 1) & (ds.labels[:, j] == 1)))
        fp = int(np.sum((pred[:, j] == 1) & (ds.labels[:, j] == 0)))
        fn = int(np.sum((pred[:, j] == 0) & (ds.labels[:, j] == 1)))
        f1[name] = f1_score(tp, fp, fn)
    return {"f1": f1, "accuracy": float(np.mean(pred == ds.labels))}
