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
from .errors import DataError
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
        if self.seq_len < 1:
            raise DataError(f"seq_len must be >= 1, got {self.seq_len}")
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
        return Dataset(**{key: column[idx] for key, column in vars(self).items()})

    def sample(self, i) -> dict:
        return {key: column[i] for key, column in vars(self).items()}


def zero_modalities(ds: Dataset, keep: str) -> Dataset:
    """Copy of `ds` with every modality except `keep` zeroed (ablation input)."""
    if keep == "labels" or keep not in vars(ds):
        raise DataError(f"unknown modality '{keep}'")
    zeroed = {key: np.zeros_like(column) for key, column in vars(ds).items() if key not in (keep, "labels")}
    return Dataset(**{**vars(ds), **zeroed, "labels": ds.labels.copy()})


def gen_synthetic(spec: SynthSpec, config: model_mod.ModelConfig) -> Dataset:
    """Deterministic synthetic multimodal dataset matching `config` dims."""
    rng = np.random.default_rng(spec.seed)
    dims = {"visual": config.visual_dims[0], "audio": config.audio_dims[0], "text": config.text.d_model}
    n_classes = config.heads
    n_bits = max(1, int(np.ceil(np.log2(n_classes))))

    def unit(size):
        v = rng.normal(size=size)
        return v / np.linalg.norm(v)

    templates = {key: np.stack([unit(d) for _ in range(n_classes)]) for key, d in dims.items()}
    directions = {key: np.stack([unit(d) for _ in range(n_bits)]) for key, d in dims.items()}

    n, length = spec.n_samples, spec.seq_len
    classes = np.arange(n) % n_classes
    labels = np.zeros((n, n_classes), dtype=np.int64)
    labels[np.arange(n), classes] = 1

    # Random sign channels; only the three-way product is class-dependent.
    signs = {key: rng.choice([-1.0, 1.0], size=(n, n_bits)) for key in ("visual", "audio")}
    bits = np.stack([2.0 * ((classes >> b) & 1) - 1.0 for b in range(n_bits)], axis=1)
    signs["text"] = signs["visual"] * signs["audio"] * bits

    gamma, scale = spec.interaction_strength, spec.template_scale
    features = {key: scale * templates[key][classes] + gamma * (signs[key] @ directions[key]) for key in dims}
    features["text"] = np.repeat(features["text"][:, None, :], length, axis=1)

    if spec.noise_std > 0:
        for f in features.values():
            f += rng.normal(scale=spec.noise_std, size=f.shape)
    return Dataset(**features, labels=labels)


# --- JSONL dataset files -----------------------------------------------------


def save_jsonl(ds: Dataset, path: str):
    """One `dumps` line per sample, written atomically (`serialize.write_text`)."""
    lines = (serialize.dumps({key: column.tolist() for key, column in ds.sample(i).items()}) + "\n"
             for i in range(len(ds)))
    serialize.write_text("".join(lines), path)


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
        except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, or nested too deep
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
    """Adam (Kingma & Ba, ICLR 2015), updated in place.

    `step` writes `m`, `v` and each weight through `out=` with two scratch
    arrays per leaf, in the textbook's order of operations, so results are
    bit-identical to the out-of-place form.  It never writes into a gradient:
    gradients may alias (`add` hands one array to both parents) or be views
    (`reshape`)."""

    def __init__(self, opts: TrainOpts):
        self.opts = opts
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, leaves, grads):
        lr = self.opts.lr
        self.t += 1
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t  # bias corrections
        for key, w in leaves:
            g = grads[key]
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(w)
                self.m[key] = m
                self.v[key] = np.zeros_like(w)
            v = self.v[key]
            s = np.subtract(g, m)
            s *= 1 - BETA1
            m += s
            np.multiply(g, g, out=s)
            s -= v
            s *= 1 - BETA2
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            update = np.divide(m, c1)
            update *= lr
            update /= s
            w -= update


def _diverged(epoch: int, batch: int, what: str) -> DataError:
    return DataError(f"training diverged in epoch {epoch + 1}, batch {batch + 1}: {what}; "
                     f"scale the data down or lower --lr")


def train_model(model: TOMFNModel, ds: Dataset, opts: TrainOpts):
    """Train in place; returns (model, per-epoch mean loss history).

    A loss or weight that is not finite stops training with a DataError."""
    if len(ds) == 0:
        raise DataError("cannot train on an empty dataset")
    optimizer = Adam(opts)
    rng = np.random.default_rng(opts.seed)
    history = []
    for epoch in range(opts.epochs):
        order = rng.permutation(len(ds)) if opts.shuffle else None
        losses = []
        for batch, start in enumerate(range(0, len(ds), opts.batch_size)):
            stop = start + opts.batch_size  # unshuffled, a batch is a view of the dataset
            idx = order[start:stop] if opts.shuffle else slice(start, stop)
            with np.errstate(all="ignore"):  # divergence is reported once, below, not warned about
                # The Dataset fields, in order, are loss_and_grad's batch arguments.
                loss, grads = model_mod.loss_and_grad(model, *vars(ds.subset(idx)).values())
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


EVAL_BATCH = 64  # samples per forward pass in `probabilities`


def f1_score(tp: int, fp: int, fn: int) -> float:
    """2PR/(P+R) with the convention that an empty precision+recall gives 0."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def probabilities(model: TOMFNModel, ds: Dataset) -> np.ndarray:
    """Per-head class probabilities for every sample, (n, heads, 2), a batch at a time.

    Outputs that are not finite raise a DataError instead of a warning."""
    with np.errstate(all="ignore"):  # an overflow is reported once, below
        probs = np.concatenate([
            model_mod.forward_batch(model, ds.visual[s : s + EVAL_BATCH],
                                    ds.audio[s : s + EVAL_BATCH], ds.text[s : s + EVAL_BATCH])
            for s in range(0, len(ds), EVAL_BATCH)
        ])
    if not np.isfinite(probs).all():
        raise DataError("the model's outputs are not finite: its weights or inputs are on "
                        "too large a scale")
    return probs


def evaluate(model: TOMFNModel, ds: Dataset) -> dict:
    """Per-emotion F1 and mean binary accuracy over heads and samples."""
    if len(ds) == 0:
        raise DataError("cannot evaluate an empty dataset")
    model_mod.check_batch(model.config, ds.visual, ds.audio, ds.text, ds.labels)
    pred = np.argmax(probabilities(model, ds), axis=2)
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
