"""Tensor-train compressed multimodal fusion networks, compiled to MZI meshes.

Modules group by concern: `tt` (tensor-train matrices), `autodiff` (the
reverse-mode graph), `model` (the network: config, weights, and its one
forward pass - text attention, low-rank fusion and class heads - with
gradients), `train` (synthetic data + Adam + F1), `photonic` (mesh
decomposition, layer mapping, realizing compiled plans as weights),
`cost` (power/energy/efficiency reports), `serialize` (JSON files: the
validators every input goes through, the array codec, atomic writes),
`cli` (the `tomfn` command).
"""

__version__ = "0.1.0"

from . import autodiff, cost, model, photonic, serialize, train, tt
from .model import ModelConfig, TOMFNModel, build, default_config, forward
from .train import Dataset, SynthSpec, evaluate, gen_synthetic, train_model

__all__ = [
    "__version__",
    "autodiff",
    "cost",
    "model",
    "photonic",
    "serialize",
    "train",
    "tt",
    "ModelConfig",
    "TOMFNModel",
    "build",
    "default_config",
    "forward",
    "Dataset",
    "SynthSpec",
    "evaluate",
    "gen_synthetic",
    "train_model",
]
