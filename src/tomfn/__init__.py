"""Tensor-train compressed multimodal fusion networks, compiled to MZI meshes.

Modules group by concern: `tensor` (dense tensors and their JSON form),
`tt` (tensor-train matrices), `autodiff` (the reverse-mode graph),
`model` (the network: config, weights, and its one forward pass - text
attention, low-rank fusion and class heads - with gradients), `train`
(synthetic data + Adam + F1), `photonic` (mesh decomposition, layer
mapping, realizing compiled plans as weights), `cost`
(power/energy/efficiency reports), `serialize` (JSON files), `cli` (the
`tomfn` command).
"""

__version__ = "0.1.0"

from . import autodiff, cost, model, photonic, serialize, tensor, train, tt
from .model import ModelConfig, TOMFNModel, build, default_config, forward
from .train import Dataset, SynthSpec, evaluate, gen_synthetic, train_model

__all__ = [
    "__version__",
    "autodiff",
    "cost",
    "model",
    "photonic",
    "serialize",
    "tensor",
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
