"""Tensor-train compressed multimodal fusion networks, compiled to MZI meshes.

Modules group by concern: `tensor` (dense kernels), `tt` (tensor-train
matrices), `fusion` (low-rank multimodal fusion), `attention` (text
encoder), `model` (the assembled network and its gradients), `train`
(synthetic data + Adam + F1), `photonic` (mesh decomposition, layer
mapping, realizing compiled plans as weights), `cost`
(power/energy/efficiency reports), `cli` (the `tomfn` command).
"""

__version__ = "0.1.0"

from . import attention, autodiff, cost, fusion, model, photonic, serialize, tensor, train, tt
from .model import ModelConfig, TOMFNModel, build, default_config, forward
from .train import Dataset, SynthSpec, evaluate, gen_synthetic, train_model

__all__ = [
    "__version__",
    "attention",
    "autodiff",
    "cost",
    "fusion",
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
