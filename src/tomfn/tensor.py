"""Dense tensor kernels shared by every other module.

All values are float64 numpy arrays in row-major (C) order; the flat
row-major layout is also the on-disk layout, so ``reshape`` never moves
data.  Nothing here broadcasts: shape mismatches raise ``ShapeError``
instead of silently expanding.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def as_tensor(data, shape=None) -> np.ndarray:
    """Coerce nested lists / arrays to a float64 C-order array.

    Rejects non-finite entries; optionally reshapes flat data to `shape`.
    """
    t = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ShapeError("tensor contains non-finite entries")
    if shape is not None:
        if t.size != int(np.prod(shape)):
            raise ShapeError(f"cannot view {t.size} elements as shape {list(shape)}")
        t = t.reshape(shape)
    return np.ascontiguousarray(t)


def reshape(t: np.ndarray, new_shape) -> np.ndarray:
    """Relabel `t` with `new_shape`; element count must be preserved."""
    new_shape = tuple(int(d) for d in new_shape)
    if any(d < 1 for d in new_shape):
        raise ShapeError(f"shape entries must be >= 1, got {list(new_shape)}")
    if t.size != int(np.prod(new_shape)):
        raise ShapeError(f"cannot reshape {t.size} elements to {list(new_shape)}")
    return t.reshape(new_shape)


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax applied independently to each row of a matrix."""
    if m.ndim != 2:
        raise ShapeError("row_softmax takes a 2-way tensor")
    e = np.exp(m - np.max(m, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(v, 0.0)


def to_json_obj(t: np.ndarray) -> dict:
    """Encode as {"shape": [...], "data": [...]} with row-major data."""
    return {"shape": list(t.shape), "data": np.ravel(t, order="C").tolist()}


def from_json_obj(obj: dict) -> np.ndarray:
    """Decode the {"shape","data"} encoding produced by `to_json_obj`."""
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise ShapeError("tensor object must carry 'shape' and 'data'")
    return as_tensor(obj["data"], shape=obj["shape"])
