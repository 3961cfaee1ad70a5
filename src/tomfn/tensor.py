"""Dense tensors: coercion and the JSON encoding.

All values are float64 numpy arrays in row-major (C) order; the flat
row-major layout is also the on-disk layout, so decoding never reorders
data.  Nothing here broadcasts: shape mismatches raise ``ShapeError``
instead of silently expanding.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError


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


def to_json_obj(t: np.ndarray) -> dict:
    """Encode as {"shape": [...], "data": [...]} with row-major data."""
    return {"shape": list(t.shape), "data": np.ravel(t, order="C").tolist()}


def from_json_obj(obj: dict) -> np.ndarray:
    """Decode `to_json_obj`'s encoding; a malformed object is a DataError."""
    shape, data = (obj.get("shape"), obj.get("data")) if isinstance(obj, dict) else (None, None)
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise DataError(f"tensor 'shape' must be a list of integers >= 0, got {shape!r:.40}")
    if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
        raise DataError(f"tensor 'data' must be a flat list of numbers, got {data!r:.40}")
    return as_tensor(data, shape=shape)
