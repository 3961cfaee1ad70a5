"""JSON files: the validators every input goes through, the weights codec, atomic writes.

Every file tomfn reads (config, weights, bundle, JSONL dataset, `--compare`
report) is decoded with the validators here, so one module decides what a
JSON field, list, number, integer or numeric array is: true/false is no
number, 1.0 is no integer, and a number is finite; a failure is a one-line
DataError.  A dense tensor serializes as {"shape": [...], "data": [...]}
(flat, row-major), a TT weight as {"row_modes", "col_modes", "ranks",
"cores": [tensor, ...]}, a weights file as a flat name -> weight map.
Every JSON text tomfn writes comes from `dumps`: compact, keys sorted.
Writes go through a temp file and rename so readers never see partial
output; the file gets the mode the umask allows, as with a plain open().
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from . import tt as tt_mod
from .errors import DataError


def dumps(obj) -> str:
    """One line of strict JSON, keys sorted for stable bytes and no whitespace.

    A NaN or an infinity is a DataError: it would not be JSON, and it means
    the run that computed it failed.

    Only `json.dumps` of a flat layout runs on CPython's C encoder;
    `json.dump` to a file, or a pretty-printed layout, falls back to the
    pure-Python encoder, which is several times slower on a compiled bundle.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise DataError(f"refusing to write a number that is not finite ({exc})") from exc


def dump_json(obj, path: str):
    """Write `dumps(obj)` and a newline atomically (temp file + rename)."""
    text = dumps(obj)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.write("\n")
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


# --- validators ----------------------------------------------------------------

_FLOAT_MAX = float(np.finfo(np.float64).max)


def field(obj, key: str, what: str):
    """Field `key` of a JSON object; a non-object or a missing field is a DataError."""
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{what} must be an object with a '{key}' field")
    return obj[key]


def json_list(value, what: str, length: int | None = None) -> list:
    """A JSON array, of `length` items if given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        got = f"{len(value)} items" if isinstance(value, list) else repr(value)[:40]
        want = "a list" if length is None else f"a list of {length}"
        raise DataError(f"{what} must be {want}, got {got}")
    return value


def number(value, what: str) -> float:
    """A finite JSON number, as float (an integer beyond the float range is not)."""
    if type(value) not in (int, float) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise DataError(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def integer(value, what: str, low: float = -math.inf, high: float = math.inf) -> int:
    """A JSON integer in [low, high]."""
    if type(value) is not int or not low <= value <= high:
        bounds = f" in [{low}, {high}]" if (low, high) != (-math.inf, math.inf) else ""
        raise DataError(f"{what} must be an integer{bounds}, got {value!r:.40}")
    return value


def integers(value, what: str, length: int | None = None, low: float = -math.inf,
             high: float = math.inf) -> list[int]:
    """A JSON array of integers in [low, high]."""
    return [integer(v, f"{what} entry", low, high) for v in json_list(value, what, length)]


def sizes(value, what: str, length: int | None = None, high: float = math.inf) -> list[int]:
    """A non-empty JSON array of integers in [1, high]."""
    values = integers(value, what, length, 1, high)
    if not values:
        raise DataError(f"{what} must not be empty")
    return values


def flag(value, what: str) -> bool:
    if type(value) is not bool:
        raise DataError(f"{what} must be true or false, got {value!r:.40}")
    return value


def string(value, what: str) -> str:
    if type(value) is not str:
        raise DataError(f"{what} must be a string, got {value!r:.40}")
    return value


def numbers(value, what: str, ndim: int = 1, dtype=np.float64) -> np.ndarray:
    """Rectangular JSON arrays nested `ndim` deep, as a `dtype` array, of finite
    numbers, or for an integer dtype of JSON integers within its range."""
    integral = np.issubdtype(dtype, np.integer)
    want = f"{what} must be {ndim}-deep lists of {'integers' if integral else 'finite numbers'}"
    leaves = np.array(value, dtype=object)  # ragged lists stay lists here
    if leaves.ndim != ndim or not set(map(type, leaves.flat)) <= ({int} if integral else {int, float}):
        raise DataError(want)
    try:
        array = leaves.astype(dtype)
    except OverflowError as exc:  # an integer beyond the dtype's range
        raise DataError(f"{want}: {exc}") from exc
    if not np.isfinite(array).all():
        raise DataError(want)
    return array


# --- weights ---------------------------------------------------------------------


def weight_to_obj(w) -> dict:
    if isinstance(w, tt_mod.TTMatrix):
        return {"row_modes": list(w.row_modes), "col_modes": list(w.col_modes),
                "ranks": list(w.ranks), "cores": [weight_to_obj(c) for c in w.cores]}
    return {"shape": list(np.shape(w)), "data": np.ravel(w, order="C").tolist()}


def _tensor_from_obj(obj) -> np.ndarray:
    shape = integers(field(obj, "shape", "tensor"), "tensor 'shape'", low=0)
    data = numbers(field(obj, "data", "tensor"), "tensor 'data'")
    try:
        return data.reshape(shape)
    except ValueError as exc:
        raise DataError(f"tensor 'data' does not fit its shape: {exc}") from exc


def weight_from_obj(obj):
    """A dense (tensor) or TT weight; TT cores that do not chain are a ShapeError."""
    if not isinstance(obj, dict):
        raise DataError(f"a weight must be a tensor or TT object, got {obj!r:.40}")
    if "cores" not in obj:
        return _tensor_from_obj(obj)
    modes_ranks = [sizes(field(obj, key, "TT weight"), f"TT '{key}'")
                   for key in ("row_modes", "col_modes", "ranks")]
    cores = [_tensor_from_obj(c) for c in json_list(obj["cores"], "TT 'cores'")]
    return tt_mod.TTMatrix(*modes_ranks, cores)


def weights_to_obj(weights: dict) -> dict:
    return {name: weight_to_obj(w) for name, w in weights.items()}


def weights_from_obj(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise DataError("weights file must be a JSON object")
    return {name: weight_from_obj(w) for name, w in obj.items()}
