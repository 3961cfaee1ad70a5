"""JSON files: the validators every input goes through, the array codec, atomic writes.

Every file tomfn reads (config, weights, bundle, JSONL dataset, `--compare`
report) is decoded with the validators here, so one module decides what a
JSON field, list, number, integer or numeric array is: true/false is no
number, 1.0 is no integer, and a number is finite; a failure is a one-line
DataError.  Every float array tomfn writes (a weight, a TT core, a bundle's
mesh array) is one block {"dtype": "<f8", "shape", "data": base64 of its
bytes} in its in-memory layout: a weights file, a flat name -> weight map,
holds each dense weight and TT core as memory does, and no name is read here.
Every JSON text tomfn writes comes from `dumps`: compact, keys sorted.
Every write, JSON or JSONL, goes through a temp file and rename
(`write_text`) so readers never see partial output; the file gets the
mode the umask allows, as with a plain open().
"""

from __future__ import annotations

import binascii
import json
import math
import os
import tempfile

import numpy as np

from . import tt as tt_mod
from .errors import DataError, ShapeError


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
    """Write `dumps(obj)` and a newline atomically (`write_text`)."""
    write_text(dumps(obj) + "\n", path)


def write_text(text: str, path: str):
    """Write `text` atomically (temp file + rename).

    A path that cannot be written (a missing directory, a directory, no
    permission) is a DataError, and no temp file is left behind.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON, too deep
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


def floats_to_obj(array) -> dict:
    data = binascii.b2a_base64(np.ascontiguousarray(array, "<f8"), newline=False).decode("ascii")
    return {"dtype": "<f8", "shape": list(np.shape(array)), "data": data}


def floats_from_obj(obj, what: str, shape: tuple) -> np.ndarray:
    """The finite float64 array of `shape` that `floats_to_obj` wrote (read-only)."""
    dtype, got = field(obj, "dtype", what), integers(field(obj, "shape", what), f"{what} shape")
    if dtype != "<f8" or got != list(shape):
        raise DataError(f"{what} must be '<f8' of shape {list(shape)}, got {dtype!r:.20} of {got!r:.40}")
    import base64  # here, not at module level: `import tomfn` does not load it
    try:
        array = np.frombuffer(base64.b64decode(field(obj, "data", what), validate=True), "<f8").reshape(shape)
    except (TypeError, ValueError) as exc:  # not a string, not base64, or the wrong length
        raise DataError(f"{what} data must be base64 of {list(shape)} float64 values: {exc}") from exc
    if not np.isfinite(array).all():
        raise DataError(f"{what} must hold finite numbers")
    return array


# --- weights ---------------------------------------------------------------------


def weight_to_obj(w) -> dict:
    if isinstance(w, tt_mod.TTMatrix):
        return {"row_modes": list(w.row_modes), "col_modes": list(w.col_modes),
                "ranks": list(w.ranks), "cores": [floats_to_obj(c) for c in w.cores]}
    return floats_to_obj(w)


def _array_from_obj(obj, what: str) -> np.ndarray:
    """The block of the `shape` it gives, as a writeable copy: Adam steps weights in place."""
    if isinstance(field(obj, "data", what), list):
        raise DataError(f"{what} data is a list, the retired file form: write the file again with `tomfn train`")
    shape = integers(field(obj, "shape", what), f"{what} shape", low=0)
    return floats_from_obj(obj, what, tuple(shape)).copy()


def weight_from_obj(obj, what: str):
    """A dense (block) or TT weight; TT cores that do not chain are a ShapeError."""
    if not isinstance(obj, dict) or "cores" not in obj:
        return _array_from_obj(obj, what)
    modes_ranks = [sizes(field(obj, key, what), f"{what} '{key}'")
                   for key in ("row_modes", "col_modes", "ranks")]
    cores = [_array_from_obj(c, f"{what} core {k}")
             for k, c in enumerate(json_list(obj["cores"], f"{what} 'cores'"))]
    try:
        return tt_mod.TTMatrix(*modes_ranks, cores)
    except ShapeError as exc:
        raise ShapeError(f"{what}: {exc}") from exc


def weights_to_obj(weights: dict) -> dict:
    return {name: weight_to_obj(w) for name, w in weights.items()}


def weights_from_obj(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise DataError("weights file must be a JSON object")
    return {name: weight_from_obj(w, f"weight {name!r}") for name, w in obj.items()}
