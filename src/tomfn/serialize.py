"""JSON file formats: tensors, weights maps, configs, atomic writes.

A dense tensor serializes as {"shape": [...], "data": [...]} (row-major),
a TT weight as {"row_modes": ..., "col_modes": ..., "ranks": ..., "cores":
[tensor, ...]}; a weights file is a flat name -> weight map.  Writes go
through a temp file and rename so readers never see partial output; the
file gets the mode the umask allows, as with a plain open().
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import tensor, tt as tt_mod
from .errors import DataError


def dump_json(obj, path: str):
    """Write JSON atomically (temp file + rename), keys sorted for stable bytes."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, sort_keys=True, indent=1)
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
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


def weight_to_obj(w) -> dict:
    if isinstance(w, tt_mod.TTMatrix):
        return tt_mod.to_json_obj(w)
    return tensor.to_json_obj(np.asarray(w))


def weight_from_obj(obj: dict):
    if not isinstance(obj, dict):
        raise DataError(f"a weight must be a tensor or TT object, got {obj!r:.40}")
    if "cores" in obj:
        return tt_mod.from_json_obj(obj)
    return tensor.from_json_obj(obj)


def weights_to_obj(weights: dict) -> dict:
    return {name: weight_to_obj(w) for name, w in weights.items()}


def weights_from_obj(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise DataError("weights file must be a JSON object")
    return {name: weight_from_obj(w) for name, w in obj.items()}
