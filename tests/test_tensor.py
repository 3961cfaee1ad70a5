import numpy as np
import pytest

from tomfn import tensor
from tomfn.errors import ShapeError


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2, 3, 4))
    obj = tensor.to_json_obj(t)
    assert obj["shape"] == [2, 3, 4]
    back = tensor.from_json_obj(obj)
    assert np.array_equal(back, t)


def test_json_rejects_nonfinite():
    with pytest.raises(ShapeError):
        tensor.from_json_obj({"shape": [2], "data": [1.0, float("nan")]})
