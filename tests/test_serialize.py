import json
import os

import numpy as np
import pytest

from tomfn import model as M
from tomfn import serialize as S
from tomfn.errors import DataError


def test_tensor_json_roundtrip():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2, 3, 4))
    obj = S.weight_to_obj(t)
    assert obj["shape"] == [2, 3, 4]
    back = S.weight_from_obj(obj)
    assert np.array_equal(back, t)


def test_tensor_json_rejects_nonfinite():
    with pytest.raises(DataError):
        S.weight_from_obj({"shape": [2], "data": [1.0, float("nan")]})


def test_weights_roundtrip_dense_and_tt(tmp_path):
    cfg = M.ModelConfig(
        visual_dims=[6, 4],
        audio_dims=[6, 4],
        text=M.TextConfig(d_model=6, heads=2, d_head=3, d_out=4, seq_len=2),
        fusion=M.FusionConfig(rank=2, d_h=4),
        heads=2,
        tt=M.TTConfig(visual=True, audio=False, text=False, fusion=True,
                      class_heads=False, max_rank=16, tol=0.0),
        seed=3,
    )
    m = M.build(cfg)
    path = tmp_path / "weights.json"
    S.dump_json(S.weights_to_obj(m.weights), str(path))
    restored = M.TOMFNModel(cfg, S.weights_from_obj(S.load_json(str(path))))
    rng = np.random.default_rng(0)
    sample = {"visual": rng.normal(size=6), "audio": rng.normal(size=6),
              "text": rng.normal(size=(2, 6))}
    assert np.array_equal(M.forward(m, sample), M.forward(restored, sample))


def test_dump_is_stable_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"z": [1.0, 2.5], "a": {"nested": 3}}
    S.dump_json(obj, str(a))
    S.dump_json(obj, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_dump_is_compact_sorted_one_line(tmp_path):
    path = tmp_path / "out.json"
    obj = {"z": [1.0, -2.5e-17, None], "a": {"y": "t\u00e9xt", "b": True}, "m": 3}
    S.dump_json(obj, str(path))
    text = path.read_text()
    assert path.read_bytes() == (json.dumps(obj, sort_keys=True, separators=(",", ":"))
                                 + "\n").encode()
    assert text == S.dumps(obj) + "\n" and text.count("\n") == 1
    assert S.load_json(str(path)) == obj


def test_dump_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.json"
    S.dump_json({"x": 1}, str(path))
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_load_errors():
    with pytest.raises(DataError):
        S.load_json("/no/such/file.json")


def test_weights_file_must_be_object(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(DataError):
        S.weights_from_obj(S.load_json(str(path)))
