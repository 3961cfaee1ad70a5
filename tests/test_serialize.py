import base64
import json
import math
import os

import numpy as np
import pytest

from tomfn import model as M
from tomfn import serialize as S
from tomfn import train as T
from tomfn import tt as tt_mod
from tomfn.errors import DataError


def test_tensor_json_roundtrip():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2, 3, 4))
    obj = S.weight_to_obj(t)
    assert obj["shape"] == [2, 3, 4] and obj["dtype"] == "<f8"
    back = S.weight_from_obj(obj, "weight 't'")
    assert np.array_equal(back, t)


def test_tensor_json_rejects_nonfinite():
    obj = S.weight_to_obj(np.array([1.0, np.nan]))  # the base64 of a NaN
    with pytest.raises(DataError, match="^weight 't' must hold finite numbers$"):
        S.weight_from_obj(obj, "weight 't'")


TT_AND_DENSE = M.ModelConfig(
    visual_dims=[6, 4],
    audio_dims=[6, 4],
    text=M.TextConfig(d_model=6, heads=2, d_head=3, d_out=4, seq_len=2),
    fusion=M.FusionConfig(rank=2, d_h=4),
    heads=2,
    tt=M.TTConfig(visual=True, audio=False, text=False, fusion=True,
                  class_heads=False, max_rank=16, tol=0.0),
    seed=3,
)


def test_weights_roundtrip_dense_and_tt(tmp_path):
    m = M.build(TT_AND_DENSE)
    path = tmp_path / "weights.json"
    S.dump_json(S.weights_to_obj(m.weights), str(path))
    restored = M.TOMFNModel(TT_AND_DENSE, S.weights_from_obj(S.load_json(str(path))))
    rng = np.random.default_rng(0)
    sample = {"visual": rng.normal(size=6), "audio": rng.normal(size=6),
              "text": rng.normal(size=(2, 6))}
    assert np.array_equal(M.forward(m, sample), M.forward(restored, sample))


def test_weights_read_back_bit_for_bit(tmp_path):
    weights = M.build(TT_AND_DENSE).weights
    path = tmp_path / "weights.json"
    S.dump_json(S.weights_to_obj(weights), str(path))
    loaded = S.weights_from_obj(S.load_json(str(path)))
    assert loaded.keys() == weights.keys()
    assert {type(w) for w in loaded.values()} == {np.ndarray, tt_mod.TTMatrix}
    for name, w in weights.items():
        got = getattr(loaded[name], "cores", [loaded[name]])
        want = getattr(w, "cores", [w])
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def test_model_read_from_a_weights_file_trains(tmp_path):
    # Adam steps every weight in place, so the reader must hand back writeable arrays.
    path = tmp_path / "weights.json"
    S.dump_json(S.weights_to_obj(M.build(TT_AND_DENSE).weights), str(path))
    model = M.TOMFNModel(TT_AND_DENSE, S.weights_from_obj(S.load_json(str(path))))
    before = {key: w.copy() for key, w in model.leaves()}
    ds = T.gen_synthetic(T.SynthSpec(n_samples=8, seq_len=2, seed=1), TT_AND_DENSE)
    _, history = T.train_model(model, ds, T.TrainOpts(epochs=1, lr=1e-2, batch_size=4))
    assert len(history) == 1 and np.isfinite(history[0])
    assert all(not np.array_equal(w, before[key]) for key, w in model.leaves())


def test_weights_file_stores_text_and_head_weights_out_in(tmp_path):
    # With one head the text projections are square, so only an asymmetric
    # matrix tells the (out, in) operator from its transpose.
    cfg = M.ModelConfig(
        visual_dims=[3, 2], audio_dims=[3, 2],
        text=M.TextConfig(d_model=3, heads=1, d_head=3, d_out=2, seq_len=2),
        fusion=M.FusionConfig(rank=1, d_h=2), heads=1,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
    )
    weights = M.build(cfg).weights
    operator = np.arange(9.0).reshape(3, 3)  # (out, in), asymmetric
    weights["text.head0.q"] = operator
    obj = S.weights_to_obj(weights)
    stored = obj["text.head0.q"]
    assert stored["shape"] == [3, 3]
    assert base64.b64decode(stored["data"]) == operator.astype("<f8").tobytes(order="C")
    assert obj["text.ff"]["shape"] == [2, 3]  # (d_out, heads * d_head), as block_dims lists it
    path = tmp_path / "w.json"
    S.dump_json(obj, str(path))
    loaded = S.weights_from_obj(S.load_json(str(path)))
    assert np.array_equal(loaded["text.head0.q"], operator)
    again = tmp_path / "again.json"
    S.dump_json(S.weights_to_obj(loaded), str(again))
    assert again.read_bytes() == path.read_bytes()


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_dumps_refuses_non_finite(tmp_path, value):
    with pytest.raises(DataError, match="not finite"):
        S.dumps({"loss_history": [0.5, value]})
    with pytest.raises(DataError, match="not finite"):
        S.dump_json([value], str(tmp_path / "out.json"))
    assert os.listdir(tmp_path) == []


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
