import json
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

from tomfn import cli
from tomfn import model as M
from tomfn import photonic
from tomfn import serialize
from tomfn import train as T
from tomfn import tt as tt_mod
from tomfn.serialize import dump_json, load_json

TINY = {
    "visual_dims": [8, 4],
    "audio_dims": [6, 4],
    "text": {"d_model": 8, "heads": 2, "d_head": 4, "d_out": 4, "seq_len": 3, "pooling": "mean"},
    "fusion": {"r": 2, "d_h": 4},
    "heads": 4,
    "tt": {"visual": False, "audio": False, "text": False, "fusion": False,
           "class_heads": False, "max_rank": 16, "tol": 0.0, "max_factor": 8},
    "seed": 1,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    dump_json(TINY, str(path))
    return str(path)


def run(argv):
    return cli.main(argv)


def strip_timestamp(doc):
    doc = json.loads(json.dumps(doc))
    doc["manifest"].pop("timestamp")
    return doc


# --- describe ----------------------------------------------------------------


def test_describe_energy_and_efficiency(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["describe", "--power-override", "79.87", "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["energy_per_inference_j"] == pytest.approx(7.987e-9, rel=1e-9)
    assert doc["macs"]["subnet_weights_only"] == 297_008
    assert doc["mac_per_j"] == pytest.approx(3.72e13, rel=0.01)
    assert doc["references"]["kind"] == "external_reference"
    table = capsys.readouterr().out
    assert "7.987 nJ" in table
    assert "# MZI" in table and "# stage" in table


def test_describe_compare_published_rows(tmp_path, capsys):
    rows = tmp_path / "rows.json"
    dump_json({"reference": {"params": 106_912, "mzis": 86_802},
               "candidate": {"params": 1_152, "mzis": 1_691}}, str(rows))
    out = tmp_path / "report.json"
    assert run(["describe", "--power-override", "79.87", "--compare", str(rows),
                "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["comparison"]["param_ratio_text"] == "92.8x"
    assert doc["comparison"]["mzi_ratio_text"] == "51.3x"
    table = capsys.readouterr().out
    assert "92.8x" in table and "51.3x" in table


def test_describe_compare_against_computed_model(tmp_path, tiny_config):
    ref = tmp_path / "ref.json"
    dump_json({"params": 1000, "mzis": 5000}, str(ref))
    out = tmp_path / "r.json"
    assert run(["describe", "--config", tiny_config, "--compare", str(ref),
                "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["comparison"]["param_ratio"] == pytest.approx(1000 / doc["params"])


@pytest.mark.parametrize("flags", [
    ["--freq", "0"], ["--freq", "-1"], ["--freq", "nan"], ["--freq", "inf"],
    ["--power-override", "0"], ["--power-override", "-3"], ["--power-override", "nan"],
    ["--power-override", "inf"],
], ids=["freq_0", "freq_negative", "freq_nan", "freq_inf", "power_0", "power_negative",
        "power_nan", "power_inf"])
def test_describe_bad_numeric_args_exit_2(tmp_path, tiny_config, capsys, flags):
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["describe", "--config", tiny_config, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn describe: ") and flags[0] in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    [1, 2], {"mzis": 5000}, {"params": "x", "mzis": 5000}, {"params": True, "mzis": 5000},
    {"params": 0, "mzis": 5000}, {"params": 10**400, "mzis": 5000},
    {"reference": {"params": 10, "mzis": 10}, "candidate": {"params": 5}},
    {"reference": {"params": 1e308, "mzis": 10}, "candidate": {"params": 1e-10, "mzis": 5}},
], ids=["a_list", "no_params", "params_a_string", "params_true", "params_0", "params_huge",
        "candidate_without_mzis", "ratio_overflows"])
def test_describe_bad_compare_file_exits_3(tmp_path, tiny_config, capsys, doc):
    ref = tmp_path / "ref.json"
    dump_json(doc, str(ref))
    capsys.readouterr()
    assert run(["describe", "--config", tiny_config, "--compare", str(ref)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tomfn describe: --compare: ") and err.count("\n") == 1


def test_describe_missing_config_exits_2(capsys):
    assert run(["describe", "--config", "/does/not/exist.json"]) == 2


def test_describe_malformed_config_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"visual_dims": "oops"}')
    assert run(["describe", "--config", str(bad)]) == 2
    assert "visual_dims" in capsys.readouterr().err


def test_describe_deterministic_apart_from_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["describe", "--power-override", "79.87", "--out", str(a)])
    run(["describe", "--power-override", "79.87", "--out", str(b)])
    assert strip_timestamp(load_json(str(a))) == strip_timestamp(load_json(str(b)))


def test_describe_stdout_is_the_out_text(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["describe", "--power-override", "79.87", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["describe", "--power-override", "79.87"]) == 0
    printed = capsys.readouterr().out
    line, table = printed.split("\n", 1)
    assert "Efficiency" in table
    text = out.read_text()
    stamps = [json.loads(t)["manifest"]["timestamp"] for t in (line, text)]
    assert line.replace(stamps[0], "T") + "\n" == text.replace(stamps[1], "T")


def test_describe_counts_without_decomposing(tmp_path, monkeypatch):
    from tomfn import photonic

    def refuse(*args, **kwargs):
        raise AssertionError("describe must count from shapes, not decompose meshes")

    monkeypatch.setattr(photonic, "givens_decompose", refuse)
    monkeypatch.setattr(photonic, "svd_map", refuse)
    out = tmp_path / "report.json"
    assert run(["describe", "--power-override", "79.87", "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert (doc["mzis"], doc["stages"], doc["wdm_channels"]) == (40_044, 128, 8)
    assert doc["macs"]["subnet_weights_only"] == 297_008
    assert doc["energy_per_inference_j"] == pytest.approx(7.987e-9, rel=1e-9)


def test_describe_all_dense_default_exits_2(tmp_path, capsys):
    cfg = M.default_config().to_dict()
    cfg["tt"].update(visual=False, audio=False, text=False, fusion=False, class_heads=False)
    path = tmp_path / "dense.json"
    dump_json(cfg, str(path))
    capsys.readouterr()
    assert run(["describe", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn describe: ") and "cap" in err and err.count("\n") == 1


@pytest.mark.parametrize("max_factor", [1, 0])
def test_describe_max_factor_below_2_exits_2(tmp_path, capsys, max_factor):
    # No dimension above 1 factors into primes <= 1, so padding would never end.
    cfg = json.loads(json.dumps(TINY))
    cfg["tt"].update(visual=True, max_factor=max_factor)
    path = tmp_path / "cfg.json"
    dump_json(cfg, str(path))
    capsys.readouterr()
    assert run(["describe", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn describe: config: ") and "max_factor" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("section, key, value", [
    ("tt", "max_factor", "x"), ("fusion", "r", 1.5), ("tt", "max_rank", None),
    (None, "heads", True), (None, "visual_dims", [80.7, 32]), ("tt", "tol", 10**400),
], ids=["max_factor_str", "r_float", "max_rank_null", "heads_bool", "visual_dims_floats",
        "tol_huge_integer"])
def test_describe_wrong_json_type_exits_2(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(TINY))
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "cfg.json"
    dump_json(cfg, str(path))
    capsys.readouterr()
    assert run(["describe", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn describe: config: ") and key in err
    assert err.count("\n") == 1


# Per leaf field of TINY: its type (int unless listed), wrong-typed JSON
# values per type, and out-of-range values.
KIND = {"visual_dims": "list[int]", "audio_dims": "list[int]", "text.pooling": "str",
        "tt.tol": "float",
        **{f"tt.{flag}": "bool" for flag in ("visual", "audio", "text", "fusion", "class_heads")}}
WRONG_TYPE = {
    "int": ["x", 1.5, None, True, [1], {"n": 1}],
    "float": ["0", None, True, [0.0]],
    "bool": [1, 0, "true", None],
    "str": [1, None, ["mean"]],
    "list[int]": ["oops", 5, None, [8.5, 4], [True, 4], [[8], 4], {"0": 8}],
}
OUT_OF_RANGE = {
    "visual_dims": [[8], [0, 4], [8, -4]], "audio_dims": [[], [6, 0]],
    "text.d_model": [0, -8], "text.heads": [0, -2], "text.d_head": [0, -4],
    "text.d_out": [0, -1], "text.seq_len": [0, -3], "text.pooling": ["max", ""],
    "fusion.r": [0, -1], "fusion.d_h": [0], "heads": [0, -4], "seed": [-1],
    "tt.max_rank": [0, -1], "tt.tol": [-0.5, float("nan"), float("inf")],
    "tt.max_factor": [1, 0, -8],
}


def test_describe_config_fuzz_exits_2(tmp_path, capsys):
    fields = sorted(set(OUT_OF_RANGE) | set(KIND))
    rng = np.random.default_rng(2468)
    path = tmp_path / "cfg.json"
    for _ in range(60):
        name = fields[rng.integers(len(fields))]
        pool = WRONG_TYPE[KIND.get(name, "int")] + OUT_OF_RANGE.get(name, [])
        value = pool[rng.integers(len(pool))]
        cfg = json.loads(json.dumps(TINY))
        *section, key = name.split(".")
        (cfg[section[0]] if section else cfg)[key] = value
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(["describe", "--config", str(path)]) == 2, (name, value)
        err = capsys.readouterr().err
        assert err.startswith("tomfn describe: config: ") and err.count("\n") == 1, (name, value)
        assert "Traceback" not in err


# --- train / eval ---------------------------------------------------------------


def test_train_writes_weights_and_metrics(tmp_path, tiny_config):
    weights = tmp_path / "w.json"
    metrics = tmp_path / "m.json"
    code = run(["train", "--config", tiny_config,
                "--synthetic", "n=24,L=3,sigma=0.05,gamma=1,seed=1",
                "--epochs", "5", "--out", str(weights), "--metrics-out", str(metrics)])
    assert code == 0
    w = load_json(str(weights))
    assert "visual.fc0" in w and "fusion.t.1" in w
    m = load_json(str(metrics))
    assert set(m["f1"]) == {"happy", "sad", "angry", "neutral"}
    assert len(m["loss_history"]) == 5


def test_train_zero_epochs_keeps_initialization(tmp_path, tiny_config):
    weights = tmp_path / "w.json"
    run(["train", "--config", tiny_config, "--synthetic", "n=8,L=3,seed=1",
         "--epochs", "0", "--out", str(weights)])
    stored = load_json(str(weights))
    init = M.build(M.ModelConfig.from_dict(TINY))
    for name, w in init.weights.items():
        assert np.allclose(stored[name]["data"], np.ravel(w), atol=0)


@pytest.mark.parametrize("flags, env", [
    (["--seed", "-1"], None), ([], "-3"), (["--batch", "0"], None), (["--batch", "-3"], None),
    (["--lr", "nan"], None), (["--lr", "inf"], None), (["--lr", "0"], None),
    (["--lr", "-0.01"], None), (["--epochs", "-1"], None), (["--target-acc", "nan"], None),
    (["--target-acc", "1.5"], None), (["--target-acc", "-0.1"], None),
], ids=["seed_negative", "env_seed_negative", "batch_0", "batch_negative", "lr_nan", "lr_inf",
        "lr_0", "lr_negative", "epochs_negative", "target_acc_nan", "target_acc_above_1",
        "target_acc_negative"])
def test_train_bad_args_exit_2(tmp_path, tiny_config, capsys, monkeypatch, flags, env):
    if env is not None:
        monkeypatch.setenv("TOMFN_SEED", env)
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", "n=8,L=3", "--epochs", "1",
                "--metrics-out", str(metrics), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn train: ") and err.count("\n") == 1
    assert "Traceback" not in err and not metrics.exists()


@pytest.mark.parametrize("spec", [
    "seed=-1", "sigma=nan", "sigma=inf", "gamma=inf", "gamma=nan", "scale=nan", "scale=-inf",
])
def test_train_bad_synthetic_values_exit_3(tmp_path, tiny_config, capsys, spec):
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", f"n=8,L=3,{spec}",
                "--epochs", "1", "--metrics-out", str(metrics)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tomfn train: --synthetic: ") and err.count("\n") == 1
    assert not metrics.exists()


@pytest.mark.parametrize("command, flag, code", [
    ("describe", "--config", 2), ("train", "--data", 3),
])
@pytest.mark.parametrize("kind", ["a_directory", "not_utf8"])
def test_unreadable_input_file_exits_with_its_code(tmp_path, tiny_config, capsys, command, flag,
                                                   code, kind):
    path = tmp_path / "input"
    if kind == "a_directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    argv = [command, flag, str(path)] + (["--config", tiny_config] if command == "train" else [])
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: ") and err.count("\n") == 1


@pytest.mark.parametrize("synthetic, flags", [
    ("n=8,L=3,gamma=1e200", ["--epochs", "1"]),
    ("n=8,L=3", ["--epochs", "3", "--lr", "1e300"]),
    ("n=8,L=3,gamma=1e80,scale=1e80", ["--epochs", "1"]),  # finite loss, NaN weights
], ids=["loss_overflows", "lr_overflows", "weights_overflow"])
def test_train_diverging_exits_3(tmp_path, tiny_config, capsys, synthetic, flags):
    weights = tmp_path / "w.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", synthetic, *flags,
                "--out", str(weights)]) == 3
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("tomfn train: data: training diverged in epoch ") and err.count("\n") == 1
    assert "--lr" in err and "Traceback" not in err and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_train_missing_data_exits_3(tiny_config):
    assert run(["train", "--config", tiny_config, "--data", "/missing.jsonl"]) == 3


def test_train_synthetic_seq_len_mismatch_exits_3(tiny_config):
    assert run(["train", "--config", tiny_config, "--synthetic", "n=8,L=7"]) == 3


def test_eval_roundtrip(tmp_path, tiny_config):
    weights = tmp_path / "w.json"
    run(["train", "--config", tiny_config, "--synthetic", "n=16,L=3,seed=2",
         "--epochs", "3", "--out", str(weights)])
    out = tmp_path / "metrics.json"
    assert run(["eval", "--config", tiny_config, "--weights", str(weights),
                "--synthetic", "n=16,L=3,seed=2", "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_eval_weights_mismatch_exits_4(tmp_path, tiny_config):
    weights = tmp_path / "w.json"
    dump_json({"visual.fc0": {"shape": [2, 2], "data": [1, 0, 0, 1]}}, str(weights))
    assert run(["eval", "--config", tiny_config, "--weights", str(weights),
                "--synthetic", "n=8,L=3"]) == 4


# --- compile / simulate -----------------------------------------------------------


def make_trained(tmp_path, tiny_config, seed="3"):
    weights = tmp_path / "w.json"
    run(["train", "--config", tiny_config, "--synthetic", f"n=8,L=3,seed={seed}",
         "--epochs", "1", "--out", str(weights)])
    return str(weights)


def test_compile_bundle_summary(tmp_path, tiny_config, capsys):
    weights = make_trained(tmp_path, tiny_config)
    bundle = tmp_path / "bundle.json"
    assert run(["compile", "--config", tiny_config, "--weights", weights,
                "--out", str(bundle)]) == 0
    doc = load_json(str(bundle))
    assert doc["summary"]["wdm_channels"] == 1
    assert doc["summary"]["mzis"] > 0
    assert "plans" in doc and "visual.fc0" in doc["plans"]


def test_compile_default_bundle_is_compact_and_exact(tmp_path):
    out = tmp_path / "bundle.json"
    assert run(["compile", "--out", str(out)]) == 0
    assert out.stat().st_size <= 2_000_000
    from_file = photonic.realize(photonic.bundle_from_obj(load_json(str(out))))
    in_process = photonic.realize(photonic.compile_model(M.build(M.default_config())))
    assert sorted(from_file.weights) == sorted(in_process.weights)
    for name, w in in_process.weights.items():
        got = from_file.weights[name]
        for a, b in zip(getattr(got, "cores", [got]), getattr(w, "cores", [w])):
            assert np.array_equal(a, b), name


def test_compile_out_follows_umask(tmp_path, tiny_config):
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / f"bundle_{mode:o}.json"
        previous = os.umask(umask)
        try:
            assert run(["compile", "--config", tiny_config, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode


def test_compile_oversized_dense_exits_4(tmp_path, capsys):
    cfg = dict(TINY)
    cfg["visual_dims"] = [16, 4]  # dense 4x16 exceeds the 8-cap
    path = tmp_path / "big.json"
    dump_json(cfg, str(path))
    assert run(["compile", "--config", str(path)]) == 4
    assert "cap" in capsys.readouterr().err


def test_compile_weights_mismatch_exits_4(tmp_path, tiny_config):
    weights = tmp_path / "wrong.json"
    dump_json({"visual.fc0": {"shape": [4, 8], "data": [0.0] * 32}}, str(weights))
    assert run(["compile", "--config", tiny_config, "--weights", str(weights)]) == 4


@pytest.mark.parametrize("command", ["eval", "compile"])
@pytest.mark.parametrize("defect", [
    "tt_ranks_missing", "tt_ranks_a_string", "weight_a_number", "data_a_string",
    "data_huge_integer", "data_nested",
])
def test_malformed_weights_exit_4(tmp_path, tiny_config, capsys, command, defect):
    weights = make_trained(tmp_path, tiny_config)
    doc = load_json(weights)
    fc0 = doc["visual.fc0"]  # dense 4x8
    tt_obj = serialize.weight_to_obj(tt_mod.tt_from_dense(
        np.reshape(fc0["data"], fc0["shape"]), [2, 2], [2, 4], max_rank=4, tol=0.0))
    if defect == "tt_ranks_missing":
        del tt_obj["ranks"]
        doc["visual.fc0"] = tt_obj
    elif defect == "tt_ranks_a_string":
        tt_obj["ranks"] = "x"
        doc["visual.fc0"] = tt_obj
    elif defect == "weight_a_number":
        doc["visual.fc0"] = 5
    elif defect == "data_huge_integer":
        fc0["data"][3] = 10**400  # no float holds it
    elif defect == "data_nested":
        fc0["data"] = np.reshape(fc0["data"], fc0["shape"]).tolist()  # data stays flat
    else:
        fc0["data"] = "abc"
    dump_json(doc, weights)
    argv = [command, "--config", tiny_config, "--weights", weights]
    if command == "eval":
        argv += ["--synthetic", "n=8,L=3"]
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: weights: ") and err.count("\n") == 1


def test_simulate_noiseless_bitexact_and_matches_forward(tmp_path, tiny_config):
    weights = make_trained(tmp_path, tiny_config)
    bundle = tmp_path / "bundle.json"
    run(["compile", "--config", tiny_config, "--weights", weights, "--out", str(bundle)])

    cfg = M.ModelConfig.from_dict(TINY)
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=11), cfg)
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))

    out = tmp_path / "sim.json"
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data),
                "--trials", "2", "--phase-sigma", "0", "--bits", "0",
                "--seed", "0", "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["max_abs_error"] == 0.0  # no noise: perturbed == ideal bit-for-bit

    # Ideal optical outputs match the in-memory forward pass.
    model = cli._load_weights_into(cfg, weights)
    for i, ideal in enumerate(doc["ideal"]):
        expect = M.forward(model, ds.sample(i))
        assert np.max(np.abs(np.asarray(ideal) - expect)) < 1e-8


def test_simulate_reports_noise_stats(tmp_path, tiny_config):
    weights = make_trained(tmp_path, tiny_config)
    cfg = M.ModelConfig.from_dict(TINY)
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=12), cfg)
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    out = tmp_path / "sim.json"
    assert run(["simulate", "--config", tiny_config, "--weights", weights,
                "--data", str(data), "--trials", "5", "--phase-sigma", "0.01",
                "--seed", "3", "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["trials"] == 5
    assert doc["mean_abs_error"] > 0
    assert doc["max_abs_error"] >= doc["mean_abs_error"]


def test_simulate_dim_mismatch_exits_5(tmp_path, tiny_config):
    weights = make_trained(tmp_path, tiny_config)
    bundle = tmp_path / "bundle.json"
    run(["compile", "--config", tiny_config, "--weights", weights, "--out", str(bundle)])
    # A wrong visual width, then samples of L=4 tokens where text.seq_len is 3.
    for visual_dims, seq_len in (([5, 4], 3), ([8, 4], 4)):
        other = M.ModelConfig(
            visual_dims=visual_dims, audio_dims=[6, 4],
            text=M.TextConfig(d_model=8, heads=2, d_head=4, d_out=4, seq_len=seq_len),
            fusion=M.FusionConfig(rank=2, d_h=4), heads=4,
            tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False, class_heads=False),
            seed=0,
        )
        ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=seq_len, seed=1), other)
        data = tmp_path / "bad.jsonl"
        T.save_jsonl(ds, str(data))
        assert run(["simulate", "--bundle", str(bundle), "--data", str(data)]) == 5


@pytest.mark.parametrize("flags", [
    ["--phase-sigma", "-0.1"], ["--phase-sigma", "nan"], ["--phase-sigma", "inf"],
    ["--bits", "-2"], ["--trials", "-1"], ["--bits", "54"], ["--bits", "1100"],
], ids=["sigma_negative", "sigma_nan", "sigma_inf", "bits_negative", "trials_negative",
        "bits_54", "bits_1100"])
def test_simulate_bad_noise_exits_5(tmp_path, tiny_config, capsys, flags):
    weights = make_trained(tmp_path, tiny_config)
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    capsys.readouterr()
    assert run(["simulate", "--config", tiny_config, "--weights", weights, "--data", str(data),
                "--trials", "1", *flags]) == 5
    err = capsys.readouterr().err
    assert err.startswith("tomfn simulate: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, defect", [
    ("train", "visual_width"), ("eval", "visual_width"), ("train", "label_count"),
    ("train", "nan_feature"), ("simulate", "nan_feature"),
])
def test_malformed_samples_exit_3(tmp_path, tiny_config, capsys, command, defect):
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    if defect == "visual_width":
        ds.visual = ds.visual[:, :5]
    elif defect == "label_count":
        ds.labels = ds.labels[:, :3]
    else:
        ds.visual[1, 2] = np.nan
    data = tmp_path / "bad.jsonl"
    # Written with json.dumps, not save_jsonl: tomfn itself writes no NaN.
    data.write_text("".join(json.dumps({key: getattr(ds, key)[i].tolist() for key in
                                        ("visual", "audio", "text", "labels")}) + "\n"
                            for i in range(len(ds))))
    argv = [command, "--config", tiny_config, "--data", str(data)]
    if command != "train":
        argv += ["--weights", make_trained(tmp_path, tiny_config)]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, index, value", [
    ("labels", 0, 0.5), ("labels", 1, True), ("visual", 2, True), ("audio", 0, "1"),
    ("visual", 1, 10**400),
], ids=["label_half", "label_true", "feature_true", "feature_string", "feature_huge_integer"])
def test_dataset_wrong_json_value_exits_3(tmp_path, tiny_config, capsys, key, index, value):
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    data = tmp_path / "bad.jsonl"
    T.save_jsonl(ds, str(data))
    records = [json.loads(line) for line in data.read_text().splitlines()]
    records[2][key][index] = value
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--data", str(data), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn train: {data}:3: sample {key} ") and err.count("\n") == 1


def test_dataset_fuzz_exits_3(tmp_path, tiny_config, capsys):
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    lines = data.read_text().splitlines()
    rng = np.random.default_rng(8642)
    for _ in range(60):
        lineno = rng.integers(len(lines))
        record = json.loads(lines[lineno])
        by_label = {}
        for label, path in _bundle_fields(record):
            by_label.setdefault(label, []).append(path)
        labels = sorted(by_label)
        paths = by_label[labels[rng.integers(len(labels))]]
        *parents, key = paths[rng.integers(len(paths))]
        node = record
        for part in parents:
            node = node[part]
        pool = _wrong_json_types(node[key])
        value = pool[rng.integers(len(pool))]
        node[key] = value
        data.write_text("\n".join(lines[:lineno] + [json.dumps(record)] + lines[lineno + 1:]))
        capsys.readouterr()
        assert run(["train", "--config", tiny_config, "--data", str(data), "--epochs", "0"]) == 3, (
            lineno, parents, key, value)
        err = capsys.readouterr().err
        assert err.startswith("tomfn train: ") and err.count("\n") == 1, (lineno, parents, key, value)
        assert "Traceback" not in err


def test_weights_fuzz_exits_4(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY))
    cfg["tt"].update(visual=True, fusion=True)  # TT weights too: modes, ranks and cores
    config = tmp_path / "config.json"
    dump_json(cfg, str(config))
    weights = make_trained(tmp_path, str(config))
    text = pathlib.Path(weights).read_text()
    by_label = {}
    for label, path in _bundle_fields(json.loads(text)):
        by_label.setdefault(label, []).append(path)
    labels = sorted(by_label)
    rng = np.random.default_rng(9753)
    for _ in range(60):
        paths = by_label[labels[rng.integers(len(labels))]]
        *parents, key = paths[rng.integers(len(paths))]
        doc = json.loads(text)
        node = doc
        for part in parents:
            node = node[part]
        pool = _wrong_json_types(node[key])
        value = pool[rng.integers(len(pool))]
        node[key] = value
        dump_json(doc, weights)
        capsys.readouterr()
        assert run(["eval", "--config", str(config), "--weights", weights,
                    "--synthetic", "n=8,L=3"]) == 4, (parents, key, value)
        err = capsys.readouterr().err
        assert err.startswith("tomfn eval: weights: ") and err.count("\n") == 1, (parents, key, value)
        assert "Traceback" not in err


@pytest.mark.parametrize("defect", [
    "theta_not_a_number", "row_out_of_range", "diag_too_short", "columns_not_a_list",
    "plans_a_list", "diag_not_a_list", "ranks_not_a_list", "plans_empty", "plan_too_small",
    "mode_above_cap", "triples_missing", "core_size_a_float", "theta_huge_integer",
])
def test_malformed_bundle_exits_3(tmp_path, tiny_config, capsys, defect):
    weights = make_trained(tmp_path, tiny_config)
    bundle = tmp_path / "bundle.json"
    run(["compile", "--config", tiny_config, "--weights", weights, "--out", str(bundle)])
    doc = load_json(str(bundle))
    plan = doc["plans"]["visual.fc0"]
    triple = plan["cores"][0]["triples"][0][0]  # 4x8, mesh_u of size 4
    mzi = triple["mesh_u"]["columns"][0][0]
    if defect == "theta_not_a_number":
        mzi["theta"] = "abc"
    elif defect == "row_out_of_range":
        mzi["row"] = 99
    elif defect == "diag_too_short":
        triple["diag"] = triple["diag"][:1]
    elif defect == "columns_not_a_list":
        triple["mesh_u"]["columns"] = 5
    elif defect == "plans_a_list":
        doc["plans"] = []
    elif defect == "diag_not_a_list":
        triple["diag"] = 3
    elif defect == "ranks_not_a_list":
        plan["ranks"] = "x"
    elif defect == "plans_empty":
        doc["plans"] = {}
    elif defect == "mode_above_cap":
        plan["row_modes"] = [10**9]
    elif defect == "triples_missing":
        plan["cores"][0]["triples"] = []
    elif defect == "core_size_a_float":
        plan["cores"][0]["m"] = 4.0
    elif defect == "theta_huge_integer":
        mzi["theta"] = 10**400  # no float holds it
    else:  # a self-consistent plan of another weight (head.0, 2x4) where 4x8 is needed
        doc["plans"]["visual.fc0"] = doc["plans"]["head.0"]
    dump_json(doc, str(bundle))
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    capsys.readouterr()
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tomfn simulate: bundle: ") and err.count("\n") == 1


def _bundle_fields(node, path=(), label=""):
    """(label, path) of every value in a bundle that bundle_from_obj reads.

    The label names the field with list indices as [] and weight names as
    *, so a draw can pick a field first and then one of its occurrences.
    """
    if path:
        yield label, path
    if isinstance(node, dict):
        for key, child in node.items():
            if key in ("summary", "manifest", "wdm_channels"):
                continue
            part = "*" if label == "plans" else key
            yield from _bundle_fields(child, path + (key,), f"{label}.{part}" if label else part)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _bundle_fields(child, path + (i,), label + "[]")


def _wrong_json_types(value):
    """Values of JSON types a field holding `value` does not accept; an
    integer field also refuses the same number as a float, and a float
    field is not offered an int, which it accepts."""
    if isinstance(value, bool):
        return [1, "true", None]
    if isinstance(value, int):
        return [float(value), value + 0.5, True, str(value), None, [value]]
    if isinstance(value, float):
        return [str(value), True, None, [value], {"x": value}]
    if isinstance(value, str):
        return [1, None, [value]]
    if isinstance(value, list):
        return [5, "x", None, {"0": value}]
    return [5, "x", None, [value]]


def test_simulate_bundle_fuzz_exits_3(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY))
    cfg["tt"].update(visual=True, fusion=True)  # TT plans too: several cores, bond ranks > 1
    config = tmp_path / "config.json"
    dump_json(cfg, str(config))
    bundle = tmp_path / "bundle.json"
    assert run(["compile", "--config", str(config), "--out", str(bundle)]) == 0
    text = bundle.read_text()
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(cfg))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    by_label = {}
    for label, path in _bundle_fields(json.loads(text)):
        by_label.setdefault(label, []).append(path)
    labels = sorted(by_label)
    rng = np.random.default_rng(1357)
    for _ in range(60):
        paths = by_label[labels[rng.integers(len(labels))]]
        *parents, key = paths[rng.integers(len(paths))]
        doc = json.loads(text)
        node = doc
        for part in parents:
            node = node[part]
        pool = _wrong_json_types(node[key])
        value = pool[rng.integers(len(pool))]
        node[key] = value
        dump_json(doc, str(bundle))
        capsys.readouterr()
        assert run(["simulate", "--bundle", str(bundle), "--data", str(data)]) == 3, (
            parents, key, value)
        err = capsys.readouterr().err
        assert err.startswith("tomfn simulate: bundle: ") and err.count("\n") == 1, (
            parents, key, value)
        assert "Traceback" not in err


# --- seeds and entry point ----------------------------------------------------------


def test_env_seed_fallback(tmp_path, tiny_config, monkeypatch):
    monkeypatch.setenv("TOMFN_SEED", "77")
    out = tmp_path / "m.json"
    run(["train", "--config", tiny_config, "--synthetic", "n=8,L=3",
         "--epochs", "1", "--metrics-out", str(out)])
    assert load_json(str(out))["manifest"]["seed"] == 77


def test_console_entry_point(tmp_path):
    out = tmp_path / "r.json"
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tomfn.cli", "describe", "--power-override", "79.87",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "Efficiency" in proc.stdout
    assert load_json(str(out))["mac_per_j"] == pytest.approx(3.72e13, rel=0.01)
