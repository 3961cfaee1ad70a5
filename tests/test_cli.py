import base64
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
from tomfn.errors import DataError
from tomfn.serialize import dump_json, load_json

from golden_docs import CONFIGS, TINY


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
    ["--power-override", "inf"], ["--power-override", "5e-324"], ["--freq", "1e308"],
], ids=["freq_0", "freq_negative", "freq_nan", "freq_inf", "power_0", "power_negative",
        "power_nan", "power_inf", "power_subnormal", "freq_huge"])
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
    (None, "visual_dims", [8]), ("text", "pooling", "max"),
], ids=["max_factor_str", "r_float", "max_rank_null", "heads_bool", "visual_dims_floats",
        "tol_huge_integer", "visual_dims_one_entry", "pooling_max"])
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
    stored = serialize.weights_from_obj(load_json(str(weights)))
    init = M.build(M.ModelConfig.from_dict(TINY))
    assert stored.keys() == init.weights.keys()
    for name, w in init.weights.items():
        assert np.array_equal(stored[name], w)


@pytest.mark.parametrize("flags, env", [
    (["--seed", "-1"], None), ([], "-3"), (["--batch", "0"], None), (["--batch", "-3"], None),
    (["--lr", "nan"], None), (["--lr", "inf"], None), (["--lr", "0"], None),
    (["--lr", "-0.01"], None), (["--epochs", "-1"], None), (["--target-acc", "nan"], None),
    (["--target-acc", "1.5"], None), (["--target-acc", "-0.1"], None), ([], "abc"),
], ids=["seed_negative", "env_seed_negative", "batch_0", "batch_negative", "lr_nan", "lr_inf",
        "lr_0", "lr_negative", "epochs_negative", "target_acc_nan", "target_acc_above_1",
        "target_acc_negative", "env_seed_not_an_integer"])
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


def test_train_out_and_metrics_out_one_file_exit_2(tmp_path, tiny_config, capsys):
    """Two outputs that resolve to one file would leave only the metrics there: refused first."""
    (tmp_path / "sub").mkdir()
    out = tmp_path / "w.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", "n=8,L=3", "--epochs", "1",
                "--out", str(out), "--metrics-out", str(tmp_path / "sub" / ".." / "w.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tomfn train: --out and --metrics-out ") and err.count("\n") == 1, err
    assert not out.exists()


# Specs refused before any value is read, with their messages.
MALFORMED_SPECS = {"foo": "--synthetic entry 'foo' is not key=value",
                   "x=1": "--synthetic has unknown keys ['x']"}


@pytest.mark.parametrize("spec", [
    "seed=-1", "sigma=nan", "sigma=inf", "gamma=inf", "gamma=nan", "scale=nan", "scale=-inf",
    "L=-1", "L=0", *MALFORMED_SPECS,
])
def test_train_bad_synthetic_values_exit_3(tmp_path, tiny_config, capsys, spec):
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", f"n=8,L=3,{spec}",
                "--epochs", "1", "--metrics-out", str(metrics)]) == 3
    err = capsys.readouterr().err
    want = MALFORMED_SPECS.get(spec, "--synthetic: ")
    assert err.startswith(f"tomfn train: {want}") and err.count("\n") == 1
    assert not metrics.exists()


READ_BY_EVERY_KIND = [("describe", "--config", 2), ("train", "--data", 3)]
# Each input file a command reads, with its documented exit code.
READ_AS_JSON = READ_BY_EVERY_KIND + [
    ("compile", "--weights", 4), ("simulate", "--bundle", 3), ("describe", "--compare", 3),
    ("simulate", "--data", 3),
]


@pytest.mark.parametrize("kind, command, flag, code", [
    *[(kind, *row) for kind in ("a_directory", "not_utf8") for row in READ_BY_EVERY_KIND],
    *[("too_deep", *row) for row in READ_AS_JSON],
])
def test_unreadable_input_file_exits_with_its_code(tmp_path, tiny_config, capsys, command, flag,
                                                   code, kind):
    path = tmp_path / "input"
    if kind == "a_directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    else:  # nested deeper than the interpreter's recursion limit
        path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, flag, str(path)]
    if command in ("train", "compile") or flag == "--data":
        argv += ["--config", tiny_config]
    if command == "simulate" and flag == "--data":
        weights = tmp_path / "w.json"
        dump_json(serialize.weights_to_obj(M.build(M.ModelConfig.from_dict(TINY)).weights), str(weights))
        argv += ["--weights", str(weights)]
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: ") and err.count("\n") == 1
    assert "Traceback" not in err


DIVERGED = "training diverged in epoch "
NOT_FINITE = "the model's outputs are not finite"


@pytest.mark.parametrize("synthetic, flags, message", [
    ("n=8,L=3,gamma=1e200", ["--epochs", "1"], DIVERGED),
    ("n=8,L=3", ["--epochs", "3", "--lr", "1e300"], DIVERGED),
    ("n=8,L=3,gamma=1e80,scale=1e80", ["--epochs", "1"], DIVERGED),  # finite loss, NaN weights
    # One step: the weights stay finite near 1e300, and the closing evaluation overflows.
    ("n=8,L=3", ["--epochs", "1", "--lr", "1e300"], NOT_FINITE),
], ids=["loss_overflows", "lr_overflows", "weights_overflow", "outputs_overflow"])
def test_train_diverging_exits_3(tmp_path, tiny_config, capsys, synthetic, flags, message):
    weights = tmp_path / "w.json"
    capsys.readouterr()
    assert run(["train", "--config", tiny_config, "--synthetic", synthetic, *flags,
                "--out", str(weights)]) == 3
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("tomfn train: data: " + message) and err.count("\n") == 1
    assert "Traceback" not in err and captured.out == ""
    if message == DIVERGED:
        assert "--lr" in err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_outputs_not_finite_exits_3(tmp_path, tiny_config, capsys, command):
    cfg = M.ModelConfig.from_dict(TINY)
    weights, samples = tmp_path / "w.json", tmp_path / "s.jsonl"
    dump_json(serialize.weights_to_obj({k: w * 1e300 for k, w in M.build(cfg).weights.items()}),
              str(weights))
    T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), cfg), str(samples))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run([command, "--config", tiny_config, "--weights", str(weights),
                "--data", str(samples), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"tomfn {command}: data: " + NOT_FINITE)
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


def test_eval_overflow_inside_a_layer_exits_3(tmp_path, capsys):
    # Finite TT cores whose product overflows: the NaN it leaves must reach
    # the output check, not be zeroed by the relu after the layer.
    cfg = M.default_config()
    w = M.build(cfg).weights
    w["visual.fc0"].cores[:] = [core * 1e200 for core in w["visual.fc0"].cores]
    weights, samples, out = tmp_path / "w.json", tmp_path / "s.jsonl", tmp_path / "out.json"
    dump_json(serialize.weights_to_obj(w), str(weights))
    T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=20, seed=1), cfg), str(samples))
    capsys.readouterr()
    assert run(["eval", "--weights", str(weights), "--data", str(samples), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("tomfn eval: data: " + NOT_FINITE)
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, change, synthetic, code", [
    ("describe", {"visual_dims": [10**15, 4]}, None, 2),
    ("compile", {"visual_dims": [10**15, 4]}, None, 2),
    ("train", {"visual_dims": [8, 10**15, 4]}, "n=8,L=3", 2),
    ("train", {}, f"n={10**15},L=3", 3),
    ("train", {"text": {**TINY["text"], "seq_len": 10**12}}, "n=125", 3),
], ids=["describe_weights", "compile_weights", "train_weights", "train_samples", "train_seq_len"])
def test_oversized_input_exits_with_one_line(tmp_path, capsys, command, change, synthetic, code):
    """Weights a config cannot draw exit 2, samples that cannot be made exit 3.  Every size
    is 10**15 elements with every tt flag off, beyond any address space, so numpy refuses
    each allocation at once."""
    config, out = tmp_path / "c.json", tmp_path / "out.json"
    dump_json({**TINY, **change}, str(config))
    argv = [command, "--config", str(config), "--out", str(out)]
    if synthetic is not None:
        argv += ["--synthetic", synthetic, "--epochs", "1"]
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: ") and err.count("\n") == 1 and "Unable to allocate" in err
    assert not out.exists()


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


def test_eval_weights_mismatch_exits_4(tmp_path, tiny_config, capsys):
    weights = tmp_path / "w.json"
    dump_json(serialize.weights_to_obj({"visual.fc0": np.eye(2)}), str(weights))
    capsys.readouterr()
    assert run(["eval", "--config", tiny_config, "--weights", str(weights),
                "--synthetic", "n=8,L=3"]) == 4
    assert capsys.readouterr().err.startswith("tomfn eval: weights/config mismatch: missing ")


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


def test_seed_draws_the_weights_a_command_builds(tmp_path, tiny_config):
    # --seed names the seed that drew the weights, as a config's seed does.
    seeded = tmp_path / "config_seed5.json"
    dump_json({**TINY, "seed": 5}, str(seeded))
    docs = {}
    for name, seed, argv in (("seed0", 0, ["--config", tiny_config, "--seed", "0"]),
                             ("seed5", 5, ["--config", tiny_config, "--seed", "5"]),
                             ("config5", 5, ["--config", str(seeded)])):
        bundle, weights = tmp_path / f"{name}.bundle.json", tmp_path / f"{name}.weights.json"
        assert run(["compile", *argv, "--out", str(bundle)]) == 0
        assert run(["train", *argv, "--synthetic", "n=8,L=3", "--epochs", "1",
                    "--out", str(weights)]) == 0
        doc = load_json(str(bundle))
        assert doc.pop("manifest")["seed"] == seed
        assert doc["config"]["seed"] == seed
        docs[name] = (doc, weights.read_bytes())
    assert docs["seed0"][0]["grids"] != docs["seed5"][0]["grids"]
    assert serialize.dumps(docs["seed5"][0]) == serialize.dumps(docs["config5"][0])
    assert docs["seed5"][1] == docs["config5"][1]


def test_compile_oversized_dense_exits_4(tmp_path, capsys):
    cfg = dict(TINY)
    cfg["visual_dims"] = [16, 4]  # dense 4x16 exceeds the 8-cap
    path = tmp_path / "big.json"
    dump_json(cfg, str(path))
    assert run(["compile", "--config", str(path)]) == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("name, file_shape, message", [
    ("visual.fc0", [8, 4], "dense operator of shape (8, 4) is not 4x8 (out x in)"),
    ("text.head0.q", [8, 4], "dense operator of shape (8, 4) is not 4x8 (out x in)"),
    ("head.1", [4, 2], "dense operator of shape (4, 2) is not 2x4 (out x in)"),
    ("visual.fc0", None, "TT operator 4x8 cannot cover 4x9"),
], ids=["visual", "text", "head", "tt_short_of_config"])
def test_dense_weight_of_wrong_shape_exits_4(tmp_path, tiny_config, capsys, name, file_shape,
                                             message):
    obj = serialize.weights_to_obj(M.build(M.ModelConfig.from_dict(TINY)).weights)
    if file_shape is None:  # a 4x8 TT operator where the config's visual_dims grew to [9, 4]
        obj[name] = serialize.weight_to_obj(tt_mod.tt_from_dense(
            np.full((4, 8), 0.5), [2, 2], [2, 4], max_rank=4, tol=0.0))
        tiny_config = str(tmp_path / "wider.json")
        dump_json({**TINY, "visual_dims": [9, 4]}, tiny_config)
    else:
        obj[name] = serialize.floats_to_obj(np.full(file_shape, 0.5))
    weights = tmp_path / "w.json"
    dump_json(obj, str(weights))
    capsys.readouterr()
    assert run(["compile", "--config", tiny_config, "--weights", str(weights)]) == 4
    err = capsys.readouterr().err
    assert err == f"tomfn compile: weights/config mismatch on '{name}': {message}\n"


def test_compile_weights_mismatch_exits_4(tmp_path, tiny_config, capsys):
    weights = tmp_path / "wrong.json"
    dump_json(serialize.weights_to_obj({"visual.fc0": np.zeros((4, 8))}), str(weights))
    capsys.readouterr()
    assert run(["compile", "--config", tiny_config, "--weights", str(weights)]) == 4
    assert capsys.readouterr().err.startswith("tomfn compile: weights/config mismatch: missing ")


@pytest.mark.parametrize("command", ["eval", "compile"])
@pytest.mark.parametrize("defect", [
    "tt_ranks_missing", "tt_ranks_a_string", "weight_a_number", "data_not_a_string",
    "data_not_base64", "data_one_value_short", "data_nan", "dtype_f4", "shape_not_filled",
    "legacy_list_form", "tt_core_dtype_f4", "tt_cores_swapped",
])
def test_malformed_weights_exit_4(tmp_path, tiny_config, capsys, command, defect):
    weights = make_trained(tmp_path, tiny_config)
    doc = load_json(weights)
    fc0 = doc["visual.fc0"]  # dense 4x8, one block
    dense = serialize.weight_from_obj(fc0, "weight 'visual.fc0'")
    tt_obj = serialize.weight_to_obj(tt_mod.tt_from_dense(dense, [2, 2], [2, 4], max_rank=4, tol=0.0))
    base64_of_4x8 = "weight 'visual.fc0' data must be base64 of [4, 8] float64 values: "
    expected = {
        "tt_ranks_missing": "weight 'visual.fc0' must be an object with a 'ranks' field",
        "tt_ranks_a_string": "weight 'visual.fc0' 'ranks' must be a list, got 'x'",
        "weight_a_number": "weight 'visual.fc0' must be an object with a 'data' field",
        "data_not_a_string": base64_of_4x8 + "argument should be a bytes-like object",
        "data_not_base64": base64_of_4x8 + "Only base64 data is allowed",
        "data_one_value_short": base64_of_4x8 + "cannot reshape array of size 31",
        "data_nan": "weight 'visual.fc0' must hold finite numbers",
        "dtype_f4": "weight 'visual.fc0' must be '<f8' of shape [4, 8], got '<f4'",
        "shape_not_filled": "weight 'visual.fc0' data must be base64 of [4, 9] float64 values: "
                            "cannot reshape array of size 32",
        "legacy_list_form": "weight 'visual.fc0' data is a list, the retired file form: "
                            "write the file again with `tomfn train`\n",
        "tt_core_dtype_f4": "weight 'visual.fc0' core 1 must be '<f8' of shape [",
        "tt_cores_swapped": "weight 'visual.fc0': core 0 has shape (",
    }
    if defect == "tt_ranks_missing":
        del tt_obj["ranks"]
        doc["visual.fc0"] = tt_obj
    elif defect == "tt_ranks_a_string":
        tt_obj["ranks"] = "x"
        doc["visual.fc0"] = tt_obj
    elif defect == "weight_a_number":
        doc["visual.fc0"] = 5
    elif defect == "tt_core_dtype_f4":
        tt_obj["cores"][1]["dtype"] = "<f4"
        doc["visual.fc0"] = tt_obj
    elif defect == "tt_cores_swapped":  # each core well-formed, the chain not
        tt_obj["cores"].reverse()
        doc["visual.fc0"] = tt_obj
    elif defect == "data_not_a_string":
        fc0["data"] = {"base64": fc0["data"]}
    elif defect == "data_not_base64":
        fc0["data"] = "*" + fc0["data"][1:]
    elif defect == "data_one_value_short":  # 8 bytes, one float64, short of the shape
        fc0["data"] = serialize.floats_to_obj(dense.ravel()[:-1])["data"]
    elif defect == "data_nan":
        dense.flat[3] = np.nan
        fc0["data"] = serialize.floats_to_obj(dense)["data"]
    elif defect == "dtype_f4":
        fc0["dtype"] = "<f4"
    elif defect == "shape_not_filled":
        fc0["shape"] = [4, 9]
    else:  # the list form earlier files used
        doc["visual.fc0"] = {"shape": [4, 8], "data": dense.ravel().tolist()}
    dump_json(doc, weights)
    argv = [command, "--config", tiny_config, "--weights", weights]
    if command == "eval":
        argv += ["--synthetic", "n=8,L=3"]
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: weights: {expected[defect]}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_weights_whose_singular_values_overflow_exit_4(tmp_path, tiny_config, capsys, command):
    # Finite entries near the float limit: the largest singular value of a weight is inf.
    cfg = M.ModelConfig.from_dict(TINY)
    weights, samples, out = tmp_path / "w.json", tmp_path / "s.jsonl", tmp_path / "out.json"
    dump_json(serialize.weights_to_obj({k: w * 1.7e308 for k, w in M.build(cfg).weights.items()}),
              str(weights))
    T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), cfg), str(samples))
    argv = [command, "--config", tiny_config, "--weights", str(weights), "--out", str(out)]
    if command == "simulate":
        argv += ["--data", str(samples)]
    capsys.readouterr()
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"tomfn {command}: matrix ")
    assert "singular values are not finite" in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_one_overflowing_weight_is_named(tmp_path, tiny_config, capsys, command):
    # head.1 shares its 2x4 shape with head.0, head.2 and head.3, which compile in one stack.
    cfg = M.ModelConfig.from_dict(TINY)
    weights, samples, out = tmp_path / "w.json", tmp_path / "s.jsonl", tmp_path / "out.json"
    scaled = dict(M.build(cfg).weights)
    scaled["head.1"] = scaled["head.1"] * 1.7e308
    dump_json(serialize.weights_to_obj(scaled), str(weights))
    T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), cfg), str(samples))
    argv = [command, "--config", tiny_config, "--weights", str(weights), "--out", str(out)]
    if command == "simulate":
        argv += ["--data", str(samples)]
    capsys.readouterr()
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == (f"tomfn {command}: matrix 0 of 'head.1' core 0: "
                            "singular values are not finite\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["describe", "train", "eval", "compile", "simulate"])
@pytest.mark.parametrize("kind", ["missing_directory", "a_directory"])
def test_unwritable_out_exits_3(tmp_path, tiny_config, capsys, command, kind):
    argv = [command, "--config", tiny_config]
    if command in ("eval", "simulate"):
        samples = tmp_path / "s.jsonl"
        T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1),
                                     M.ModelConfig.from_dict(TINY)), str(samples))
        argv += ["--weights", make_trained(tmp_path, tiny_config), "--data", str(samples)]
    elif command == "train":
        argv += ["--synthetic", "n=8,L=3", "--epochs", "1"]
    target = tmp_path / "out"
    if kind == "a_directory":
        target.mkdir()
    else:
        target = target / "r.json"
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert run(argv + ["--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: data: cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before  # no stray temp file
    assert kind == "missing_directory" or os.listdir(target) == []


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


def test_simulate_offers_no_synthetic_flag(capsys):
    """simulate reads its samples from --data only, so argparse refuses --synthetic."""
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--bundle", "b.json", "--synthetic", "n=4,L=2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tomfn ") and "unrecognized arguments: --synthetic" in err
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--data" in out and "--synthetic" not in out


@pytest.mark.parametrize("argv, code, message", [
    (["train"], 3, "provide --synthetic or --data"),
    (["eval", "--synthetic", "n=8,L=3"], 4, "eval requires --weights"),
    (["simulate", "--data", "missing.jsonl"], 4,
     "simulate requires --bundle, or --config with --weights"),
    # --data is checked first, before the bundle is read or the weights compiled.
    (["simulate", "--bundle", "missing.json"], 3, "simulate requires --data with input samples"),
    (["simulate", "--weights", "missing.json"], 3, "simulate requires --data with input samples"),
], ids=["train_no_samples", "eval_no_weights", "simulate_no_model", "simulate_bundle_no_data",
        "simulate_weights_no_data"])
def test_missing_input_flag_exits_with_its_code(capsys, argv, code, message):
    capsys.readouterr()
    assert run(argv) == code
    assert capsys.readouterr().err == f"tomfn {argv[0]}: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--config", "missing.json"], ["--weights", "missing.json"],
    ["--config", "missing.json", "--weights", "also-missing.json"],
], ids=["config", "weights", "both"])
def test_simulate_bundle_refuses_config_and_weights(tmp_path, tiny_config, capsys, flags):
    """A bundle carries its own config and weights, so simulate refuses others beside it."""
    bundle, data, out = tmp_path / "b.json", tmp_path / "s.jsonl", tmp_path / "out.json"
    assert run(["compile", "--config", tiny_config, "--out", str(bundle)]) == 0
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    T.save_jsonl(ds, str(data))
    capsys.readouterr()
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data), *flags,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("tomfn simulate: --bundle carries its own config and weights; "
                   "drop --config and --weights\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma, code", [("1e308", 5), ("1e307", 0), ("1e300", 0), ("10", 0)])
def test_simulate_phase_sigma_whose_draws_overflow_exits_5(tmp_path, tiny_config, capsys, sigma,
                                                          code):
    # sigma * z leaves the float range at 1e308; a warning would fail the test.
    weights = make_trained(tmp_path, tiny_config)
    bundle, data, out = tmp_path / "b.json", tmp_path / "s.jsonl", tmp_path / "out.json"
    assert run(["compile", "--config", tiny_config, "--weights", weights, "--out", str(bundle)]) == 0
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    T.save_jsonl(ds, str(data))
    capsys.readouterr()
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data), "--trials", "1",
                "--phase-sigma", sigma, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("tomfn simulate: phase_sigma 1e+308 ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.exists()


# Defects of a whole --data file, with what its refusal says.
FILE_DEFECTS = {"empty_file": "empty dataset", "ragged": "inconsistent sample shapes",
                "label_2": "labels must be binary flags"}


@pytest.mark.parametrize("command, defect", [
    ("train", "visual_width"), ("eval", "visual_width"), ("train", "label_count"),
    ("train", "nan_feature"), ("simulate", "nan_feature"),
    *[("train", defect) for defect in FILE_DEFECTS],
])
def test_malformed_samples_exit_3(tmp_path, tiny_config, capsys, command, defect):
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    if defect == "visual_width":
        ds.visual = ds.visual[:, :5]
    elif defect == "label_count":
        ds.labels = ds.labels[:, :3]
    elif defect == "nan_feature":
        ds.visual[1, 2] = np.nan
    records = [{key: getattr(ds, key)[i].tolist() for key in ("visual", "audio", "text", "labels")}
               for i in range(len(ds))]
    if defect == "empty_file":
        records = []
    elif defect == "ragged":  # one sample's visual one entry short
        records[1]["visual"] = records[1]["visual"][:-1]
    elif defect == "label_2":
        records[1]["labels"][0] = 2
    data = tmp_path / "bad.jsonl"
    # Written with json.dumps, not save_jsonl: tomfn itself writes no NaN.
    data.write_text("".join(json.dumps(record) + "\n" for record in records))
    argv = [command, "--config", tiny_config, "--data", str(data)]
    if command != "train":
        argv += ["--weights", make_trained(tmp_path, tiny_config)]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tomfn {command}: ") and err.count("\n") == 1
    assert FILE_DEFECTS.get(defect, "") in err


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


def _floats(obj) -> np.ndarray:
    """The flat float64 values of a bundle array object, as a writable copy."""
    return np.frombuffer(base64.b64decode(obj["data"], validate=True), "<f8").copy()


def _set_floats(obj, values, shape=None):
    """Store `values` in the array object `obj`, its shape kept unless one is given."""
    obj["data"] = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")
    if shape is not None:
        obj["shape"] = shape


# Where a refusal must say the defect is: in visual.fc0's U grid, in the plan, or in its core 0.
_GRID_DEFECTS = ("theta_not_a_number", "row_out_of_range", "col_not_a_list", "theta_huge_integer",
                 "col_decreasing", "col_beyond_size", "theta_rows_wrong", "data_not_base64",
                 "data_one_float_short", "data_one_float_long", "dtype_f4", "dtype_big_endian",
                 "dtype_a_number", "shape_entry_true", "phi_minus_inf", "mesh_unclaimed")
_PLAN_DEFECTS = ("ranks_not_a_list", "mode_above_cap", "plan_too_small", "dense_plan_ranks_1_2")


@pytest.mark.parametrize("defect", [
    "theta_not_a_number", "row_out_of_range", "diag_too_short", "col_not_a_list",
    "plans_a_list", "diag_not_a_list", "ranks_not_a_list", "plans_empty", "plan_too_small",
    "mode_above_cap", "mesh_u_missing", "theta_huge_integer",
    "col_decreasing", "col_beyond_size", "theta_rows_wrong", "mesh_size_not_m", "old_layout",
    "diag_and_scale_below_range", "diag_and_scale_huge", "format_2",
    "data_not_base64", "data_one_float_short", "data_one_float_long",
    "dtype_f4", "dtype_big_endian", "dtype_a_number", "shape_entry_a_float", "shape_entry_true",
    "phi_minus_inf", "grid_index_out_of_range", "ref_to_grid_of_wrong_size", "ref_past_grid_end",
    "two_cores_claim_one_mesh", "mesh_unclaimed", "ref_a_float", "ref_true", "grids_missing", "format_3",
    "format_4", "dense_plan_ranks_1_2",
])
def test_malformed_bundle_exits_3(tmp_path, tiny_config, capsys, defect):
    weights = make_trained(tmp_path, tiny_config)
    bundle = tmp_path / "bundle.json"
    run(["compile", "--config", tiny_config, "--weights", weights, "--out", str(bundle)])
    doc = load_json(str(bundle))
    plan = doc["plans"]["visual.fc0"]
    core = plan["cores"][0]  # one 4x8 slice: mesh_u a reference to one mesh of a grid of size 4
    g, first = core["mesh_u"]
    mesh = doc["grids"][g]  # every 4-waveguide mesh of the model
    theta = _floats(mesh["theta"])  # the grid's angles, 6 a mesh, flat
    count = len(theta) // 6
    if defect == "theta_not_a_number":
        theta[6 * first] = np.nan
        _set_floats(mesh["theta"], theta)
    elif defect == "row_out_of_range":
        mesh["row"][0] = 99
    elif defect == "diag_too_short":
        _set_floats(core["diag"], _floats(core["diag"])[:1], [1, 1])
    elif defect == "col_not_a_list":
        mesh["col"] = 5
    elif defect == "plans_a_list":
        doc["plans"] = []
    elif defect == "diag_not_a_list":
        core["diag"] = 3
    elif defect == "ranks_not_a_list":
        plan["ranks"] = "x"
    elif defect == "plans_empty":
        doc["plans"] = {}
    elif defect == "mode_above_cap":
        plan["row_modes"] = [10**9]
    elif defect == "mesh_u_missing":
        del core["mesh_u"]
    elif defect == "dense_plan_ranks_1_2":
        plan["ranks"] = [1, 2]
    elif defect == "theta_huge_integer":
        theta[6 * first] = np.inf  # the text layout's 10**400, which no float holds
        _set_floats(mesh["theta"], theta)
    elif defect == "col_decreasing":
        mesh["col"] = mesh["col"][::-1]
    elif defect == "col_beyond_size":
        mesh["col"][-1] = mesh["size"]
    elif defect == "theta_rows_wrong":  # one mesh's angles more than phi holds
        _set_floats(mesh["theta"], np.concatenate([theta, theta[:6]]), [count + 1, 6])
    elif defect == "mesh_size_not_m":
        core["mesh_u"] = core["mesh_v"]  # meshes on 8 waveguides where m is 4
    elif defect == "old_layout":
        del doc["format"]
    elif defect == "format_2":  # the text layout of the angles before format 3
        doc["format"] = 2
        mesh["theta"] = theta.reshape(count, 6).tolist()
    elif defect in ("diag_and_scale_below_range", "diag_and_scale_huge"):
        low = defect == "diag_and_scale_below_range"
        _set_floats(core["diag"], np.full(len(_floats(core["diag"])), -3.0 if low else 1e308))
        _set_floats(core["scale"], np.full(len(_floats(core["scale"])), 0.5 if low else 1e308))
    elif defect == "data_not_base64":
        mesh["theta"]["data"] = "*" + mesh["theta"]["data"][1:]
    elif defect in ("data_one_float_short", "data_one_float_long"):
        _set_floats(mesh["theta"], theta[:-1] if defect.endswith("short") else np.append(theta, 0.5))
    elif defect.startswith("dtype_"):
        mesh["theta"]["dtype"] = {"dtype_f4": "<f4", "dtype_big_endian": ">f8"}.get(defect, 8)
    elif defect == "shape_entry_a_float":
        core["diag"]["shape"] = [1, 4.0]
    elif defect == "shape_entry_true":
        mesh["theta"]["shape"] = [True, 6]
    elif defect == "phi_minus_inf":
        phi = _floats(mesh["phi"])
        phi[-1] = -np.inf
        _set_floats(mesh["phi"], phi)
    elif defect == "grid_index_out_of_range":
        core["mesh_u"] = [len(doc["grids"]), 0]
    elif defect == "ref_to_grid_of_wrong_size":
        core["mesh_v"] = [g, first]  # a grid of size 4 where n is 8
    elif defect == "ref_past_grid_end":
        core["mesh_u"] = [g, count]
    elif defect == "two_cores_claim_one_mesh":  # audio.fc0 is 4x6: its U mesh is on the grid too
        audio = doc["plans"]["audio.fc0"]["cores"][0]
        low, high = sorted([core, audio], key=lambda c: c["mesh_u"])
        high["mesh_u"] = low["mesh_u"]  # the later claim overlaps before its own mesh goes unclaimed
    elif defect == "mesh_unclaimed":
        for angle in ("theta", "phi"):
            _set_floats(mesh[angle], np.append(_floats(mesh[angle]), np.zeros(6)), [count + 1, 6])
    elif defect in ("ref_a_float", "ref_true"):
        core["mesh_u"] = [0.0 if defect == "ref_a_float" else True, first]
    elif defect == "grids_missing":
        del doc["grids"]
    elif defect == "format_3":  # the layout before grids: a core side held its own netlist
        doc["format"] = 3
        core["mesh_u"] = mesh
    elif defect == "format_4":  # the layout that restated a grid's column count as its depth
        doc["format"] = 4
        mesh["depth"] = mesh["size"]
    else:  # a self-consistent plan of another weight (head.0, 2x4) where 4x8 is needed
        doc["plans"]["visual.fc0"] = doc["plans"]["head.0"]
    dump_json(doc, str(bundle))
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(TINY))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    capsys.readouterr()
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tomfn simulate: bundle: ") and err.count("\n") == 1, err
    if defect in ("old_layout", "format_2", "format_3", "format_4"):
        assert "`tomfn compile`" in err
    elif defect in _GRID_DEFECTS:
        assert f"bundle: grid {g} (size 4)" in err, err
    elif defect in _PLAN_DEFECTS:
        assert "bundle: plan 'visual.fc0'" in err, err
    elif defect == "two_cores_claim_one_mesh":
        assert "core 0: mesh_u claims mesh" in err and "another core side" in err, err
    elif defect not in ("plans_a_list", "plans_empty", "grids_missing"):
        assert "bundle: plan 'visual.fc0' core 0" in err, err


def _bundle_fields(node, path=(), label=""):
    """(label, path) of every value in a bundle that bundle_from_obj reads.

    The label names the field with list indices as [] and weight names as
    *, so a draw can pick a field first and then one of its occurrences.
    """
    if path:
        yield label, path
    if isinstance(node, dict):
        for key, child in node.items():
            if key in ("summary", "manifest"):
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


@pytest.fixture
def fuzz_bundle(tmp_path):
    """A compiled tiny bundle with TT plans, its text, and samples it can simulate."""
    cfg = CONFIGS["tiny_tt"]  # TT plans too: several cores, bond ranks > 1
    config = tmp_path / "config.json"
    dump_json(cfg, str(config))
    bundle = tmp_path / "bundle.json"
    assert run(["compile", "--config", str(config), "--out", str(bundle)]) == 0
    ds = T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=3, seed=1), M.ModelConfig.from_dict(cfg))
    data = tmp_path / "samples.jsonl"
    T.save_jsonl(ds, str(data))
    return bundle, bundle.read_text(), data


def _simulate_refuses(doc, bundle, data, capsys, where):
    dump_json(doc, str(bundle))
    capsys.readouterr()
    assert run(["simulate", "--bundle", str(bundle), "--data", str(data)]) == 3, where
    err = capsys.readouterr().err
    assert err.startswith("tomfn simulate: bundle: ") and err.count("\n") == 1, where
    assert "Traceback" not in err


def test_simulate_bundle_fuzz_exits_3(fuzz_bundle, capsys):
    bundle, text, data = fuzz_bundle
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
        _simulate_refuses(doc, bundle, data, capsys, (parents, key, value))


def test_simulate_bundle_array_fuzz_exits_3(fuzz_bundle, capsys):
    """Valid array objects whose decoded values break the plan: a value that
    is not finite, out of range (diag, scale), or one too few or too many."""
    bundle, text, data = fuzz_bundle
    by_key = {}
    for _, path in _bundle_fields(json.loads(text)):
        if path[-1] in ("theta", "phi", "diag", "scale"):
            by_key.setdefault(path[-1], []).append(path)
    assert all(path[0] == "grids" for key in ("theta", "phi") for path in by_key[key])  # one block a grid
    keys = sorted(by_key)
    rng = np.random.default_rng(2468)
    for _ in range(60):
        doc = json.loads(text)
        paths = by_key[keys[rng.integers(len(keys))]]
        *parents, key = paths[rng.integers(len(paths))]
        node = doc
        for part in parents:
            node = node[part]
        values = _floats(node[key])
        if not len(values):  # a mesh on one waveguide has no MZI
            continue
        i = rng.integers(len(values))
        edits = ["not_finite", "drop", "add"] + (["out_of_range"] if key in ("diag", "scale") else [])
        edit = edits[rng.integers(len(edits))]
        if edit == "not_finite":
            values[i] = (np.nan, np.inf, -np.inf)[rng.integers(3)]
        elif edit == "out_of_range":
            values[i] = 0.5 if key == "scale" else (-0.25, 1.25)[rng.integers(2)]
        else:
            values = np.delete(values, i) if edit == "drop" else np.insert(values, i, values[i])
        _set_floats(node[key], values)
        _simulate_refuses(doc, bundle, data, capsys, (parents, key, edit, i, values[i:i + 1]))


def test_bundle_missing_any_key_is_refused(fuzz_bundle):
    """Every key of every grid, plan and core is read: a bundle without any one is refused."""
    _, text, _ = fuzz_bundle
    doc = json.loads(text)
    plans = list(doc["plans"].values())
    for node in doc["grids"] + plans + [core for plan in plans for core in plan["cores"]]:
        for key in list(node):
            value = node.pop(key)
            with pytest.raises(DataError):
                photonic.bundle_from_obj(doc)
            node[key] = value
    photonic.bundle_from_obj(doc)


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


def test_import_stays_light():
    """Importing the package and its CLI loads neither numpy.random (perturb imports it on
    first use) nor base64 (the bundle reader does): each costs every command's start-up."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tomfn, tomfn.cli; "
         "print(sorted({'numpy.random', 'base64'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
