"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion (failures surface as normal pytest assertions).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tomfn import cli
from tomfn import cost as C
from tomfn import model as M
from tomfn import photonic as P
from tomfn import train as T
from tomfn import tt as tt_mod
from tomfn.serialize import dump_json, load_json

from oracles import batch_loss, contract, fusion_tensor, graph_fuse


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def describe_json(tmp_path, extra=()):
    out = tmp_path / "report.json"
    code = cli.main(["describe", "--power-override", "79.87", "--out", str(out), *extra])
    assert code == 0
    return load_json(str(out))


def test_criterion_1_energy_per_inference(tmp_path):
    with criterion(1, "7.987 nJ per inference at 79.87 W / 10 GHz", budget_s=1.0):
        doc = describe_json(tmp_path)
        energy = doc["energy_per_inference_j"]
        assert energy == pytest.approx(7.987e-9, rel=1e-9)
        assert abs(energy - 7.9e-9) / 7.9e-9 < 0.02


def test_criterion_2_efficiency(tmp_path):
    with criterion(2, "297,008 subnet MACs and 3.72e13 MAC/J", budget_s=1.0):
        doc = describe_json(tmp_path)
        assert doc["macs"]["subnet_weights_only"] == 297_008
        assert doc["mac_per_j"] == pytest.approx(3.72e13, rel=0.01)
        assert abs(doc["mac_per_j"] - 3.7e13) / 3.7e13 < 0.01


def test_criterion_3_compression_ratios(tmp_path, capsys):
    with criterion(3, "published-row comparison prints 92.8x and 51.3x", budget_s=1.0):
        rows = tmp_path / "rows.json"
        dump_json({"reference": {"params": 106_912, "mzis": 86_802},
                   "candidate": {"params": 1_152, "mzis": 1_691}}, str(rows))
        doc = describe_json(tmp_path, extra=["--compare", str(rows)])
        assert doc["comparison"]["param_ratio_text"] == "92.8x"
        assert doc["comparison"]["mzi_ratio_text"] == "51.3x"
        table = capsys.readouterr().out
        assert "92.8x" in table and "51.3x" in table


def test_criterion_4_tt_oracle_suite():
    with criterion(4, "100 TT roundtrips and matvecs below 1e-10", budget_s=10.0):
        rng = np.random.default_rng(1234)
        factor_pool = (2, 3, 4)
        done = 0
        while done < 100:
            d = int(rng.integers(2, 4))
            rows = [int(rng.choice(factor_pool)) for _ in range(d)]
            cols = [int(rng.choice(factor_pool)) for _ in range(d)]
            m, n = int(np.prod(rows)), int(np.prod(cols))
            if m > 16 or n > 16:
                continue
            w = rng.normal(size=(m, n))
            t = tt_mod.tt_from_dense(w, rows, cols, max_rank=m * n, tol=0.0)
            back = tt_mod.tt_to_dense(t)
            assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10
            x = rng.normal(size=n)
            y_tt = tt_mod.tt_matvec(t, x)
            y_dense = back @ x
            denom = max(np.linalg.norm(y_dense), 1e-300)
            assert np.linalg.norm(y_tt - y_dense) / denom < 1e-10
            done += 1


def test_criterion_5_fusion_equivalence():
    with criterion(5, "the shipped fusion stage matches the explicit fusion tensor "
                      "on 100 random layers", budget_s=5.0):
        rng = np.random.default_rng(4321)
        for _ in range(100):
            rank = int(rng.integers(1, 5))
            d_h = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 5)) for _ in range(3)]
            factors = {
                key: [rng.normal(size=(d_h, dims[i] + 1)) for _ in range(rank)]
                for i, key in enumerate(("v", "a", "t"))
            }
            zs = [rng.normal(size=d) for d in dims]
            shipped = graph_fuse(factors, *zs)
            explicit = contract(fusion_tensor(factors), *zs)
            assert np.max(np.abs(shipped - explicit)) < 1e-10


def test_criterion_6_mesh_suite():
    with criterion(6, "mesh decompose/reconstruct, counts, and SVD maps", budget_s=10.0):
        rng = np.random.default_rng(99)
        for i in range(100):
            n = 2 + i % 7
            q, r = np.linalg.qr(rng.normal(size=(n, n)))
            u = q * np.sign(np.diag(r))
            if i % 2:
                u[:, 0] = -u[:, 0]
            net = P.givens_decompose(u[None])
            assert net.mzi_count() == n * (n - 1) // 2
            assert net.size == n
            assert np.linalg.norm(P.mesh_matrix(net)[0] - u) < 1e-10
        for _ in range(100):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            w = rng.normal(size=(m, n))
            if m == n == 1:
                w = np.abs(w)  # an empty mesh cannot carry the sign of a scalar
            core = P.svd_map(w[None])
            rel = np.linalg.norm(P.core_matrices(core)[0] - w) / np.linalg.norm(w)
            assert rel < 1e-9


def tiny_config():
    return M.ModelConfig(
        visual_dims=[8, 4],
        audio_dims=[6, 4],
        text=M.TextConfig(d_model=8, heads=2, d_head=4, d_out=4, seq_len=3),
        fusion=M.FusionConfig(rank=2, d_h=4),
        heads=4,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False,
                      class_heads=False),
        seed=7,
    )


def test_criterion_7_end_to_end_optical_equivalence():
    with criterion(7, "compiled tiny model matches in-memory forward on 20 samples",
                   budget_s=10.0):
        cfg = tiny_config()
        model = M.build(cfg)
        bundle = P.compile_model(model)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            sample = {
                "visual": rng.normal(size=8),
                "audio": rng.normal(size=6),
                "text": rng.normal(size=(3, 8)),
            }
            optical = M.forward(P.realize(bundle), sample)
            digital = M.forward(model, sample)
            assert np.max(np.abs(optical - digital)) < 1e-8


def test_criterion_8_gradient_check():
    with criterion(8, "analytic gradients match central differences (eps=1e-5)",
                   budget_s=30.0):
        for tt_on in (False, True):
            cfg = M.ModelConfig(
                visual_dims=[3, 2],
                audio_dims=[3, 2],
                text=M.TextConfig(d_model=4, heads=2, d_head=2, d_out=3, seq_len=2),
                fusion=M.FusionConfig(rank=2, d_h=2),
                heads=2,
                tt=M.TTConfig(visual=tt_on, audio=False, text=tt_on, fusion=tt_on,
                              class_heads=False, max_rank=64, tol=0.0),
                seed=13,
            )
            model = M.build(cfg)
            rng = np.random.default_rng(13)
            v = rng.normal(size=(3, 3))
            a = rng.normal(size=(3, 3))
            x = rng.normal(size=(3, 2, 4))
            y = rng.integers(0, 2, size=(3, 2))
            _, grads = M.loss_and_grad(model, v, a, x, y)
            eps, worst = 1e-5, 0.0
            for key, arr in model.leaves():
                g = grads[key]
                for i in np.ndindex(arr.shape):
                    orig = arr[i]
                    arr[i] = orig + eps
                    hi = batch_loss(model, v, a, x, y)
                    arr[i] = orig - eps
                    lo = batch_loss(model, v, a, x, y)
                    arr[i] = orig
                    numeric = (hi - lo) / (2 * eps)
                    err = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1.0)
                    worst = max(worst, err)
            assert worst < 1e-5, f"worst relative gradient error {worst:.3e} (tt={tt_on})"


def learning_config(seed):
    return M.ModelConfig(
        visual_dims=[80, 16, 8],
        audio_dims=[36, 16, 8],
        text=M.TextConfig(d_model=300, heads=2, d_head=150, d_out=16, seq_len=2),
        fusion=M.FusionConfig(rank=4, d_h=8),
        heads=4,
        tt=M.TTConfig(visual=False, audio=False, text=False, fusion=False,
                      class_heads=False),
        seed=seed,
    )


def test_criterion_9_learning_sanity():
    with criterion(9, "95% train accuracy; fusion beats unimodal ablations by 10+ points",
                   budget_s=120.0):
        # Separable set: templates on, n=200, sigma=0.05, gamma=1.
        cfg = learning_config(seed=0)
        ds = T.gen_synthetic(
            T.SynthSpec(n_samples=200, seq_len=2, noise_std=0.05,
                        interaction_strength=1.0, seed=0), cfg)
        model = M.build(cfg)
        _, history = T.train_model(
            model, ds, T.TrainOpts(epochs=200, seed=0, target_accuracy=0.95))
        assert len(history) <= 200
        assert T.evaluate(model, ds)["accuracy"] >= 0.95

        # Interaction-only variant: class signal lives solely in the product
        # of modality signs.  All four models get the same 20-epoch budget:
        # enough for fusion to lock onto the product term, short enough that
        # unimodal models cannot inflate train accuracy by memorizing noise.
        cfg_b = learning_config(seed=1)
        ds_b = T.gen_synthetic(
            T.SynthSpec(n_samples=200, seq_len=2, noise_std=0.05,
                        interaction_strength=2.0, seed=1, template_scale=0.0), cfg_b)
        budget = T.TrainOpts(epochs=20, seed=1, target_accuracy=0.99)
        fusion_model = M.build(cfg_b)
        T.train_model(fusion_model, ds_b, budget)
        fusion_acc = T.evaluate(fusion_model, ds_b)["accuracy"]
        for keep in ("visual", "audio", "text"):
            ablated = M.build(learning_config(seed=1))
            abl_ds = T.zero_modalities(ds_b, keep)
            T.train_model(ablated, abl_ds, budget)
            abl_acc = T.evaluate(ablated, abl_ds)["accuracy"]
            assert fusion_acc - abl_acc >= 0.10, (
                f"fusion {fusion_acc:.3f} vs {keep}-only {abl_acc:.3f}")


def test_criterion_10_external_reference_labels(tmp_path):
    with criterion(10, "published figures are labeled external references", budget_s=5.0):
        doc = describe_json(tmp_path)
        refs = doc["references"]
        assert refs["kind"] == "external_reference"
        assert "Not reproducible" in refs["note"]
        row = refs["rows"]["tomfn_attention"]
        assert row["params"] == 1152
        assert row["mzis"] == 1691
        assert row["stages"] == 166
        assert row["f1"] == {"happy": 83.4, "sad": 82.7, "angry": 85.7, "neutral": 66.7}
        # The report's own computed figures are separate fields, not copies
        # of the reference row.
        assert "params" in doc and "mzis" in doc and "stages" in doc
        assert doc["power_model_status"] == "measured_total"
