import pytest

import golden_docs as G
from tomfn import cost as C
from tomfn import model as M
from tomfn import photonic as P
from tomfn.errors import ShapeError


def test_power_zero_components():
    assert C.estimate_power(0, 0, 0, 0) == 0.0


def test_power_heaters_only():
    assert C.estimate_power(100, 0, 0, 0) == pytest.approx(1.0)


def test_power_monotone_in_counts():
    base = C.estimate_power(100, 10, 10, 2)
    assert C.estimate_power(101, 10, 10, 2) >= base
    assert C.estimate_power(100, 11, 10, 2) >= base
    assert C.estimate_power(100, 10, 11, 2) >= base
    assert C.estimate_power(100, 10, 10, 3) >= base


def test_power_rejects_negative_counts():
    with pytest.raises(ShapeError):
        C.estimate_power(-1, 0, 0, 0)


def test_energy_per_inference():
    assert C.energy_per_inference(79.87, 10e9) == pytest.approx(7.987e-9, rel=1e-12)
    assert C.energy_per_inference(10.0, 1e9) == pytest.approx(10e-9)
    assert C.energy_per_inference(0.0, 10e9) == 0.0
    with pytest.raises(ShapeError):
        C.energy_per_inference(1.0, 0.0)


def test_mac_per_joule():
    eff = C.mac_per_joule(297_008, 79.87, 10e9)
    assert abs(eff - 3.7e13) / 3.7e13 < 0.01
    assert f"{eff:.2e}".startswith("3.72")
    assert C.mac_per_joule(1, 1.0, 1.0) == 1.0
    assert C.mac_per_joule(100, 2.0, 1e9) == pytest.approx(C.mac_per_joule(100, 1.0, 1e9) / 2)
    with pytest.raises(ShapeError):
        C.mac_per_joule(1, 0.0, 1e9)


def test_energy_efficiency_consistency():
    macs, p, f = 297_008, 79.87, 10e9
    product = C.energy_per_inference(p, f) * C.mac_per_joule(macs, p, f)
    assert abs(product - macs) / macs < 1e-9


def test_compare_published_rows():
    ref = {"params": 106_912, "mzis": 86_802}
    cand = {"params": 1_152, "mzis": 1_691}
    result = C.compare(ref, cand)
    assert result["param_ratio_text"] == "92.8x"
    assert result["mzi_ratio_text"] == "51.3x"


def test_compare_identity_and_antisymmetry():
    a = {"params": 500, "mzis": 300}
    assert C.compare(a, a)["param_ratio_text"] == "1.0x"
    b = {"params": 100, "mzis": 60}
    fwd = C.compare(a, b)
    back = C.compare(b, a)
    assert fwd["param_ratio"] == pytest.approx(1.0 / back["param_ratio"])
    assert fwd["mzi_ratio"] == pytest.approx(1.0 / back["mzi_ratio"])


def test_compare_rejects_zero_candidate():
    with pytest.raises(ShapeError):
        C.compare({"params": 10, "mzis": 10}, {"params": 0, "mzis": 10})


def _tiny_model(name="tiny_dense"):
    return M.build(M.ModelConfig.from_dict(G.CONFIGS[name]))


def test_power_override():
    report = C.build_report(_tiny_model(), 10e9, power_override=79.87)
    assert report["power_w"] == 79.87
    assert report["power_calibrated"]
    assert report["energy_per_inference_j"] == pytest.approx(7.987e-9)


def test_report_carries_reference_labels():
    report = C.build_report(_tiny_model(), 10e9, power_override=79.87)
    assert report["references"]["kind"] == "external_reference"
    assert report["references"]["rows"]["tomfn_attention"]["params"] == 1152
    assert report["power_model_status"] == "measured_total"


def test_uncalibrated_flag():
    model = _tiny_model()
    report = C.build_report(model, 1e9)
    assert not report["power_calibrated"]
    assert report["power_model_status"] == "uncalibrated"
    config = model.config
    assert report["power_w"] == C.estimate_power(
        report["mzis"], config.visual_dims[0] + config.audio_dims[0] + config.text.d_model,
        2 * config.heads, report["wdm_channels"])
    assert "uncalibrated" in C.format_table(report)


@pytest.mark.parametrize("name", ["tiny_dense", "tiny_tt"])
def test_report_counts_match_the_compiled_model(name):
    model = _tiny_model(name)
    report = C.build_report(model, 1e9)
    compiled = P.totals(P.compile_model(model).plans)
    assert {key: report[key] for key in compiled} == compiled
    assert report["compression_ratios"]["mzis"] == (
        P.dense_mzi_estimate(M.block_dims(model.config)) / report["mzis"])


def test_dense_mzi_estimate():
    dims = {"a": (4, 4), "b": (2, 2)}
    assert P.dense_mzi_estimate(dims) == (6 + 6 + 4) + (1 + 1 + 2)
