import numpy as np
import pytest

from tomfn import cost as C
from tomfn import photonic as P
from tomfn.errors import ShapeError


def test_power_override():
    pm = C.PowerModel(total_override=79.87)
    assert C.estimate_power(10_000, pm, 416, 8, 8) == 79.87


def test_power_zero_components():
    pm = C.PowerModel(0, 0, 0, 0, 0)
    assert C.estimate_power(1000, pm, 10, 10, 4) == 0.0


def test_power_heaters_only():
    pm = C.PowerModel(p_per_mzi_heater=0.010, p_per_laser_channel=0,
                      p_per_modulator=0, p_per_detector=0)
    assert C.estimate_power(100, pm, 0, 0, 0) == pytest.approx(1.0)


def test_power_monotone_in_counts():
    pm = C.PowerModel()
    base = C.estimate_power(100, pm, 10, 10, 2)
    assert C.estimate_power(101, pm, 10, 10, 2) >= base
    assert C.estimate_power(100, pm, 11, 10, 2) >= base
    assert C.estimate_power(100, pm, 10, 10, 3) >= base


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


def test_report_carries_reference_labels():
    param_counts = {"total": 1000, "dense_equivalent_total": 5000}
    report = C.build_report(
        param_counts,
        macs={"subnet_weights_only": 297_008},
        mzis=2000,
        stages=100,
        histogram={"4x4": 2},
        wdm_channels=4,
        pm=C.PowerModel(total_override=79.87),
        n_inputs=416,
        n_outputs=8,
        f_hz=10e9,
    )
    obj = report.to_obj()
    assert obj["references"]["kind"] == "external_reference"
    assert obj["references"]["rows"]["tomfn_attention"]["params"] == 1152
    assert obj["power_model_status"] == "measured_total"
    assert obj["energy_per_inference_j"] == pytest.approx(7.987e-9)


def test_uncalibrated_flag():
    report = C.build_report(
        {"total": 10, "dense_equivalent_total": 10},
        macs={"subnet_weights_only": 100},
        mzis=10, stages=5, histogram={}, wdm_channels=1,
        pm=C.PowerModel(), n_inputs=4, n_outputs=2, f_hz=1e9,
    )
    assert not report.power_calibrated
    assert "uncalibrated" in C.format_table(report)


def test_dense_mzi_estimate():
    dims = {"a": (4, 4), "b": (2, 2)}
    assert P.dense_mzi_estimate(dims) == (6 + 6 + 4) + (1 + 1 + 2)
