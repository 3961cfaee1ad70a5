"""Power, energy, and efficiency arithmetic plus comparison reports.

Inference is pipelined at the modulation clock, so one inference costs
E = P / f; MAC/J is then macs * f / P.  The component power model is a
placeholder (only the system total has a published value), which is why
reports flag it "uncalibrated" unless `total_override` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ShapeError
from .serialize import field, number

#: Published figures for the reference designs this toolkit is compared
#: against.  These are external reference values: they depend on training
#: data and rank/layout choices that are not part of this toolkit's
#: configuration, so nothing here recomputes them.
REFERENCE_FIGURES = {
    "kind": "external_reference",
    "note": (
        "Published reference values for the full-size fusion baselines and the "
        "tensorized designs (parameter, MZI and stage counts; per-emotion F1; "
        "efficiency). Not reproducible from this toolkit: the evaluation corpus "
        "is gated and the trained rank profile / mesh layout behind the "
        "tensorized counts is not disclosed. Property-based suites in tests/ "
        "stand in for them."
    ),
    "rows": {
        "tfn_full": {"params": 758_176, "mzis": 607_570, "stages": 2841,
                     "f1": {"happy": 83.6, "sad": 82.8, "angry": 84.2, "neutral": 65.4}},
        "lmf_full": {"params": 106_912, "mzis": 86_802, "stages": 921,
                     "f1": {"happy": 85.8, "sad": 85.9, "angry": 89.0, "neutral": 71.7}},
        "tomfn_lstm": {"params": 844, "mzis": 1540, "stages": 204, "mac_per_j": 1.9e13,
                       "f1": {"happy": 81.3, "sad": 78.2, "angry": 83.5, "neutral": 61.6}},
        "tomfn_attention": {"params": 1152, "mzis": 1691, "stages": 166, "mac_per_j": 3.7e13,
                            "f1": {"happy": 83.4, "sad": 82.7, "angry": 85.7, "neutral": 66.7}},
    },
}


@dataclass
class PowerModel:
    p_per_mzi_heater: float = 0.010  # W
    p_per_laser_channel: float = 0.100
    p_per_modulator: float = 0.025
    p_per_detector: float = 0.050
    p_electronic_overhead: float = 0.0
    total_override: float | None = None

    def __post_init__(self):
        for name, value in asdict(self).items():
            if name != "total_override" and value < 0:
                raise ShapeError(f"power component {name} must be >= 0")

    @property
    def calibrated(self) -> bool:
        return self.total_override is not None


def estimate_power(mzis: int, pm: PowerModel, n_inputs: int, n_outputs: int,
                   wdm_channels: int) -> float:
    """Component sum, unless the model carries a measured total override."""
    if min(mzis, n_inputs, n_outputs, wdm_channels) < 0:
        raise ShapeError("counts must be >= 0")
    if pm.total_override is not None:
        return float(pm.total_override)
    return (
        mzis * pm.p_per_mzi_heater
        + wdm_channels * pm.p_per_laser_channel
        + n_inputs * pm.p_per_modulator
        + n_outputs * pm.p_per_detector
        + pm.p_electronic_overhead
    )


def energy_per_inference(power_w: float, f_hz: float) -> float:
    """Joules per inference for a pipeline producing one result per clock."""
    if f_hz <= 0:
        raise ShapeError(f"clock must be positive, got {f_hz}")
    return power_w / f_hz


def mac_per_joule(macs: int, power_w: float, f_hz: float) -> float:
    if power_w <= 0:
        raise ShapeError(f"power must be positive, got {power_w}")
    return macs * f_hz / power_w


def ratio_text(r: float) -> str:
    return f"{r:.1f}x"


def compare(reference: dict, candidate: dict) -> dict:
    """Reduction ratios reference/candidate for params and MZIs, each count a finite
    JSON number (else DataError) above 0, with a finite ratio (else ShapeError)."""
    def ratio(key: str) -> float:
        ref, cand = (number(field(report, key, f"{side} report"), f"{side} {key}")
                     for side, report in (("reference", reference), ("candidate", candidate)))
        if min(ref, cand) <= 0 or not np.isfinite(ref / cand):
            raise ShapeError(f"{key} counts must be positive with a finite ratio: {ref}, {cand}")
        return ref / cand

    param_ratio, mzi_ratio = ratio("params"), ratio("mzis")
    return {
        "param_ratio": param_ratio,
        "mzi_ratio": mzi_ratio,
        "param_ratio_text": ratio_text(param_ratio),
        "mzi_ratio_text": ratio_text(mzi_ratio),
    }


@dataclass
class CostReport:
    params: int
    dense_equivalent_params: int
    mzis: int
    stages: int
    macs: dict  # per counting scope
    power_w: float
    power_calibrated: bool
    energy_per_inference_j: float
    mac_per_j: float
    clock_hz: float
    core_histogram: dict
    compression_ratios: dict
    wdm_channels: int

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["power_model_status"] = "measured_total" if self.power_calibrated else "uncalibrated"
        obj["references"] = REFERENCE_FIGURES
        return obj


def build_report(param_counts: dict, macs: dict, mzis: int, stages: int,
                 histogram: dict, wdm_channels: int, pm: PowerModel,
                 n_inputs: int, n_outputs: int, f_hz: float,
                 dense_mzis: int | None = None) -> CostReport:
    """Assemble the full report; MAC/J uses the subnetwork-weight scope."""
    power = estimate_power(mzis, pm, n_inputs, n_outputs, wdm_channels)
    energy = energy_per_inference(power, f_hz)
    eff = mac_per_joule(macs["subnet_weights_only"], power, f_hz)
    ratios = {
        "params": param_counts["dense_equivalent_total"] / max(param_counts["total"], 1),
    }
    if dense_mzis is not None and mzis > 0:
        ratios["mzis"] = dense_mzis / mzis
    ratios["text"] = {k: ratio_text(v) for k, v in ratios.items()}
    return CostReport(
        params=param_counts["total"],
        dense_equivalent_params=param_counts["dense_equivalent_total"],
        mzis=mzis,
        stages=stages,
        macs=macs,
        power_w=power,
        power_calibrated=pm.calibrated,
        energy_per_inference_j=energy,
        mac_per_j=eff,
        clock_hz=f_hz,
        core_histogram=histogram,
        compression_ratios=ratios,
        wdm_channels=wdm_channels,
    )


def dense_mzi_estimate(block_dims: dict) -> int:
    """Hypothetical MZI count if every logical matrix ran as one big SVD triple."""
    total = 0
    for m, n in block_dims.values():
        total += m * (m - 1) // 2 + n * (n - 1) // 2 + min(m, n)
    return total


def format_table(report: CostReport, compare_result: dict | None = None) -> str:
    """Fixed-width summary mirroring the published comparison columns."""
    rows = [
        ("# Param", f"{report.params:,}"),
        ("# Param (dense equivalent)", f"{report.dense_equivalent_params:,}"),
        ("# MZI", f"{report.mzis:,}"),
        ("# stage", f"{report.stages:,}"),
        ("MACs (subnet weights)", f"{report.macs['subnet_weights_only']:,}"),
        ("Power", f"{report.power_w:.4g} W"
         + ("" if report.power_calibrated else " (uncalibrated component model)")),
        ("Energy / inference", f"{report.energy_per_inference_j * 1e9:.4g} nJ"),
        ("Efficiency", f"{report.mac_per_j:.3e} MAC/J"),
    ]
    if compare_result is not None:
        rows.append(("Param reduction vs reference", compare_result["param_ratio_text"]))
        rows.append(("MZI reduction vs reference", compare_result["mzi_ratio_text"]))
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    sep = "-" * max(len(s) for s in lines)
    return "\n".join([sep] + lines + [sep])
