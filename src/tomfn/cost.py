"""Power, energy, and efficiency arithmetic plus comparison reports.

Inference is pipelined at the modulation clock, so one inference costs
E = P / f; MAC/J is then macs * f / P.  The component power model is a
placeholder (only the system total has a published value), which is why
reports flag it "uncalibrated" unless `power_override` (the CLI's
`--power-override`) gives the measured total.
"""

from __future__ import annotations

import numpy as np

from . import model as model_mod
from . import photonic
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


#: Component power model, in W: per MZI heater, per WDM laser channel,
#: per input modulator and per output detector.
HEATER_W, LASER_CHANNEL_W, MODULATOR_W, DETECTOR_W = 0.010, 0.100, 0.025, 0.050


def estimate_power(mzis: int, n_inputs: int, n_outputs: int, wdm_channels: int) -> float:
    """The uncalibrated component sum."""
    if min(mzis, n_inputs, n_outputs, wdm_channels) < 0:
        raise ShapeError("counts must be >= 0")
    return (mzis * HEATER_W + wdm_channels * LASER_CHANNEL_W
            + n_inputs * MODULATOR_W + n_outputs * DETECTOR_W)


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


def build_report(model, f_hz: float, power_override: float | None = None) -> dict:
    """The `describe` document at clock `f_hz`, counted from the core shapes without
    compiling a mesh; a weight above the core-size cap raises MappingError.  MAC/J uses
    the subnetwork-weight scope; a measured `power_override` (W) replaces the component sum."""
    config = model.config
    totals = photonic.totals(photonic.model_shapes(model))
    params = model_mod.param_count(model)
    macs = model_mod.mac_count(model)
    if power_override is None:
        power = estimate_power(totals["mzis"],
                               config.visual_dims[0] + config.audio_dims[0] + config.text.d_model,
                               config.heads * 2, totals["wdm_channels"])
    else:
        power = float(power_override)
    ratios = {
        "params": params["dense_equivalent_total"] / max(params["total"], 1),
        # Every core slice carries min(m, n) >= 1 attenuator MZIs, so mzis > 0.
        "mzis": photonic.dense_mzi_estimate(model_mod.block_dims(config)) / totals["mzis"],
    }
    ratios["text"] = {k: ratio_text(v) for k, v in ratios.items()}
    return {
        **totals,  # mzis, stages, wdm_channels, core_histogram
        "params": params["total"],
        "dense_equivalent_params": params["dense_equivalent_total"],
        "macs": macs,
        "power_w": power,
        "power_calibrated": power_override is not None,
        "energy_per_inference_j": energy_per_inference(power, f_hz),
        "mac_per_j": mac_per_joule(macs["subnet_weights_only"], power, f_hz),
        "clock_hz": f_hz,
        "compression_ratios": ratios,
        "power_model_status": "uncalibrated" if power_override is None else "measured_total",
        "references": REFERENCE_FIGURES,
    }


def format_table(report: dict, compare_result: dict | None = None) -> str:
    """Fixed-width summary of a `build_report` document, as the published columns."""
    rows = [
        ("# Param", f"{report['params']:,}"),
        ("# Param (dense equivalent)", f"{report['dense_equivalent_params']:,}"),
        ("# MZI", f"{report['mzis']:,}"),
        ("# stage", f"{report['stages']:,}"),
        ("MACs (subnet weights)", f"{report['macs']['subnet_weights_only']:,}"),
        ("Power", f"{report['power_w']:.4g} W"
         + ("" if report["power_calibrated"] else " (uncalibrated component model)")),
        ("Energy / inference", f"{report['energy_per_inference_j'] * 1e9:.4g} nJ"),
        ("Efficiency", f"{report['mac_per_j']:.3e} MAC/J"),
    ]
    if compare_result is not None:
        rows.append(("Param reduction vs reference", compare_result["param_ratio_text"]))
        rows.append(("MZI reduction vs reference", compare_result["mzi_ratio_text"]))
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    sep = "-" * max(len(s) for s in lines)
    return "\n".join([sep] + lines + [sep])
