#!/usr/bin/env python3
"""Hardware accounting for the full default model.

Builds the default network, counts the photonic cores its weights map to
(from TT modes and ranks alone, without decomposing a mesh), and
reproduces the headline arithmetic: 297,008 subnetwork MACs; at the
measured 79.87 W system total and a 10 GHz clock, 7.987 nJ per inference
and 3.7e13 MAC/J; and the published-row reduction ratios 92.8x / 51.3x.
"""

from tomfn import cost as C
from tomfn import model as M

cfg = M.default_config()
report = C.build_report(M.build(cfg), f_hz=10e9, power_override=79.87)
macs = report["macs"]

print("=== default model inventory ===")
print(f"stored parameters:        {report['params']:,}")
print(f"dense-equivalent:         {report['dense_equivalent_params']:,}")
print(f"MZIs:                     {report['mzis']:,}")
print(f"cascaded stages:          {report['stages']:,}")
print(f"WDM channels:             {report['wdm_channels']}")
print(f"core histogram:           {report['core_histogram']}")
print(f"MACs (subnet weights):    {macs['subnet_weights_only']:,}")
print(f"MACs (all weights):       {macs['all_weights']:,}")
print(f"MACs (runtime, L={cfg.text.seq_len}):    {macs['full_runtime']:,}")

print()
print("=== energy at the measured system power ===")
print(C.format_table(report))

print()
print("=== reduction ratios between the published reference rows ===")
rows = C.REFERENCE_FIGURES["rows"]
ratios = C.compare(
    {"params": rows["lmf_full"]["params"], "mzis": rows["lmf_full"]["mzis"]},
    {"params": rows["tomfn_attention"]["params"], "mzis": rows["tomfn_attention"]["mzis"]},
)
print(f"parameters: {ratios['param_ratio_text']}, MZIs: {ratios['mzi_ratio_text']}")
print()
print("note:", C.REFERENCE_FIGURES["note"])
