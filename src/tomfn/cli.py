"""Command-line entry point: describe, train, eval, compile, simulate.

Machine output is JSON (written to --out when given, stdout otherwise);
`describe` additionally prints a fixed-width summary table.  Every output
document embeds a run manifest (command, paths, seed, timestamp, version)
so results can be traced back to their configuration.

Exit codes: 0 ok, 2 config error, 3 data error, 4 compile/weights error,
5 simulate error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import cost as cost_mod
from . import model as model_mod
from . import photonic
from . import serialize
from . import train as train_mod
from .errors import (
    ConfigError,
    DataError,
    DecompositionError,
    MappingError,
    ShapeError,
)

EXIT_CONFIG, EXIT_DATA, EXIT_COMPILE, EXIT_SIMULATE = 2, 3, 4, 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _manifest(args, command: str, seed) -> dict:
    return {
        "command": command,
        "config": getattr(args, "config", None),
        "weights": getattr(args, "weights", None),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }


def _resolve_seed(args, config) -> int:
    """--seed, else $TOMFN_SEED, else the config's seed; numpy seeds are >= 0."""
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise CliError(EXIT_CONFIG, f"--seed must be >= 0, got {args.seed}")
        return args.seed
    env = os.environ.get("TOMFN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise CliError(EXIT_CONFIG, f"TOMFN_SEED must be an integer >= 0, got '{env}'")
        return seed
    return config.seed if config is not None else 0


def _load_config(path: str | None) -> model_mod.ModelConfig:
    if path is None:
        return model_mod.default_config()
    try:
        return model_mod.ModelConfig.from_dict(serialize.load_json(path))
    except (ConfigError, DataError) as exc:
        raise CliError(EXIT_CONFIG, f"config: {exc}") from exc


def _load_weights_into(config, path: str) -> model_mod.TOMFNModel:
    try:
        weights = serialize.weights_from_obj(serialize.load_json(path))
    except (DataError, ShapeError) as exc:
        raise CliError(EXIT_COMPILE, f"weights: {exc}") from exc
    expected = model_mod.block_dims(config)
    if set(weights) != set(expected):
        missing = sorted(set(expected) - set(weights))
        extra = sorted(set(weights) - set(expected))
        raise CliError(
            EXIT_COMPILE,
            f"weights/config mismatch: missing {missing[:4]}, unexpected {extra[:4]}",
        )
    for name, w in weights.items():
        out_dim, in_dim = expected[name]
        if hasattr(w, "cores"):
            # TT weights are (out, in) operators, possibly zero-padded upward.
            if w.nrows < out_dim or w.ncols < in_dim:
                raise CliError(
                    EXIT_COMPILE,
                    f"weights/config mismatch on '{name}': TT operator "
                    f"{w.nrows}x{w.ncols} cannot cover {out_dim}x{in_dim}",
                )
        else:
            want = (in_dim, out_dim) if name.startswith(model_mod.ROW_APPLIED) else (out_dim, in_dim)
            if w.shape != want:
                raise CliError(
                    EXIT_COMPILE,
                    f"weights/config mismatch on '{name}': {w.shape} vs expected {want}",
                )
    return model_mod.TOMFNModel(config, weights)


def _parse_synthetic(spec_string: str, config, fallback_seed: int) -> train_mod.SynthSpec:
    """Parse 'n=200,L=4,sigma=0.05,gamma=1,seed=0[,scale=1]'."""
    fields = {}
    for part in spec_string.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(EXIT_DATA, f"--synthetic entry '{part}' is not key=value")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    known = {"n", "L", "sigma", "gamma", "seed", "scale"}
    unknown = set(fields) - known
    if unknown:
        raise CliError(EXIT_DATA, f"--synthetic has unknown keys {sorted(unknown)}")
    try:
        return train_mod.SynthSpec(
            n_samples=int(fields.get("n", 200)),
            seq_len=int(fields.get("L", config.text.seq_len)),
            noise_std=float(fields.get("sigma", 0.05)),
            interaction_strength=float(fields.get("gamma", 1.0)),
            seed=int(fields.get("seed", fallback_seed)),
            template_scale=float(fields.get("scale", 1.0)),
        )
    except (ValueError, DataError) as exc:
        raise CliError(EXIT_DATA, f"--synthetic: {exc}") from exc


def _load_dataset(args, config, seed) -> train_mod.Dataset:
    """The --synthetic or --data samples, with every shape checked against `config`."""
    if args.synthetic is not None:
        ds = train_mod.gen_synthetic(_parse_synthetic(args.synthetic, config, seed), config)
    elif args.data is not None:
        try:
            ds = train_mod.load_jsonl(args.data)
        except DataError as exc:
            raise CliError(EXIT_DATA, str(exc)) from exc
    else:
        raise CliError(EXIT_DATA, "provide --synthetic or --data")
    try:
        model_mod.check_batch(config, ds.visual, ds.audio, ds.text, ds.labels)
    except ShapeError as exc:
        raise CliError(EXIT_DATA, f"samples do not fit the config: {exc}") from exc
    return ds


def _emit(obj: dict, out_path: str | None):
    if out_path:
        serialize.dump_json(obj, out_path)
    else:
        print(serialize.dumps(obj))


# --- commands ------------------------------------------------------------------


def cmd_describe(args) -> int:
    for option, value in (("--freq", args.freq), ("--power-override", args.power_override)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(EXIT_CONFIG, f"{option} must be finite and > 0, got {value}")
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    model = model_mod.build(config)
    try:
        totals = photonic.totals(config, photonic.model_shapes(model))
    except MappingError as exc:
        raise CliError(EXIT_CONFIG, f"cannot map this config onto photonic cores: {exc}") from exc
    params = model_mod.param_count(model)
    macs = {scope: model_mod.mac_count(model, scope)
            for scope in ("subnet_weights_only", "all_weights", "full_runtime")}
    pm = cost_mod.PowerModel(total_override=args.power_override)
    dims = model_mod.block_dims(config)
    n_inputs = config.visual_dims[0] + config.audio_dims[0] + config.text.d_model
    n_outputs = config.heads * 2
    report = cost_mod.build_report(
        params, macs, totals["mzis"], totals["stages"], totals["core_histogram"],
        totals["wdm_channels"], pm, n_inputs, n_outputs, args.freq,
        dense_mzis=photonic.dense_mzi_estimate(dims),
    )
    comparison = None
    if args.compare:
        try:
            ref_obj = serialize.load_json(args.compare)
            if isinstance(ref_obj, dict) and "reference" in ref_obj and "candidate" in ref_obj:
                comparison = cost_mod.compare(ref_obj["reference"], ref_obj["candidate"])
            else:
                comparison = cost_mod.compare(ref_obj, {"params": report.params, "mzis": report.mzis})
        except (DataError, ShapeError) as exc:
            raise CliError(EXIT_DATA, f"--compare: {exc}") from exc
    doc = report.to_obj()
    doc["manifest"] = _manifest(args, "describe", seed)
    if comparison is not None:
        doc["comparison"] = comparison
    _emit(doc, args.out)
    print(cost_mod.format_table(report, comparison))
    return 0


def _check_train_args(args):
    if args.batch < 1:
        raise CliError(EXIT_CONFIG, f"--batch must be >= 1, got {args.batch}")
    if args.epochs < 0:
        raise CliError(EXIT_CONFIG, f"--epochs must be >= 0, got {args.epochs}")
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise CliError(EXIT_CONFIG, f"--lr must be finite and > 0, got {args.lr}")
    if args.target_acc is not None and not 0.0 <= args.target_acc <= 1.0:
        raise CliError(EXIT_CONFIG, f"--target-acc must lie in [0, 1], got {args.target_acc}")


def cmd_train(args) -> int:
    _check_train_args(args)
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    dataset = _load_dataset(args, config, seed)
    model = model_mod.build(config)
    opts = train_mod.TrainOpts(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch, seed=seed,
        target_accuracy=args.target_acc,
    )
    _, history = train_mod.train_model(model, dataset, opts)
    metrics = train_mod.evaluate(model, dataset)
    if args.out:
        serialize.dump_json(serialize.weights_to_obj(model.weights), args.out)
    metrics_doc = {
        "manifest": _manifest(args, "train", seed),
        "f1": metrics["f1"],
        "accuracy": metrics["accuracy"],
        "loss_history": history,
        "epochs_run": len(history),
    }
    metrics_path = args.metrics_out or (args.out + ".metrics.json" if args.out else None)
    _emit(metrics_doc, metrics_path)
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    if not args.weights:
        raise CliError(EXIT_COMPILE, "eval requires --weights")
    model = _load_weights_into(config, args.weights)
    dataset = _load_dataset(args, config, seed)
    metrics = train_mod.evaluate(model, dataset)
    doc = {"manifest": _manifest(args, "eval", seed), **metrics}
    _emit(doc, args.out)
    return 0


def cmd_compile(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    if args.weights:
        model = _load_weights_into(config, args.weights)
    else:
        model = model_mod.build(config)
    try:
        bundle = photonic.compile_model(model)
    except (MappingError, DecompositionError) as exc:
        raise CliError(EXIT_COMPILE, str(exc)) from exc
    doc = photonic.bundle_to_obj(bundle)
    doc["manifest"] = _manifest(args, "compile", seed)
    summary = doc["summary"] = photonic.totals(config, bundle.plans)
    _emit(doc, args.out)
    if args.out:
        print(f"wrote netlist bundle: {summary['mzis']} MZIs, "
              f"{summary['stages']} stages, histogram {summary['core_histogram']}")
    return 0


def cmd_simulate(args) -> int:
    try:
        photonic.check_noise(args.phase_sigma, args.bits)
    except ShapeError as exc:
        raise CliError(EXIT_SIMULATE, str(exc)) from exc
    if args.trials < 0:
        raise CliError(EXIT_SIMULATE, f"trials must be >= 0, got {args.trials}")
    if args.bundle:
        try:
            bundle = photonic.bundle_from_obj(serialize.load_json(args.bundle))
        except (DataError, ConfigError) as exc:
            raise CliError(EXIT_DATA, f"bundle: {exc}") from exc
        config = bundle.config
        seed = _resolve_seed(args, config)
    else:
        config = _load_config(args.config)
        seed = _resolve_seed(args, config)
        if not args.weights:
            raise CliError(EXIT_COMPILE, "simulate requires --bundle, or --config with --weights")
        model = _load_weights_into(config, args.weights)
        try:
            bundle = photonic.compile_model(model)
        except MappingError as exc:
            raise CliError(EXIT_COMPILE, str(exc)) from exc
    if not args.data:
        raise CliError(EXIT_DATA, "simulate requires --data with input samples")
    try:
        dataset = train_mod.load_jsonl(args.data)
    except DataError as exc:
        raise CliError(EXIT_DATA, str(exc)) from exc

    # Each trial draws one static set of phase errors, realizes the
    # perturbed plans as weights, and runs the digital forward on them.
    try:
        ideal = train_mod.probabilities(photonic.realize(bundle), dataset)
    except ShapeError as exc:
        raise CliError(EXIT_SIMULATE, f"samples do not fit the compiled model: {exc}") from exc
    errors = []
    for trial in range(args.trials):
        plans = photonic.perturb_bundle(bundle, args.phase_sigma, args.bits, seed + trial)
        errors.append(np.abs(train_mod.probabilities(photonic.realize(bundle, plans), dataset) - ideal))
    errors = np.asarray(errors)
    doc = {
        "manifest": _manifest(args, "simulate", seed),
        "n_samples": len(dataset),
        "trials": args.trials,
        "phase_sigma": args.phase_sigma,
        "bits": args.bits,
        "ideal": ideal.tolist(),
        "mean_abs_error": float(errors.mean()) if errors.size else 0.0,
        "max_abs_error": float(errors.max()) if errors.size else 0.0,
    }
    _emit(doc, args.out)
    return 0


# --- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomfn",
        description="Tensorized multimodal fusion networks on MZI-mesh photonics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=False, data=False):
        p.add_argument("--config", help="model config JSON (defaults apply if omitted)")
        p.add_argument("--out", help="write machine-readable JSON here")
        p.add_argument("--seed", type=int, help="seed override (else $TOMFN_SEED, else config)")
        if weights:
            p.add_argument("--weights", help="weights JSON file")
        if data:
            grp = p.add_mutually_exclusive_group()
            grp.add_argument("--synthetic", help="n=..,L=..,sigma=..,gamma=..,seed=..[,scale=..]")
            grp.add_argument("--data", help="JSONL dataset path")

    p = sub.add_parser("describe", help="parameter/MZI/stage/energy accounting")
    common(p)
    p.add_argument("--power-override", type=float, help="measured total system power in W")
    p.add_argument("--freq", type=float, default=10e9, help="modulation clock in Hz")
    p.add_argument("--compare", help="reference report JSON for reduction ratios")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("train", help="train on synthetic or JSONL data")
    common(p, weights=False, data=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--target-acc", type=float, help="stop early at this train accuracy")
    p.add_argument("--metrics-out", help="metrics JSON path (default: <out>.metrics.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate stored weights on a dataset")
    common(p, weights=True, data=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compile", help="map weights onto MZI-mesh core plans")
    common(p, weights=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run the optical forward pass, optionally noisy")
    common(p, weights=True, data=True)
    p.add_argument("--bundle", help="netlist bundle from `tomfn compile`")
    p.add_argument("--phase-sigma", type=float, default=0.0, help="phase jitter std (rad)")
    p.add_argument("--bits", type=int, default=0, help="phase quantization bits (0: none)")
    p.add_argument("--trials", type=int, default=0, help="number of perturbed runs")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"tomfn {args.command}: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"tomfn {args.command}: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"tomfn {args.command}: data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
