"""The benchmark's workloads: set-up, one cycle of timed operations, output checks.

Each workload drives tomfn only through `cli.main` (in-process) and the
library API (`model.build`, `train.gen_synthetic`, `train.train_model`,
`train.evaluate`, `model.forward`), always through module attributes so a
traced run sees every call.  Inputs come from the workload seed alone: it
is split into a data seed, a model seed (the config's `seed`) and a noise
seed (`simulate --seed`).  The program receives only generated files
(config, JSONL, bundle) or arrays.

Every operation counts as attempted; an exception, a nonzero exit code or
a failed output check counts it as failed and drops its timing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from tomfn import cli, model as model_mod, train as train_mod

SEQ_LEN = 20  # tokens per sample (the default config's text.seq_len)
# Optical simulation runs per token; 5 tokens keep a sample near 1 s, so a run
# holds enough samples for a steady median.
SIM_SEQ_LEN = 5
NOISE_STD, GAMMA = 0.05, 1.0  # synthetic data: noise and interaction strength
TRAIN_SAMPLES, SMALL_BATCH = 64, 8  # the B=64 step and eval use every sample
SIM_SAMPLES, SIM_TRIALS, PHASE_SIGMA, PHASE_BITS = 1, 1, 0.01, 8

# The acceptance figures, and the compiled totals of the default config.
SUBNET_MACS, ENERGY_J, MAC_PER_J = 297_008, 7.987e-9, "3.72e+13"
MZIS, STAGES, WDM_CHANNELS = 40_044, 128, 8
POWER_W = "79.87"


class CheckError(Exception):
    """An operation ran but its output is wrong."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def derive_seeds(seed: int) -> dict:
    """Data, model and noise seeds, each in the signed 32-bit range."""
    data, model, noise = np.random.SeedSequence(seed).spawn(3)
    return {name: int(s.generate_state(1)[0] >> 1)
            for name, s in (("data", data), ("model", model), ("noise", noise))}


class Harness:
    """Runs operations: times them, checks their outputs, counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_s = 0.0  # total time of the operations that passed

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.recording = False
        try:
            yield
        finally:
            self.tracer.recording = True

    def fail(self, what: str, exc: BaseException):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def op(self, metric: str, fn, check=None) -> bool:
        """Time fn(), then run check(result) untimed and untraced; True if both pass."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.forget_names()
        gc.collect()  # every operation starts from the same collector state
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if check is not None:
                with self.untraced():
                    check(result)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(metric, exc)
            return False
        self.samples[metric].append(elapsed)
        self.timed_s += elapsed
        return True


def run_cli(argv: list[str]) -> int:
    """`tomfn <argv>` in-process, its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2


def expect_exit_ok(code: int, what: str):
    expect(code == 0, f"{what} exited with code {code}")


def write_json(obj, path: str):
    with open(path, "w") as f:
        json.dump(obj, f)


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def make_config(seeds: dict, tt: bool, seq_len: int = SEQ_LEN) -> model_mod.ModelConfig:
    config = model_mod.default_config()
    config.seed = seeds["model"]
    config.text.seq_len = seq_len
    if not tt:
        for flag in ("visual", "audio", "text", "fusion", "class_heads"):
            setattr(config.tt, flag, False)
    return config


def synthetic(config, seeds: dict, n: int) -> train_mod.Dataset:
    spec = train_mod.SynthSpec(n_samples=n, seq_len=config.text.seq_len, noise_std=NOISE_STD,
                               interaction_strength=GAMMA, seed=seeds["data"])
    return train_mod.gen_synthetic(spec, config)


class Workload:
    name = ""
    # The timings that the end-to-end slots op1_s and op2_s report, in that order.
    ops: tuple[str, str] = ("", "")

    def __init__(self, work_dir: str, seeds: dict):
        self.work = work_dir
        self.seeds = seeds
        self.observed: dict = {}  # values compared against the seed's reference

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup(self):
        raise NotImplementedError

    def cycle(self, h: Harness):
        raise NotImplementedError


class DescribeCompile(Workload):
    name = "describe-compile"
    ops = ("describe_s", "compile_s")

    def setup(self):
        self.config = make_config(self.seeds, tt=True)
        self.model = model_mod.build(self.config)
        write_json(self.config.to_dict(), self.path("config.json"))
        self.summary = None

    def check_describe(self, code):
        expect_exit_ok(code, "describe")
        rep = read_json(self.path("report.json"))
        self.summary = {"mzis": rep["mzis"], "stages": rep["stages"],
                        "wdm_channels": rep["wdm_channels"],
                        "core_histogram": rep["core_histogram"]}
        expect((rep["mzis"], rep["stages"], rep["wdm_channels"]) == (MZIS, STAGES, WDM_CHANNELS),
               f"describe totals {self.summary}")
        expect(rep["macs"]["subnet_weights_only"] == SUBNET_MACS,
               f"subnet MACs {rep['macs']['subnet_weights_only']} != {SUBNET_MACS}")
        expect(math.isclose(rep["energy_per_inference_j"], ENERGY_J, rel_tol=1e-12),
               f"energy {rep['energy_per_inference_j']} J != {ENERGY_J} J")
        expect(f"{rep['mac_per_j']:.2e}" == MAC_PER_J, f"efficiency {rep['mac_per_j']} MAC/J")
        params = model_mod.param_count(self.model)["total"]
        expect(rep["params"] == params, f"params {rep['params']} != model's {params}")

    def check_compile(self, code):
        expect_exit_ok(code, "compile")
        size = os.path.getsize(self.path("bundle.json"))
        summary = read_json(self.path("bundle.json"))["summary"]
        expect(summary == self.summary, f"compile summary {summary} != describe's {self.summary}")
        self.observed["bundle_bytes"] = size

    def cycle(self, h):
        h.op("describe_s", lambda: run_cli(
            ["describe", "--config", self.path("config.json"), "--power-override", POWER_W,
             "--out", self.path("report.json")]), self.check_describe)
        if h.op("compile_s", lambda: run_cli(
                ["compile", "--config", self.path("config.json"),
                 "--out", self.path("bundle.json")]), self.check_compile):
            h.samples["bundle_mb"].append(self.observed["bundle_bytes"] / 1e6)


class Train(Workload):
    ops = ("train_step_s", "train_step_b64_s")
    tt = True

    def setup(self):
        self.config = make_config(self.seeds, tt=self.tt)
        self.model = model_mod.build(self.config)
        self.data = synthetic(self.config, self.seeds, TRAIN_SAMPLES)
        order = np.random.default_rng(self.seeds["data"]).permutation(TRAIN_SAMPLES)
        self.small = [self.data.subset(order[i:i + SMALL_BATCH])
                      for i in range(0, TRAIN_SAMPLES, SMALL_BATCH)]
        self.steps = 0
        self.observed["losses"] = []

    def check_loss(self, result):
        _, history = result
        expect(len(history) == 1 and math.isfinite(history[0]), f"loss history {history}")
        if len(self.observed["losses"]) < 3:  # the first three losses are seed-determined
            self.observed["losses"].append(history[0])

    def check_eval(self, metrics):
        values = [metrics["accuracy"], *metrics["f1"].values()]
        expect(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), f"eval {metrics}")

    def step(self, h, metric, batch):
        opts = train_mod.TrainOpts(epochs=1, batch_size=len(batch), shuffle=False)
        h.op(metric, lambda: train_mod.train_model(self.model, batch, opts), self.check_loss)

    def small_steps(self, h, n: int):
        for _ in range(n):
            self.step(h, "train_step_s", self.small[self.steps % len(self.small)])
            self.steps += 1

    def cycle(self, h):
        # Four B=8 steps a cycle, so a run holds enough of them for a steady
        # median; the first three steps (B=8, B=8, B=64) give the reference losses.
        self.small_steps(h, 2)
        self.step(h, "train_step_b64_s", self.data)
        self.small_steps(h, 2)
        h.op("eval_s", lambda: train_mod.evaluate(self.model, self.data), self.check_eval)


class TrainTT(Train):
    name = "train-tt"


class TrainDense(Train):
    name = "train-dense"
    tt = False


class Simulate(Workload):
    name = "simulate"
    ops = ("simulate_s", "simulate_noisy_s")

    def setup(self):
        self.config = make_config(self.seeds, tt=True, seq_len=SIM_SEQ_LEN)
        self.model = model_mod.build(self.config)
        # gen_synthetic needs at least one sample per emotion (4).
        self.data = synthetic(self.config, self.seeds, 4).subset(np.arange(SIM_SAMPLES))
        train_mod.save_jsonl(self.data, self.path("samples.jsonl"))
        write_json(self.config.to_dict(), self.path("config.json"))
        code = run_cli(["compile", "--config", self.path("config.json"),
                        "--out", self.path("bundle.json")])
        expect_exit_ok(code, "set-up compile")
        self.expected = None

    def argv(self, out: str) -> list[str]:
        return ["simulate", "--bundle", self.path("bundle.json"),
                "--data", self.path("samples.jsonl"), "--out", self.path(out)]

    def check_ideal(self, doc):
        if self.expected is None:
            self.expected = np.stack([model_mod.forward(self.model, self.data.sample(i))
                                      for i in range(SIM_SAMPLES)])
        ideal = np.asarray(doc["ideal"])
        expect(ideal.shape == self.expected.shape, f"ideal outputs shaped {ideal.shape}")
        err = float(np.max(np.abs(ideal - self.expected)))
        expect(err <= 1e-9, f"optical != digital forward: max |diff| {err:.3e}")

    def check_plain(self, code):
        expect_exit_ok(code, "simulate")
        doc = read_json(self.path("ideal.json"))
        self.check_ideal(doc)
        expect(doc["mean_abs_error"] == 0.0, "ideal run reports a nonzero error")

    def check_noisy(self, code):
        expect_exit_ok(code, "simulate --trials")
        doc = read_json(self.path("noisy.json"))
        self.check_ideal(doc)
        mae = doc["mean_abs_error"]
        expect(math.isfinite(mae) and 0.0 < mae < 1.0, f"noisy mean_abs_error {mae}")
        self.observed["mean_abs_error"] = mae

    def cycle(self, h):
        h.op("simulate_s", lambda: run_cli(self.argv("ideal.json")), self.check_plain)
        noisy = self.argv("noisy.json") + [
            "--trials", str(SIM_TRIALS), "--phase-sigma", str(PHASE_SIGMA),
            "--bits", str(PHASE_BITS), "--seed", str(self.seeds["noise"])]
        h.op("simulate_noisy_s", lambda: run_cli(noisy), self.check_noisy)


WORKLOADS = {w.name: w for w in (DescribeCompile, TrainTT, TrainDense, Simulate)}

