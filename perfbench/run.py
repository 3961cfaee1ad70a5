"""tomfn benchmark: describe/compile, TT and dense training, optical simulation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, then every traced run

One workload runs in one process, closed loop: a single caller issues the
next operation when the previous one has returned.  It sets up several
times (the median is `setup_s`), runs one warm-up cycle whose timings it
drops, then repeats the workload's cycle of operations until `--seconds`
have passed.  Timings are medians; the
detail line also gives the highest percentile with at least ten samples
beyond it, and the sample count.  The result line holds every end-to-end
metric of BENCHMARK.json on every workload: `op1_s` and `op2_s` report the
workload's two main operations (`describe_s`/`compile_s`,
`train_step_s`/`train_step_b64_s`, `simulate_s`/`simulate_noisy_s`), and
the detail line names every timing as the operation it is.

`--trace 1` gives the per-layer metrics listed in BENCHMARK.json instead.
After one warm-up cycle it alternates untraced and traced cycles (set-up
included) until `--seconds` have passed.  Calls and self time are per
traced cycle; `trace.overhead_s` is the median traced cycle's wall time
minus the median untraced one's.  The spans go to perfbench/out/.

BLAS runs on one thread: on a shared 2-core machine OpenBLAS's second
thread made small products bimodal (a dense B=8 train step took either
0.017 s or 0.23 s from one process to the next).

Output: a table, a detail line `{"perfbench": ...}` (machine record, seed,
timing summaries, check failures), and as the last line the result
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_SETUPS, MIN_SETUP_S = 5, 1.0  # set up at least 5 times and for at least 1 s
CHILD_TIMEOUT_S = 900
SLOTS = ("op1_s", "op2_s")  # end-to-end metrics that report workload.ops


def fatal(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fatal(f"cannot read BENCHMARK.json: {exc}")


def import_tomfn():
    """Import tomfn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tomfn", "__init__.py")):
        fatal(f"no tomfn sources under {SRC}")
    sys.path.insert(0, SRC)
    import tomfn

    if not os.path.abspath(tomfn.__file__).startswith(SRC + os.sep):
        fatal(f"imported tomfn from {tomfn.__file__}, not from {SRC}")
    return tomfn


# --- machine record -------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(tomfn) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "tomfn": tomfn.__version__,
        "git_commit": git_commit(),
    }


# --- one workload ---------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v) if v else None}
    if n > 10:
        out["p"] = round(100.0 * (n - 10) / n, 1)
        out["p_value"] = v[n - 11]
    return out


def set_up(workload, h) -> bool:
    start = time.perf_counter()
    while len(h.samples["setup_s"]) < MIN_SETUPS or time.perf_counter() - start < MIN_SETUP_S:
        if not h.op("setup_s", workload.setup):
            return False
    return True


def measured(workload, h, seconds: float, end_to_end: list[dict]) -> dict:
    """Every end-to-end metric of the manifest, named as there.

    `op1_s` and `op2_s` are the medians of the workload's two main
    operations (`workload.ops`), `cycle_s` the median total time of the
    operations of one cycle in which none failed.
    """
    if set_up(workload, h):
        # Warm-up: the first cycle pays first-use costs (the allocator growing
        # the heap), so its operations are checked and counted, not timed.
        workload.cycle(h)
        for name in [name for name in h.samples if name != "setup_s"]:
            del h.samples[name]
        start = time.perf_counter()
        while True:
            failed, h.timed_s = h.failed, 0.0
            workload.cycle(h)
            if h.failed == failed:
                h.samples["cycle_s"].append(h.timed_s)
            if time.perf_counter() - start >= seconds:
                break
    sources = {"setup_s": "setup_s", "cycle_s": "cycle_s", **dict(zip(SLOTS, workload.ops))}
    metrics = {}
    for entry in end_to_end:
        name = entry["name"]
        if name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
        elif name in sources:
            value = summarize(h.samples[sources[name]])["median"]
        else:
            fatal(f"end-to-end metric {name}: the benchmark does not measure it")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def traced(workload, h, tracer, seconds: float, per_layer: list[dict]) -> dict:
    def one_cycle(trace: bool) -> float:
        if trace:
            tracer.install()
        start = time.perf_counter()
        try:
            if h.op("setup_s", workload.setup):
                workload.cycle(h)
        finally:
            elapsed = time.perf_counter() - start
            if trace:
                tracer.uninstall()
        return elapsed

    one_cycle(False)  # warm-up: first-call costs land in neither side
    walls = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for trace in (False, True):
            walls[trace].append(one_cycle(trace))
        if time.perf_counter() - start >= seconds:
            break
    cycles = len(walls[True])
    s = tracer.summary()
    metrics = {}
    for entry in per_layer:
        name = entry["name"]
        if name == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        elif name.startswith("layer."):
            weight, stat = name[len("layer."):].rsplit(".", 1)
            durations = s["labelled"].get((stat, weight), [])
            value = statistics.median(durations) if durations else 0.0
        else:
            path, stat = name.rsplit(".", 1)
            value = s[stat].get(path, 0) / cycles
            if stat == "calls" and float(value).is_integer():
                value = int(value)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def trace_paths(per_layer: list[dict]) -> list[str]:
    """Functions to wrap, from names like `photonic.svd_map.calls`."""
    paths = []
    for entry in per_layer:
        name = entry["name"]
        if name == "trace.overhead_s" or name.startswith("layer."):
            continue
        path, stat = name.rsplit(".", 1)
        if stat not in ("calls", "self_s"):
            fatal(f"per-layer metric {name}: expected .calls or .self_s")
        paths.append(path)
    return paths


def check_reference(workload, seed: int, h):
    """At the seed recorded in reference.json, observed values must match it."""
    import numpy as np

    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    if seed != ref["seed"]:
        return
    for key, want in ref["workloads"].get(workload.name, {}).items():
        got = workload.observed.get(key)
        if got is None or np.shape(got) != np.shape(want) or not np.allclose(
                got, want, rtol=ref["rel_tol"], atol=0.0):
            h.fail("reference", ValueError(f"{key} = {got}, recorded {want}"))


def run_one(args, spec: dict) -> int:
    tomfn = import_tomfn()
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](work, workloads.derive_seeds(args.seed))
        tracer = spans.Tracer("tomfn", trace_paths(spec["per_layer"])) if args.trace else None
        h = workloads.Harness(tracer)
        if tracer is not None:
            metrics = traced(workload, h, tracer, args.seconds, spec["per_layer"])
            trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_file)
        else:
            metrics = measured(workload, h, args.seconds, spec["end_to_end"])
        check_reference(workload, args.seed, h)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name, m in metrics.items() if m["value"] is None]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": workload.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(tomfn),
        "timings": {name: summarize(v) for name, v in h.samples.items()},
        "observed": workload.observed,
        "errors": h.errors + [f"{name}: no successful sample" for name in missing],
    }
    if tracer is not None:
        detail["absent"] = tracer.absent
        detail["trace_file"] = os.path.relpath(trace_file, ROOT)
    correct = h.failed == 0 and not missing
    for name, m in metrics.items():
        print(f"{args.workload:<17} {name:<34} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": correct, "attempted": h.attempted, "failed": h.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# --- every workload ---------------------------------------------------------------


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, one after another; then the traced runs."""
    results, attempted, failed, correct = {}, 0, 0, True
    for trace in (0, 1):
        for entry in spec["workloads"]:
            name = entry["name"]
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                detail = json.loads(lines[-2])["perfbench"]
            except (IndexError, json.JSONDecodeError, KeyError):
                print(f"{name} (trace {trace}) exited {proc.returncode} without a result:\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            results[(name, trace)] = (result, detail)
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"] and proc.returncode == 0
            for error in detail["errors"]:
                print(f"{name}: {error}", file=sys.stderr)

    print("end to end (median; highest percentile with >= 10 samples beyond; sample count)")
    combined = {}
    for entry in spec["workloads"]:
        result, detail = results[(entry["name"], 0)]
        named = {metric: {"value": t["median"], "unit": "MB" if metric.endswith("_mb") else "s"}
                 for metric, t in detail["timings"].items()}
        named["peak_rss_mb"] = result["metrics"]["peak_rss_mb"]
        for metric, m in named.items():
            t = detail["timings"].get(metric, {})
            tail = f"p{t['p']:g} {t['p_value']:.6g}" if "p" in t else "-"
            print(f"  {entry['name']:<17} {metric:<18} {m['value']:>12.6g} {m['unit']:<3}"
                  f" {tail:>18}  n={t.get('n', 1)}")
            combined[f"{entry['name']}/{metric}"] = m
    print("per layer (per traced cycle; 0 where the workload does not reach it)")
    names = [entry["name"] for entry in spec["workloads"]]
    print(f"  {'metric':<40}" + "".join(f"{n:>18}" for n in names))
    for layer in spec["per_layer"]:
        row = [results[(n, 1)][0]["metrics"][layer["name"]]["value"] for n in names]
        print(f"  {layer['name']:<40}" + "".join(f"{v:>18.6g}" for v in row))
    absent = sorted({p for n in names for p in results[(n, 1)][1].get("absent", [])})
    print(f"absent functions: {', '.join(absent) or 'none'}")
    machine_record = results[(names[0], 0)][1]["machine"]
    print(f"machine: {json.dumps(machine_record)}; seed {args.seed}")
    for n in names:
        overhead = results[(n, 1)][0]["metrics"].get("trace.overhead_s")
        if overhead is not None:
            combined[f"{n}/trace.overhead_s"] = overhead
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
