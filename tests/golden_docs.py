"""Golden documents: a fixed list of CLI runs whose outputs must keep every bit.

    PYTHONPATH=src python tests/golden_docs.py

runs the commands in a temporary directory and rewrites `tests/golden/`:
one file per document, the timestamp-stripped `serialize.dumps` text, and
`digests.json` with the sha256 of the default config's compile and simulate
documents, which are too large to commit.  `build.json` records the numpy and BLAS build that
wrote them, because the bits may depend on it.  `tests/test_golden.py` runs
the same commands and compares.

Regenerating the goldens is a deliberate change in behaviour: log it in
CHANGES.md, and never regenerate them to make a failing check pass.
"""

import os

if __name__ == "__main__":  # BLAS on one thread, as the tests run it; before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import base64
import contextlib
import hashlib
import json
import pathlib
import tempfile

import numpy as np

from tomfn import cli
from tomfn import cost as C
from tomfn import model as M
from tomfn import train as T
from tomfn.serialize import dump_json, dumps

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The CLI tests use these configs too; the goldens pin them, so changing one
# means regenerating the goldens.
TINY = {
    "visual_dims": [8, 4],
    "audio_dims": [6, 4],
    "text": {"d_model": 8, "heads": 2, "d_head": 4, "d_out": 4, "seq_len": 3, "pooling": "mean"},
    "fusion": {"r": 2, "d_h": 4},
    "heads": 4,
    "tt": {"visual": False, "audio": False, "text": False, "fusion": False,
           "class_heads": False, "max_rank": 16, "tol": 0.0, "max_factor": 8},
    "seed": 1,
}
CONFIGS = {
    "tiny_dense": TINY,
    # Factors of at most 2: every weight is a TT of several cores, with bond ranks up to 4.
    "tiny_tt": {**TINY, "tt": {**TINY["tt"], "visual": True, "audio": True, "text": True,
                               "fusion": True, "class_heads": True, "max_factor": 2}},
}
SIMULATIONS = {f"simulate_{kind}_seed{seed}": ["--seed", str(seed)] + flags
               for seed in (0, 2)
               for kind, flags in (("ideal", []),
                                   ("noisy", ["--trials", "2", "--phase-sigma", "0.01", "--bits", "8"]))}
COMMANDS = ("describe", "train", "eval", "compile", *SIMULATIONS)
# Each tiny config's command documents and the weights file its `train --out` writes, then the default config's.
DOCUMENTS = (*(f"{config}/{name}" for config in CONFIGS for name in (*COMMANDS, "weights")),
             "default/describe", "default/describe_measured")
DIGESTS = ("default/compile", "default/simulate_noisy_seed0")


def _document(path: str) -> str:
    with open(path) as f:
        doc = json.load(f)
    if "manifest" in doc:  # a weights file has none
        doc["manifest"].pop("timestamp")
    return dumps(doc)


def _run(argv: list[str], doc_path: str) -> str:
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tomfn {' '.join(argv)} exited {code}")
    return _document(doc_path)


def _samples(config: M.ModelConfig, path: str) -> str:
    """4 synthetic samples of the config's sequence length, as a JSONL file."""
    T.save_jsonl(T.gen_synthetic(T.SynthSpec(n_samples=4, seq_len=config.text.seq_len, seed=11),
                                 config), path)
    return path


def _config_documents(config: dict) -> dict[str, str]:
    """Every document of the command list on one config, run in the working directory."""
    dump_json(config, "config.json")
    synthetic = ["--config", "config.json", "--synthetic", "n=8,L=3,seed=3"]
    docs = {"describe": _run(["describe", "--config", "config.json", "--out", "describe.json"],
                             "describe.json"),
            "train": _run(["train", *synthetic, "--epochs", "2", "--out", "weights.json",
                           "--metrics-out", "train.json"], "train.json"),
            "weights": _document("weights.json"),
            "eval": _run(["eval", *synthetic, "--weights", "weights.json", "--out", "eval.json"],
                         "eval.json"),
            "compile": _run(["compile", "--config", "config.json", "--weights", "weights.json",
                             "--out", "bundle.json"], "bundle.json")}
    data = _samples(M.ModelConfig.from_dict(config), "samples.jsonl")
    for name, flags in SIMULATIONS.items():
        docs[name] = _run(["simulate", "--bundle", "bundle.json", "--data", data, *flags,
                           "--out", f"{name}.json"], f"{name}.json")
    return docs


@contextlib.contextmanager
def _working_directory(path):
    """`contextlib.chdir`, which needs Python 3.11."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_documents(workdir) -> dict[str, str]:
    """Name -> timestamp-stripped document text, on the tiny configs and the default one."""
    docs = {}
    for config_name, config in CONFIGS.items():
        (pathlib.Path(workdir) / config_name).mkdir()
        with _working_directory(pathlib.Path(workdir) / config_name):
            docs.update({f"{config_name}/{k}": v for k, v in _config_documents(config).items()})
    (pathlib.Path(workdir) / "default").mkdir()
    with _working_directory(pathlib.Path(workdir) / "default"):
        docs["default/describe"] = _run(["describe", "--out", "describe.json"], "describe.json")
        # The measured system power, and the published rows that give 92.8x and 51.3x.
        rows = C.REFERENCE_FIGURES["rows"]
        dump_json({"reference": rows["lmf_full"], "candidate": rows["tomfn_attention"]},
                  "compare.json")
        docs["default/describe_measured"] = _run(
            ["describe", "--power-override", "79.87", "--compare", "compare.json",
             "--out", "describe_measured.json"], "describe_measured.json")
        docs["default/compile"] = _run(["compile", "--out", "bundle.json"], "bundle.json")
        data = _samples(M.default_config(), "samples.jsonl")
        docs["default/simulate_noisy_seed0"] = _run(
            ["simulate", "--bundle", "bundle.json", "--data", data,
             *SIMULATIONS["simulate_noisy_seed0"], "--out", "simulate.json"], "simulate.json")
    return docs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_info() -> dict:
    """numpy's version and its BLAS and LAPACK builds."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"numpy": np.__version__,
            **{lib: f"{deps[lib]['name']} {deps[lib]['version']}: {deps[lib].get('openblas configuration', '')}"
               for lib in ("blas", "lapack")}}


def _leaves(node, path=""):
    """(key path, value) of every leaf, in `dumps` order; a bundle's base64 array
    objects are read as the lists of numbers they hold."""
    if isinstance(node, dict) and set(node) == {"dtype", "shape", "data"}:
        node = np.frombuffer(base64.b64decode(node["data"]), node["dtype"]).reshape(node["shape"]).tolist()
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def difference(got: str, want: str, rel: float = 0.0) -> str | None:
    """None when the documents agree (to the bit, or each number to a relative `rel`);
    else the first differing key path and the largest absolute difference."""
    if got == want:
        return None
    got_leaves, want_leaves = dict(_leaves(json.loads(got))), dict(_leaves(json.loads(want)))

    def same(a, b):
        if isinstance(a, float) and isinstance(b, float) and rel:
            return abs(a - b) <= rel * max(abs(a), abs(b))
        return type(a) is type(b) and repr(a) == repr(b)

    first = next((path for path in (*want_leaves, *got_leaves)
                  if path not in got_leaves or path not in want_leaves
                  or not same(got_leaves[path], want_leaves[path])), None)
    if first is None:
        return None
    diffs = [abs(got_leaves[p] - want_leaves[p]) for p in got_leaves.keys() & want_leaves.keys()
             if all(type(v) in (int, float) for v in (got_leaves[p], want_leaves[p]))]
    return (f"first difference at {first}: got {got_leaves.get(first, '<missing>')!r:.60}, "
            f"want {want_leaves.get(first, '<missing>')!r:.60}; largest absolute difference "
            f"{max(diffs, default=0.0):.3g}")


def main():
    with tempfile.TemporaryDirectory() as workdir:
        docs = run_documents(workdir)
    for name in DOCUMENTS:
        path = GOLDEN / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(docs[name] + "\n")
    (GOLDEN / "digests.json").write_text(
        json.dumps({name: sha256(docs[name]) for name in DIGESTS}, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "build.json").write_text(json.dumps(build_info(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
