"""In-memory call spans around tomfn functions, installed from outside the program.

A traced run wraps module attributes of the `tomfn` package (and methods
such as `train.Adam.step`) while a traced cycle runs.  Every call records
one span: function name, start, end, index of the enclosing span, and a
label.  The spans stay in memory until the run ends; `summary` then gives
each function's call count and self time (its duration minus the time its
wrapped children cover), and `write` dumps the raw spans.

Spans of functions whose first argument is a model weight or a layer plan
carry that weight's name as label, which gives the per-weight table.  The
names come from the objects the program hands around: `compile_model`
receives the model (weights by name) and returns a bundle (plans by name),
and `bundle_from_obj` and `perturb_bundle` return plans by name.

A function that does not exist in the program is reported as absent, so a
later change may delete or rename one without breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# First argument is a weight (compile) or a plan (apply); its name labels the span.
LABELLED = {
    "photonic.map_tt_layer": "compile_s",
    "photonic.map_dense_layer": "compile_s",
    "photonic.plan_apply": "apply_s",
}
# Calls whose arguments or results name the weights and plans above.
NAMING = ("photonic.compile_model", "photonic.bundle_from_obj", "photonic.perturb_bundle")


class Tracer:
    def __init__(self, package: str, paths):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, label]
        self.absent: list[str] = []
        self.recording = True
        self._stack: list[int] = []
        self._names: dict[int, tuple[object, str]] = {}  # id -> (object kept alive, name)
        self._patched: list[tuple[object, str, object]] = []
        self._targets = []
        for path in dict.fromkeys([*paths, *LABELLED, *NAMING]):
            target = self._resolve(path)
            if target is None:
                self.absent.append(path)
            else:
                self._targets.append(target)

    def _resolve(self, path: str):
        module_name, *attrs = path.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or not attrs or not callable(getattr(owner, attrs[-1], None)):
            return None
        return owner, attrs[-1], path

    # --- weight and plan names -------------------------------------------------

    def forget_names(self):
        """Drop the name registry (call between operations)."""
        self._names.clear()

    def _register(self, named: dict):
        for name, obj in named.items():
            self._names[id(obj)] = (obj, name)

    def _name_of(self, obj):
        hit = self._names.get(id(obj)) or self._names.get(id(getattr(obj, "base", None)))
        return hit[1] if hit else None

    def _before(self, path, args):
        if path == "photonic.compile_model" and args:
            self._register(getattr(args[0], "weights", {}))

    def _after(self, path, result):
        if path in ("photonic.compile_model", "photonic.bundle_from_obj"):
            self._register(getattr(result, "plans", {}))
        elif path == "photonic.perturb_bundle" and isinstance(result, dict):
            self._register(result)

    # --- installation ----------------------------------------------------------

    def _wrap(self, fn, path):
        labelled = path in LABELLED
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._before(path, args)
            label = self._name_of(args[0]) if labelled and args else None
            index = len(spans)
            spans.append([path, time.perf_counter(), 0.0, stack[-1] if stack else -1, label])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            self._after(path, result)
            return result

        return traced

    def install(self):
        for owner, attr, path in self._targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.forget_names()

    # --- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls and self seconds; per (function, label): durations."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        labelled: dict[tuple[str, str], list[float]] = defaultdict(list)
        for i, (path, start, end, _, label) in enumerate(self.spans):
            calls[path] += 1
            self_s[path] += (end - start) - covered[i]
            if label is not None:
                labelled[(LABELLED[path], label)].append(end - start)
        return {"calls": dict(calls), "self_s": dict(self_s), "labelled": dict(labelled)}

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "label"],
                       "spans": self.spans}, f)
