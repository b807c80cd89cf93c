"""Span tracing of lineariv's public functions, applied from outside the package.

``Tracer.install()`` wraps each function listed in ``TRACED`` and rebinds the
wrapper under every name that refers to the original: in its defining module
and in each module that imported it with ``from .x import y``.  Methods are
patched on their class.  ``uninstall()`` puts the originals back.

Spans (name, start, end, parent span, op id) are kept in flat in-memory arrays
and written out once at the end.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nest, so the
children cover disjoint parts of the parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# Modules whose namespaces may hold a reference to a traced function.
MODULES = ("glm", "dataset", "rng", "inference", "simlab", "models",
           "estimators", "adaptive", "suites", "cli")

# (module, qualified name in that module, span name)
TRACED = (
    ("glm", "fit_binary", "glm.fit_binary"),
    ("glm", "fit_ols", "glm.fit_ols"),
    ("glm", "fit_wls", "glm.fit_wls"),
    ("dataset", "build_design", "dataset.build_design"),
    ("dataset", "load_csv", "dataset.load_csv"),
    ("dataset", "Dataset.take", "dataset.Dataset.take"),
    ("rng", "make_generator", "rng.make_generator"),
    ("inference", "bootstrap_ci", "inference.bootstrap_ci"),
    ("inference", "sandwich_se", "inference.sandwich_se"),
    ("simlab", "generate", "simlab.generate"),
    ("simlab", "run_monte_carlo", "simlab.run_monte_carlo"),
    ("simlab", "write_report_csv", "simlab.write_report"),
    ("simlab", "write_report_json", "simlab.write_report"),
    ("models", "BinaryLogisticIv.fit", "models.BinaryLogisticIv.fit"),
    ("models", "ExposureModel.fit", "models.ExposureModel.fit"),
    ("estimators", "standard_tsls", "estimators.standard_tsls"),
    ("estimators", "plug_in_two_stage", "estimators.plug_in_two_stage"),
    ("estimators", "locally_efficient_y", "estimators.locally_efficient_y"),
    ("estimators", "g_estimate", "estimators.g_estimate"),
    ("estimators", "centered_index", "estimators.centered_index"),
    ("estimators", "efficient_index", "estimators.efficient_index"),
    ("adaptive", "eem_estimate", "adaptive.eem_estimate"),
    ("adaptive", "br_gamma_estimate", "adaptive.br_gamma_estimate"),
    ("adaptive", "br_beta_estimate", "adaptive.br_beta_estimate"),
    ("suites", "table1_gates", "suites.gates"),
    ("cli", "main", "cli.main"),
)

# Span opened by the benchmark around each call of a suite bundle closure.
BUNDLE_SPAN = "suites.bundle"
# Span of the benchmark's own reference-kernel samples (see refclock.py).
REFERENCE_SPAN = "bench.reference"

NOTES = [
    "efficient_index only builds a closure; the time spent evaluating that "
    "closure lands under centered_index / g_estimate, not under efficient_index.",
    "counts and self times are per op; self time = span time minus the time of "
    "its direct child spans.",
]


def _data_key(data) -> int:
    return hash((data.y.tobytes(), data.x.tobytes(), data.z.tobytes(), data.c_raw.tobytes()))


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op = 0
        self.counters: dict[str, float] = defaultdict(float)
        # distinct-input tracking, reset at every op boundary
        self._distinct: dict[str, set] = defaultdict(set)
        self._data_keys: dict[int, tuple] = {}
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def end_op(self) -> None:
        """Marks an op boundary: folds the per-op distinct-input sets."""
        for key, seen in self._distinct.items():
            self.counters[key + ".distinct"] += len(seen)
        self._distinct.clear()
        self._data_keys.clear()
        self.op += 1

    # -- counters taken from arguments and return values ---------------------

    def _dataset_key(self, data) -> int:
        entry = self._data_keys.get(id(data))
        if entry is None:
            entry = (data, _data_key(data))   # holds data so its id is not reused
            self._data_keys[id(data)] = entry
        return entry[1]

    def _before(self, span_name: str, args, kwargs) -> None:
        if span_name == "glm.fit_binary":
            design, response = args[0], args[1] if len(args) > 1 else kwargs["response"]
            link = args[2] if len(args) > 2 else kwargs.get("link", "logit")
            self._distinct[span_name].add(
                hash((np.asarray(design, dtype=float).tobytes(),
                      np.asarray(response, dtype=float).tobytes(), link)))
        elif span_name == "dataset.build_design":
            data, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
            self._distinct[span_name].add((self._dataset_key(data), spec))

    def _after(self, span_name: str, args, kwargs, result) -> None:
        c = self.counters
        if span_name == "glm.fit_binary":
            c["glm.fit_binary.iterations"] += result.iterations
            c["glm.fit_binary.nonconverged"] += not result.converged
            c["glm.fit_binary.separated"] += bool(result.separation)
        elif span_name == "dataset.build_design":
            c["dataset.build_design.mb_computed"] += result.nbytes / 1e6
        elif span_name == "dataset.load_csv":
            c["dataset.load_csv.rows"] += result.n
        elif span_name == "simlab.write_report":
            path = args[1] if len(args) > 1 else kwargs["path"]
            c["simlab.write_report.bytes"] += os.path.getsize(path)

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        counted = span_name in ("glm.fit_binary", "dataset.build_design",
                                "dataset.load_csv", "simlab.write_report")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                self._before(span_name, args, kwargs)
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counted:
                self._after(span_name, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"lineariv.{name}") for name in MODULES}
        namespaces = [importlib.import_module("lineariv"), *modules.values()]
        for module_name, qualname, span_name in TRACED:
            module = modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    patched = self._wrap(raw, span_name)
                setattr(cls, attr, patched)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, span_name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self seconds)."""
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_s = duration - child
        out = {}
        for name_id, name in enumerate(self._names):
            mask = names == name_id
            out[name] = (int(mask.sum()), float(self_s[mask].sum()))
        return out

    def write_spans(self, path) -> None:
        np.savez(path, names=np.array(self._names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=float),
                 end=np.frombuffer(self.span_end, dtype=float),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))
