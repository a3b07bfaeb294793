"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the package, every public function and every
public method of the classes defined in each hetres module, plus the
``numpy.linalg`` eigensolver leaf.  Each wrapped call records one span (name,
start, end, parent) in flat arrays kept in memory; the spans are written once,
when the run ends.  A layer's self time is the summed duration of its spans
minus the time covered by their child spans.

Modules bind names with ``from .module import name``, so a wrapper replaces
every module attribute that refers to the original function, not only the
one in the defining module.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("scenarios", "laws", "certify", "composite", "divergences",
          "theories", "channels", "qcore")
SET_KINDS = ("incoherent", "real", "singleton", "all", "finite", "separable",
             "min-composite", "max-composite")
ENGINES = ("fw", "pg", "dmax", "dh")
# rel_entropy_of_resource reports which engine ran in extras["method"]
RE_ENGINE = {"frank-wolfe": "fw", "projected-gradient": "pg",
             "closed-form": "closed_form", "member": "member"}
# hypothesis_testing candidates that are not the subgradient loop
DH_LOOP = "subgradient"


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS + ("linalg",):
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for eng in ENGINES:
        out += [(f"divergences.{eng}.calls", "count", "lower"),
                (f"divergences.{eng}.self_s", "s", "lower"),
                (f"divergences.{eng}.iters_p50", "count", "lower"),
                (f"divergences.{eng}.certified_frac", "ratio", "higher")]
    out += [("divergences.closed_form.calls", "count", "higher"),
            ("divergences.dh.subgradient_win_frac", "ratio", "higher")]
    for kind in SET_KINDS:
        out += [(f"theories.lmo.{kind}.calls", "count", "lower"),
                (f"theories.lmo.{kind}.self_s", "s", "lower")]
    out += [("theories.contains.calls", "count", "lower"),
            ("theories.contains.self_s", "s", "lower"),
            ("theories.contains.fallback_frac", "ratio", "lower"),
            ("theories.hull_distance.calls", "count", "lower"),
            ("theories.hull_distance.self_s", "s", "lower"),
            ("theories.project_feasible.calls", "count", "lower"),
            ("theories.project_feasible.self_s", "s", "lower")]
    for fn in ("eigh", "eigvalsh"):
        out += [(f"linalg.{fn}.calls", "count", "lower"), (f"linalg.{fn}.self_s", "s", "lower")]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so traced and untraced passes share one process."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (engine, iterations, converged, method) for every divergence solve
        self.solves: list[tuple[str, int, bool, str]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, label: str, rename=None):
        base = self._id(label)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(base)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if rename is not None:
                names[idx] = self._id(rename(args, out))
            return out

        return traced

    def _label(self, layer: str, owner, attr: str):
        """Span name and optional result-dependent rename for one callable."""
        if layer == "theories" and owner is not None:
            if attr in ("lmo", "lmo_with_parts"):
                return "theories.lmo", lambda a, out: f"theories.lmo.{a[0].kind}"
            if attr == "contains" and issubclass(owner, sys.modules["hetres.theories"].FreeStateSet):
                return "theories.contains", lambda a, out: f"theories.contains.{a[0].kind}"
            if attr in ("hull_distance", "project_feasible"):
                return f"theories.{attr}", None
        if layer == "divergences" and owner is None:
            if attr == "rel_entropy_of_resource":
                return "divergences.re", self._record_re
            if attr == "dmax":
                return "divergences.dmax", self._record("dmax")
            if attr == "hypothesis_testing":
                return "divergences.dh", self._record("dh")
        qual = f"{owner.__name__}.{attr}" if owner is not None else attr
        return f"{layer}.{qual}", None

    def _record_re(self, args, res):
        engine = RE_ENGINE.get(res.extras.get("method"), "other")
        self.solves.append((engine, res.iterations, res.converged, res.extras.get("method", "")))
        return f"divergences.{engine}"

    def _record(self, engine):
        def rename(args, res):
            self.solves.append((engine, res.iterations, res.converged, res.extras.get("method", "")))
            return f"divergences.{engine}"
        return rename

    def install(self, extra_modules=()):
        """Wrap every public function and method until ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    label, rename = self._label(layer, None, attr)
                    originals[id(obj)] = (obj, self._wrap(obj, label, rename))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        if mattr.startswith("_") or not inspect.isfunction(meth):
                            continue
                        label, rename = self._label(layer, obj, mattr)
                        self._patch(obj, mattr, meth, self._wrap(meth, label, rename))
        for mod in list(self.modules) + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        linalg = np.linalg
        for fn in ("eigh", "eigvalsh"):
            orig = getattr(linalg, fn)
            self._patch(linalg, fn, orig, self._wrap(orig, f"linalg.{fn}"))

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, wrapper))

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def span_count(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    # aggregation

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        return name, parent, start, end

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all recorded spans."""
        name, parent, start, end = self._columns()
        if name.size == 0:
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names) if calls[i]}

    def per_layer(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric, from the spans and solves recorded so far."""
        st = self.self_times()
        out: dict[str, float] = {}

        def total(pred):
            c = sum(v[0] for k, v in st.items() if pred(k))
            s = sum(v[1] for k, v in st.items() if pred(k))
            return c, s

        for layer in LAYERS + ("linalg",):
            out[f"{layer}.calls"], out[f"{layer}.self_s"] = total(lambda k, p=layer + ".": k.startswith(p))
        for eng in ENGINES:
            c, s = st.get(f"divergences.{eng}", (0, 0.0))
            rows = [r for r in self.solves if r[0] == eng]
            out[f"divergences.{eng}.calls"] = c
            out[f"divergences.{eng}.self_s"] = s
            out[f"divergences.{eng}.iters_p50"] = (
                float(statistics.median(r[1] for r in rows)) if rows else 0.0)
            out[f"divergences.{eng}.certified_frac"] = (
                sum(1 for r in rows if r[2]) / len(rows) if rows else 0.0)
        out["divergences.closed_form.calls"] = st.get("divergences.closed_form", (0, 0.0))[0]
        dh = [r for r in self.solves if r[0] == "dh"]
        out["divergences.dh.subgradient_win_frac"] = (
            sum(1 for r in dh if r[3] == DH_LOOP) / len(dh) if dh else 0.0)
        for kind in SET_KINDS:
            c, s = st.get(f"theories.lmo.{kind}", (0, 0.0))
            out[f"theories.lmo.{kind}.calls"], out[f"theories.lmo.{kind}.self_s"] = c, s
        c, s = total(lambda k: k.startswith("theories.contains."))
        out["theories.contains.calls"], out["theories.contains.self_s"] = c, s
        hc, hs = st.get("theories.hull_distance", (0, 0.0))
        mc = st.get("theories.contains.min-composite", (0, 0.0))[0]
        out["theories.contains.fallback_frac"] = hc / mc if mc else 0.0
        out["theories.hull_distance.calls"], out["theories.hull_distance.self_s"] = hc, hs
        pc, ps = st.get("theories.project_feasible", (0, 0.0))
        out["theories.project_feasible.calls"], out["theories.project_feasible.self_s"] = pc, ps
        for fn in ("eigh", "eigvalsh"):
            c, s = st.get(f"linalg.{fn}", (0, 0.0))
            out[f"linalg.{fn}.calls"], out[f"linalg.{fn}.self_s"] = c, s
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path):
        """Write all spans once, as compressed columns plus the name table."""
        name, parent, start, end = self._columns()
        np.savez_compressed(path, name=name, parent=parent, start=start, end=end,
                            names=np.array(self.names, dtype=object).astype(str))


def hetres_modules():
    return [sys.modules[f"hetres.{layer}"] for layer in LAYERS]
