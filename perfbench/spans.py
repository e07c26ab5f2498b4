"""In-memory spans around the package's public functions.

``install`` rebinds every public function of every ``lorentzflow``
module, at every module attribute that refers to it, to a wrapper that
records a span while a ``Tracer`` is enabled. A few methods that carry
the hot loops (line restriction, derivatives, the membership oracle) are
wrapped on their classes. Nothing in ``src/`` changes; removing the
wrappers is not needed because each run is its own process.

A span is (name, start, end, parent index, operation id). Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

MODULES = ("poly", "sep", "polarization", "certify", "strata", "ballmap", "samples", "io", "cli")

# (module, class, method, span name)
METHODS = (
    ("poly", "MultiAffinePoly", "restrict_line", "poly.restrict_line"),
    ("poly", "HomPoly", "restrict_line", "poly.restrict_line"),
    ("poly", "MultiAffinePoly", "derivative", "poly.derivative"),
    ("ballmap", "MembershipOracle", "is_member", "ballmap.oracle"),
)


def _count_bases(args, kwargs, result):
    return {"strata.is_matroid_bases.bases": len(args[0].bases)}


def _count_decomposition(args, kwargs, result):
    return {"sep.decomposition_bytes": result.size * result.size * 8}


def _capped_dim(kappa, d: int) -> int:
    """Number of exponent vectors alpha <= kappa with |alpha| = d."""
    ways = [1] + [0] * d
    for k in kappa:
        ways = [sum(ways[t - a] for a in range(min(k, t) + 1)) for t in range(d + 1)]
    return ways[d]


def _count_lift(args, kwargs, result):
    f = args[0]
    return {
        "polarization.lifted_coefficients": result.basis.size,
        "polarization.capped_coefficients": _capped_dim(f.kappa, f.d),
    }


# extra counters taken from a call's arguments and result
COUNTERS = {
    "strata.is_matroid_bases": _count_bases,
    "sep.spectral": _count_decomposition,
    "polarization.polarize_up": _count_lift,
}


class Tracer:
    """Span recorder. Disabled by default; wrappers cost one attribute
    test per call while it is off."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = 0
        self._stack: list = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, t0, t1, _, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions at all their import bindings."""
    import importlib

    modules = {m: importlib.import_module(f"lorentzflow.{m}") for m in MODULES}
    modules["__init__"] = importlib.import_module("lorentzflow")
    wrapped = {}
    for short in MODULES:
        mod = modules[short]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    for short, cls, meth, name in METHODS:
        klass = getattr(modules[short], cls)
        setattr(klass, meth, tracer.wrap(name, getattr(klass, meth)))
