"""Span tracing of qzeta's public functions and methods, from outside.

``install`` wraps each traced callable on its class or module object and
rebinds every reference the package holds to it (a name imported into
another module, a backend dispatch table), so calls made inside the
package are traced too.  It runs only in a traced child; an untraced child
never imports this module.

Each call made while ``Tracer.on`` is set records a span (name, start,
end, parent) in memory.  A layer's self time is the sum of its spans'
durations minus the time covered by their child spans.  Size statistics
(degrees, coefficient bits) are taken after the call's span has closed,
inside a ``trace.note`` span of their own, so they count against the
tracing overhead and not against any layer.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, callable, layer metric prefix); a tuple of names aggregates methods
FUNCTIONS = (
    ("carlitz", "beta", "carlitz.beta"),
    ("carlitz", "beta_chi", "carlitz.beta_chi"),
    ("carlitz", "verify_theorem", "carlitz.verify"),
    ("carlitz", "verify_hurwitz", "carlitz.verify"),
    ("carlitz", "verify_chi", "carlitz.verify"),
    ("operators", "apply_geometric", "operators.apply_geometric"),
    ("operators", "apply_delta", "operators.apply_delta"),
    ("operators", "apply_series", "operators.apply_series"),
    ("series", "series_from_ratfunc", "series.series_from_ratfunc"),
    ("poly", "poly_gcd", "poly.poly_gcd"),
    ("roots", "find_roots", "roots.find_roots"),
    ("roots", "classify_roots", "roots.classify_roots"),
    ("roots", "beta_root_survey", "roots.beta_root_survey"),
)
METHODS = (
    ("ratfunc", "CycloFrac", ("__add__",), "ratfunc.CycloFrac.add"),
    ("ratfunc", "CycloFrac", ("reduce",), "ratfunc.CycloFrac.reduce"),
    ("ratfunc", "CycloFrac", ("to_ratfunc",), "ratfunc.CycloFrac.to_ratfunc"),
    ("ratfunc", "RatFunc", ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                            "__truediv__", "__rtruediv__", "__pow__", "inverse"),
     "ratfunc.RatFunc.arith"),
    ("poly", "Poly", ("__mul__",), "poly.Poly.mul"),
    ("poly", "Poly", ("__divmod__",), "poly.Poly.divmod"),
    ("fields", "CycRat", ("__mul__",), "fields.CycRat.mul"),
    ("fields", "CycRat", ("__add__",), "fields.CycRat.add"),
    ("fields", "CycRat", ("inverse",), "fields.CycRat.inverse"),
)


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((_coeff_bits(x) for x in c.coords), default=0)  # CycRat


def _note_mul(tracer, args, result):
    if hasattr(result, "coeffs"):
        tracer.raise_max("poly.Poly.mul.max_degree", len(result.coeffs) - 1)
        tracer.raise_max("poly.Poly.mul.max_coeff_bits",
                         max((_coeff_bits(c) for c in result.coeffs), default=0))


def _note_find_roots(tracer, args, result):
    tracer.raise_max("roots.find_roots.max_degree", args[0].degree)


NOTES = {"poly.Poly.mul": _note_mul, "roots.find_roots": _note_find_roots}

# the statistics every traced run reports, in BENCHMARK.json's order
LAYER_METRICS = (
    "carlitz.beta.self_s", "carlitz.beta.calls", "carlitz.beta_chi.self_s",
    "carlitz.verify.self_s",
    "operators.apply_geometric.self_s", "operators.apply_geometric.calls",
    "operators.apply_delta.self_s", "operators.apply_delta.calls",
    "operators.apply_series.self_s", "operators.apply_series.calls",
    "series.series_from_ratfunc.self_s",
    "ratfunc.CycloFrac.add.self_s", "ratfunc.CycloFrac.add.calls",
    "ratfunc.CycloFrac.reduce.self_s", "ratfunc.CycloFrac.reduce.calls",
    "ratfunc.CycloFrac.to_ratfunc.self_s", "ratfunc.RatFunc.arith.self_s",
    "poly.Poly.mul.self_s", "poly.Poly.mul.calls", "poly.Poly.mul.max_degree",
    "poly.Poly.mul.max_coeff_bits",
    "poly.Poly.divmod.self_s", "poly.Poly.divmod.calls",
    "poly.poly_gcd.self_s", "poly.poly_gcd.calls",
    "fields.CycRat.mul.self_s", "fields.CycRat.mul.calls",
    "fields.CycRat.add.self_s", "fields.CycRat.add.calls",
    "fields.CycRat.inverse.self_s",
    "roots.find_roots.self_s", "roots.find_roots.calls",
    "roots.find_roots.max_degree", "roots.classify_roots.self_s",
    "roots.beta_root_survey.self_s",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.maxima: dict[str, int] = defaultdict(int)

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                note(self, args, result)
                spans.append(("trace.note", end, clock(), parent))
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and maxima per layer name; zero where never called."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        out = {}
        for metric in LAYER_METRICS:
            prefix, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls[prefix]
            elif stat == "self_s":
                out[metric] = self_s[prefix]
            else:
                out[metric] = self.maxima[metric]
        return out

    def write(self, path) -> None:
        """All spans, one JSON array [name, start, end, parent] per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(package) -> Tracer:
    """Wrap every traced callable of an imported qzeta package."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    for mod_name, fn_name, label in FUNCTIONS:
        module = sys.modules[f"{package.__name__}.{mod_name}"]
        original = getattr(module, fn_name)
        _rebind(modules, original, tracer.wrap(label, original))
    for mod_name, cls_name, attrs, label in METHODS:
        cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
        for attr in attrs:
            original = cls.__dict__[attr]
            wrapped = tracer.wrap(label, original)
            for alias, value in list(cls.__dict__.items()):  # __radd__ = __add__
                if value is original:
                    setattr(cls, alias, wrapped)
    return tracer


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped
