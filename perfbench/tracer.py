"""Per-layer tracing of nlfield from outside the library.

The tracer replaces named callables with timing wrappers for the length
of a traced pass and puts the originals back afterwards; nlfield's own
files are never edited.  Class methods (and properties, classmethods) are
wrapped on their class.  A module function is wrapped at every binding of
the same object in a loaded ``nlfield`` module, so calls through
re-exports such as ``hardy.sign_of`` are seen too.  Hot leaves only get a
call counter, because a span per call would cost more than their body.

Each span records (name, start, end, parent span, op id) and is kept in
memory; self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric layer, attribute path inside the module) -- timed with spans
SPANNED = [
    ("numberfield", "Place.box"),
    ("numberfield", "NumberField.places"),
    ("numberfield", "embed"),
    ("intervals", "eval_poly_box"),
    ("numberfield", "minimal_polynomial_of"),
    ("signs", "sign_of"),
    ("signs", "grade"),
    ("hardy", "series_eval_hyper"),
    ("numberfield", "FieldElement.__mul__"),
    ("numberfield", "FieldElement.inverse"),
    ("numberfield", "absolute_trace"),
    ("algebra", "AlgebraElement.cauchy"),
    ("algebra", "AlgebraElement.dirichlet"),
    ("galois", "Automorphism.apply"),
    ("hardy", "torus_inner_product"),
    ("dirichlet", "dinvert"),
    ("dirichlet", "dconv"),
    ("dirichlet", "divisors_of"),
    ("numberfield", "define_field"),
    ("parser", "parse_algebra"),
    ("parser", "parse_element"),
    ("session", "Session.save"),
    ("session", "Session.load"),
    ("suites", "run_suite"),
    ("cli", "main"),
    ("sympy", "CRootOf.eval_rational"),
]

# hot leaves: call counts only
COUNTED = [
    ("polys", "Poly.__mul__"),
    ("polys", "Poly.divmod"),
    ("coeffs", "GaussRat.__mul__"),
]


def metric_name(layer: str, path: str) -> str:
    """'FieldElement.__mul__' -> 'FieldElement.mul' in metric names."""
    return f"{layer}.{path.replace('__', '')}"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of everything a traced pass reports."""
    out = []
    for layer, path in SPANNED:
        base = metric_name(layer, path)
        out += [(base + ".calls", "count"), (base + ".self_s", "s")]
    out += [(metric_name(layer, path) + ".calls", "count") for layer, path in COUNTED]
    out += [("signs.sign_of.cache_hit_ratio", "fraction"),
            ("signs.sign_of.fallback_ratio", "fraction")]
    return out


def _module(layer: str):
    if layer == "sympy":
        return importlib.import_module("sympy.polys.rootoftools")
    return importlib.import_module("nlfield." + layer)


class Tracer:
    """Install with ``install()``, run the traced ops with ``op_id`` set,
    then ``uninstall()`` and read ``summary()``."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, op_id)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.op_id = -1
        self.sign_hits = 0
        self.sign_fallbacks = 0
        self._stack: list[list] = []   # [span index, child seconds]
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]] = (name, t0, t1, parent, self.op_id)
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _sign_probe(self, fn):
        """Around sign_of: a call is a cache hit if the field's sign cache
        already holds the index; a miss falls back to the exact path if
        minimal_polynomial_of runs inside it."""
        mp_name = metric_name("numberfield", "minimal_polynomial_of")

        @functools.wraps(fn)
        def wrapper(alpha):
            if alpha.coords in alpha.field._sign_cache:
                self.sign_hits += 1
                return fn(alpha)
            before = self.calls.get(mp_name, 0)
            try:
                return fn(alpha)
            finally:
                if self.calls.get(mp_name, 0) > before:
                    self.sign_fallbacks += 1
        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_one(self, layer, path, make):
        mod = _module(layer)
        name = metric_name(layer, path)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                self._patch(cls, attr, property(make(name, raw.fget)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(make(name, raw.__func__)))
            else:
                self._patch(cls, attr, make(name, raw))
            return
        orig = getattr(mod, path)
        new = make(name, orig)
        if path == "sign_of":
            new = self._sign_probe(new)
        for m in [v for k, v in sys.modules.items()
                  if k == "nlfield" or k.startswith("nlfield.")]:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, key, new)

    def install(self):
        for layer, path in SPANNED:
            self._wrap_one(layer, path, self._spanned)
        for layer, path in COUNTED:
            self._wrap_one(layer, path, self._counted)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for layer, path in SPANNED:
            base = metric_name(layer, path)
            out[base + ".calls"] = self.calls.get(base, 0)
            out[base + ".self_s"] = self.self_s.get(base, 0.0)
        for layer, path in COUNTED:
            base = metric_name(layer, path)
            out[base + ".calls"] = self.calls.get(base, 0)
        calls = out["signs.sign_of.calls"]
        misses = calls - self.sign_hits
        out["signs.sign_of.cache_hit_ratio"] = self.sign_hits / calls if calls else 0.0
        out["signs.sign_of.fallback_ratio"] = (
            self.sign_fallbacks / misses if misses else 0.0)
        return out
