"""Span recorder wrapped around the public functions of each walshcodes layer.

A span is [name, start, end, parent index, operation number]; set-up spans
carry operation 0.  Spans and counts stay in memory and are written out when
the run ends.  Every binding of a wrapped function is replaced, in every
loaded ``walshcodes`` module, so calls through names imported with
``from ... import`` are recorded as well.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _fwht_bytes(f, *args, **kwargs):
    # m butterfly stages, each reading and writing the 2^m int64 signs once;
    # nothing is moved when the spectrum is already cached
    if f._spectrum is not None:
        return ()
    return (("boolfun.fwht_bytes", 2 * 8 * f.field.order * f.m),)


def _codewords(code, *args, **kwargs):
    if code._weights is not None:
        return ()
    return (("linear_code.codewords", 1 << code.k),)


# (module, attribute, span name, counts computed from the arguments)
FUNCTIONS = [
    ("gf2", "field", "gf2.field", None),
    ("bitmat", "rref", "bitmat.rref", lambda *a, **k: (("bitmat.rref.calls", 1),)),
    ("bitmat", "transpose", "bitmat.transpose", None),
    ("bitmat", "kernel", "bitmat.kernel", None),
    ("defining_set", "code_from_defining_set", "defining_set.code_from_defining_set",
     lambda ds: (("defining_set.columns_built", ds.n),)),
    ("defining_set", "extract_defining_set", "defining_set.extract_defining_set",
     lambda code, *a, **k: (("defining_set.extract_field_muls", code.k * code.n),)),
    ("defining_set", "spectral_weight_distribution",
     "defining_set.spectral_weight_distribution", None),
    ("linear_code", "macwilliams_transform", "linear_code.macwilliams_transform", None),
    ("catalog", "build_from_name", "catalog.build_from_name", None),
    ("cli", "analyze_report", "cli.analyze_report", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span name, counts)
METHODS = [
    ("boolfun", "BooleanFunction", "walsh_transform", "boolfun.walsh_transform", _fwht_bytes),
    ("boolfun", "BooleanFunction", "anf", "boolfun.anf", None),
    ("boolfun", "BooleanFunction", "classify", "boolfun.classify", None),
    ("linear_code", "BinaryCode", "__init__", "linear_code.BinaryCode", None),
    ("linear_code", "BinaryCode", "dual", "linear_code.dual", None),
    ("linear_code", "BinaryCode", "weight_distribution", "linear_code.weight_distribution",
     _codewords),
]

SPAN_NAMES = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]
COUNT_NAMES = ["bitmat.rref.calls", "defining_set.columns_built",
               "defining_set.extract_field_muls", "boolfun.fwht_bytes",
               "linear_code.codewords"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                for key, value in count(*args, **kwargs):
                    tracer.counts[key] += value
            rec = [name, perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions and methods; recording
        lasts until uninstall()."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "walshcodes" or name.startswith("walshcodes.")]
        for modname, attr, name, count in FUNCTIONS:
            original = getattr(sys.modules[f"walshcodes.{modname}"], attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name, count in METHODS:
            cls = getattr(sys.modules[f"walshcodes.{modname}"], clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out
