"""Spans around named twistaff functions, installed from outside the package.

`Tracer.install` replaces each named function, in every `twistaff.*` module
and class namespace that binds it, by a wrapper that records a span (name,
start, end, parent) and adds the call to the per-name call count and self
time.  Self time is a span's duration minus the time its child spans cover.
Spans stay in memory until `write` and `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

#: functions that get spans, as "<module>.<name>" or "<module>.<Class>.<name>"
SPANNED = (
    "sampling.random_twisted_element",
    "sampling.random_loop_element",
    "autnorm.standardize",
    "autnorm.verify_certificate",
    "autnorm.mode_class",
    "autnorm.mode_class_vectors",
    "autnorm.cartan_mode_vectors",
    "cyclo.mat_mul",
    "cyclo.mat_inverse",
    "cyclo.cyc_sqrt",
    "loopalg.bracket",
    "loopalg.phi_hat",
    "loopalg.kappa_form",
    "loopalg.apply_derivation",
    "loopalg.validate_element",
    "models.StandardModel.mode_project",
    "models.StandardModel.algebra_project",
    "weyl.reflect_affine",
    "weyl.finite_weyl_group",
    "affine.enumerate_affine_roots",
    "affine.lars_contains",
    "energy.min_energy",
    "energy.theorem_b_pipeline",
    "energy.is_integral",
    "jsonio.dump_report",
)
#: private functions that are only counted: the sympy square-root path and the box oracle
COUNTED = ("cyclo._sympy_field", "energy._oracle_minimum")


def _resolve(qualname):
    """The function a name relative to the twistaff package denotes."""
    module, *path, attr = qualname.split(".")
    owner = sys.modules["twistaff." + module]
    for p in path:
        owner = getattr(owner, p)
    return vars(owner)[attr]


def _namespaces():
    """Every twistaff module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "twistaff" or name.startswith("twistaff.")):
            continue
        yield mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self, on_return=None, on_count=None):
        #: name -> callback(args, kwargs, result) run after a spanned call returns
        self.on_return = dict(on_return or {})
        #: name -> callback(args, kwargs) run when a counted function is entered
        self.on_count = dict(on_count or {})
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.covered_s = 0.0  # time inside spans whose parent is a root span
        self._stack = []  # [span index, time covered by children]
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        return self._ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; outside any other span it is a root span."""
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.span_end[index] = end
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
                if len(stack) == 1:
                    self.covered_s += dur

    def _spanned(self, name, fn):
        hook = self.on_return.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        self._name_id(name)
        hook = self.on_count.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        replacements = {}
        for name in SPANNED:
            original = _resolve(name)
            replacements[id(original)] = (original, self._spanned(name, original))
        for name in COUNTED:
            original = _resolve(name)
            replacements[id(original)] = (original, self._counted(name, original))
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path, meta):
        doc = {
            "meta": meta,
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
