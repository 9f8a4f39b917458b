"""Spans around thermoshift's public functions, recorded from outside.

``Tracer.install`` replaces each public function of the layer modules (and
a few named methods) by a wrapper that records a span: (name, start, end,
parent span index, pass id).  Modules that imported a function by name get
the wrapper too, so the span fires wherever the function is looked up.
``uninstall`` puts the originals back.  Spans stay in memory until the
benchmark writes them out.

Leaf helpers (``numerics``, ``verdicts``, ``parallel``) and per-symbol
methods are not wrapped: they run up to 10^6 times per pass, so their time
lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("shiftcore", "factor", "potential", "markov", "seqtable", "lp",
          "detect", "gibbs", "jsonio", "cli")

# (module, class, method): methods that are layer boundaries, not per-symbol
# primitives.
METHODS = (("shiftcore", "Sft", "blocks"), ("shiftcore", "Sft", "count_blocks"),
           ("factor", "ImageLanguage", "blocks"),
           ("factor", "ImageLanguage", "count_blocks"),
           ("markov", "MarkovMeasure", "state_mass"),
           ("markov", "MarkovMeasure", "cylinder_mass"))


def _cells(table) -> int:
    return sum(len(level) for level in table.logs.values())


# counters read off a function's result at its boundary: name -> fn(result)
COUNTERS = {
    "seqtable.build_g_table": lambda t: {"seqtable.cells": _cells(t)},
    "seqtable.check_D2": lambda r: {"seqtable.check_D2.pairs": r.detail.get("pairs_checked", 0)},
    "detect.fit_h": lambda r: {"detect.fit_h.exact": int(r.solver == "exact-simplex")},
}


def _targets():
    """[(span name, owner object, attribute, original)] for every wrapped
    callable that exists in this version of thermoshift."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("thermoshift." + layer)
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append(("%s.%s" % (layer, attr), mod, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module("thermoshift." + layer), cls_name, None)
        fn = None if cls is None else vars(cls).get(attr)
        if inspect.isfunction(fn):
            out.append(("%s.%s.%s" % (layer, cls_name, attr), cls, attr, fn))
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, pass_id)
        self.counts: dict = {}         # (pass_id, counter) -> value
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if counter is not None:
                for key, value in counter(result).items():
                    ck = (self.pass_id, key)
                    self.counts[ck] = self.counts.get(ck, 0) + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for name, owner, attr, fn in _targets():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
            self._patch(owner, attr, fn, wrappers[id(fn)][1])
        # by-name imports: every thermoshift module attribute bound to an
        # original now gets its wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "thermoshift" and not modname.startswith("thermoshift."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def function_names() -> list[str]:
        return [name for name, *_ in _targets()]


def pass_metrics(spans, counts, pass_id, function_names) -> dict:
    """Per-layer metrics of one traced pass.

    ``<fn>.total_s`` sums the outermost spans of fn (recursion is not
    double-counted), ``<fn>.self_s`` sums span time not covered by direct
    child spans, ``<fn>.calls`` counts spans.  ``<module>.self_s`` sums the
    self time of the module's functions.
    """
    mine = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] == pass_id]
    child_time: dict[int, float] = {}
    for _, (_, start, end, parent, _) in mine:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_index = dict(mine)

    def nested_in_same(i, name):
        parent = by_index[i][3]
        while parent is not None:
            if by_index[parent][0] == name:
                return True
            parent = by_index[parent][3]
        return False

    def outermost_in_module(i, module):
        parent = by_index[i][3]
        while parent is not None:
            if by_index[parent][0].split(".", 1)[0] == module:
                return False
            parent = by_index[parent][3]
        return True

    m: dict[str, float] = {}
    for name in function_names:
        m[name + ".total_s"] = 0.0
        m[name + ".self_s"] = 0.0
        m[name + ".calls"] = 0
    for layer in LAYERS:
        m[layer + ".self_s"] = 0.0
    m["jsonio.load.total_s"] = 0.0
    for i, (name, start, end, _, _) in mine:
        dur = end - start
        own = dur - child_time.get(i, 0.0)
        module = name.split(".", 1)[0]
        m[name + ".calls"] += 1
        m[name + ".self_s"] += own
        m[module + ".self_s"] += own
        if not nested_in_same(i, name):
            m[name + ".total_s"] += dur
        if module == "jsonio" and outermost_in_module(i, "jsonio"):
            m["jsonio.load.total_s"] += dur
    for (pid, key), value in counts.items():
        if pid == pass_id:
            m[key] = m.get(key, 0) + value
    m.setdefault("seqtable.cells", 0)
    m.setdefault("seqtable.check_D2.pairs", 0)
    build = m.get("seqtable.build_g_table.total_s", 0.0)
    m["seqtable.build_g_table.cells_per_s"] = m["seqtable.cells"] / build if build else 0.0
    fits = m.get("detect.fit_h.calls", 0)
    m["detect.fit_h.exact_share"] = m.pop("detect.fit_h.exact", 0) / fits if fits else 0.0
    return m
