"""Spans recorded from outside the program, by wrapping its public functions.

A ``Tracer`` replaces each layer's function or method (see ``layers``) with
a wrapper that records a span (name, start, end, parent) in flat arrays and
updates the layer's work counters.  Spans stay in memory and are written
out once, when the run ends.  A call nested directly inside a span of the
same name is not recorded again, so ``calls`` counts outermost calls (one
``textio.parse`` per document, not one per row).  Self time is a span's
duration minus the durations of its child spans.
"""

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

from layers import LAYERS


def _count_kernel_mul(acc, args, result):
    acc["mults"] += args[2] * args[3] * args[4]


def _count_kernel_rref(acc, args, result):
    acc["cells"] += args[1] * args[2]


def _count_rref_rows(acc, args, result):
    rows = args[0]
    if rows:
        acc["cells"] += len(rows) * len(rows[0])
        acc["rows"] += len(rows)
        acc["pivots"] += len(result[1])


def _count_matmul(acc, args, result):
    a, b = args[0], args[1]
    if hasattr(b, "ncols"):
        acc["mults"] += a.nrows * a.ncols * b.ncols


def _count_krylov(acc, args, result):
    acc["steps"] += result.depth_used
    acc["unknown"] += result.outcome == "unknown"


def _count_splits(acc, args, result):
    """The exhaustive root scan runs exactly when f splits over F_p."""
    f = args[0]
    if f.field.char > 0 and result.splits and f.degree >= 1:
        acc["scanned"] += f.field.char
        acc["roots"] += len(result.roots)


COUNTERS = {
    "kernels.mat_mul_mod": _count_kernel_mul,
    "kernels.mat_rref_mod": _count_kernel_rref,
    "linalg.rref_rows": _count_rref_rows,
    "linalg.matmul": _count_matmul,
    "operators.krylov_torsion": _count_krylov,
    "fields.poly_splits_simply": _count_splits,
}


def _ratio(a, b):
    return a / b if b else 0.0


PACKAGE = "diagalg"


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.acc = {}
        self.patches = []
        self.sites = {}

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        acc = self.acc.setdefault(name, {"mults": 0, "cells": 0, "rows": 0, "pivots": 0,
                                         "steps": 0, "unknown": 0, "scanned": 0, "roots": 0})
        span_name, parent, start, end, stack = (self.span_name, self.parent, self.start,
                                                self.end, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and span_name[top] == nid:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(top)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(acc, args, result)
            return result

        return wrapper

    def span(self, name):
        """Context manager for a root span, such as one query."""
        return _Span(self, self.name_id(name))

    # -- installing wrappers ------------------------------------------------------

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer at every binding site.  Returns, per layer, the
        modules (or class) whose binding was replaced."""
        modules = self._modules()
        for layer in LAYERS:
            kind = layer.target[0]
            sites = set()
            if kind == "method":
                _, mod, cls_name, attr = layer.target
                cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(layer.name, original)
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patch(cls, alias, wrapper)
                        sites.add(f"{cls_name}.{alias}")
            else:
                _, mod, attrs = layer.target
                attrs = (attrs,) if isinstance(attrs, str) else attrs
                home = importlib.import_module(f"{PACKAGE}.{mod}")
                for attr in attrs:
                    original = getattr(home, attr)
                    wrapper = self.wrap(layer.name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
                                sites.add(module.__name__.rsplit(".", 1)[-1])
            self.sites[layer.name] = sites
        return self.sites

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus its children's durations."""
        n = len(self.span_name)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += own[i]
        for i in range(n):
            own[i] -= child[i]
        return own

    def layer_metrics(self, passes, scale=1.0):
        """Per-layer metrics per pass (pool), self times multiplied by
        ``scale`` (the calibration factor of the traced run)."""
        own = self.self_times()
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            busy[nid] += own[i]
        out = {}
        for layer in LAYERS:
            nid = self.ids.get(layer.name)
            acc = self.acc.get(layer.name, {})
            out[f"{layer.name}.calls"] = (calls[nid] if nid is not None else 0) / passes
            out[f"{layer.name}.self_s"] = (busy[nid] if nid is not None else 0.0) * scale / passes
            for c in layer.counts:
                if c == "rank_ratio":
                    out[f"{layer.name}.{c}"] = _ratio(acc["pivots"], acc["rows"])
                elif c == "unknown_ratio":
                    calls_k = calls[nid] if nid is not None else 0
                    out[f"{layer.name}.{c}"] = _ratio(acc["unknown"], calls_k)
                else:
                    out[f"{layer.name}.{c}"] = acc[c] / passes
        acc = self.acc.get("fields.poly_splits_simply", {})
        out["fields.root_scan.hit_ratio"] = _ratio(acc.get("roots", 0), acc.get("scanned", 0))
        return out

    def breakdown(self, roots):
        """Self time per root key and layer, for root spans given as
        {span index: key}; a root's own self time is "(query glue)"."""
        own = self.self_times()
        root_of = array("i", bytes(4 * len(self.span_name)))
        table = {}
        for i in range(len(self.span_name)):
            p = self.parent[i]
            r = i if p < 0 else root_of[p]
            root_of[i] = r
            label = roots.get(r)
            if label is None:
                continue
            name = self.names[self.span_name[i]] if p >= 0 else "(query glue)"
            row = table.setdefault(label, {})
            row[name] = row.get(name, 0.0) + own[i]
        return table

    def write(self, path):
        """Spans as a JSON header line then one tab-separated line each:
        name id, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "columns":
                                 ["name", "start_s", "end_s", "parent"]}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_name[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\n")


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.span_name)
        t.span_name.append(self.nid)
        t.parent.append(t.stack[-1])
        t.end.append(0.0)
        t.stack.append(self.idx)
        t.start.append(perf_counter())
        return self.idx

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = perf_counter()
        t.stack.pop()
        return False
