"""Outside-in layer tracing: wrappers at the names callers bind.

The modules of ``mahler`` bind each other's functions with ``from .x import
f``, so a wrapper on ``mahler.roots.poly_roots`` alone would never see the
calls ``mahler.measures`` makes.  :meth:`Tracer.install` therefore replaces
every binding of a layer's public function, in every layer module, with one
wrapper that records a span: (id, parent id, name, start, end, pass id, and
the counts read off the returned value).  The span stack is per thread
because ``sweep --jobs`` runs rows on a thread pool; a span that opens on an
empty worker stack is parented to the innermost span open on the main
thread, the call that is waiting for the pool.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "identities", "measures", "roots", "quadrature", "specfun", "poly")

# measures sub-layers, by function
_MEASURES_SUB = {
    "mahler_jensen_2var": "jensen",
    "mahler_torus": "torus",
    "q_measure": "family",
    "p_measure": "family",
    "r_measure": "family",
}

# tolerances the measures use when the caller passes none (the seed's defaults)
_DEFAULT_TOL = {"mahler_torus": 2.5e-7}
_DEFAULT_MEASURE_TOL = 1e-9


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Span recorder; records only while installed."""

    def __init__(self):
        self.pass_id = 0
        self.spans = []  # (sid, parent, name, t0, t1, pass_id, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._installed = []

    def install(self):
        """Wrap every public layer function at every binding in the layers."""
        modules = {layer: importlib.import_module(f"mahler.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for fname, fn in _public_functions(module):
                wrapper = self._wrap(layer, fname, fn)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)
                            self._installed.append((other, attr, fn))

    def uninstall(self):
        for module, attr, fn in self._installed:
            setattr(module, attr, fn)
        self._installed.clear()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_layer = (stack or tracer._main_stack or [(None, None)])[-1]
            sid = next(tracer._ids)
            stack.append((sid, layer))
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = _counts(layer, fname, kwargs, result, outermost=parent_layer != layer)
                tracer.spans.append((sid, parent, name, t0, t1, tracer.pass_id, counts))

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, pid, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1, "pass": pid}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def _counts(layer, fname, kwargs, result, *, outermost):
    """Counts read off a layer's return value at the call boundary."""
    if layer == "quadrature" and hasattr(result, "nodes"):
        return {"nodes": int(result.nodes), "unconverged": int(not result.converged)}
    if layer == "measures" and outermost and hasattr(result, "error_estimate"):
        tol = kwargs.get("tol")
        if tol is None:
            tol = _DEFAULT_TOL.get(fname, _DEFAULT_MEASURE_TOL)
        return {"unconverged": int(result.error_estimate > tol)}
    if layer == "identities" and outermost:
        if hasattr(result, "identity_id"):
            return {"reports": 1}
        if isinstance(result, (list, tuple)):
            return {"reports": sum(1 for r in result if hasattr(r, "identity_id"))}
    return None


def layer_metrics(spans, pass_id):
    """Per-layer calls, busy and self seconds, and counts for one pass.

    Self time splits each moment of the pass evenly among the innermost
    spans open at that moment (one per busy thread), so the self times of
    all layers add up to the time some span was open.  With one thread it is
    the span's duration minus the time its children cover.
    """
    spans = [s for s in spans if s[5] == pass_id]
    by_id = {s[0]: s for s in spans}
    events = []
    for sid, _, _, t0, t1, _, _ in spans:
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))  # closes sort before opens at equal times
    events.sort()

    self_s = defaultdict(float)
    open_ids = set()
    open_children = defaultdict(int)
    leaves = set()
    layer_open = defaultdict(int)
    busy = defaultdict(float)
    busy_since = {}
    last = events[0][0] if events else 0.0
    for t, is_open, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        last = t
        parent = by_id[sid][1]
        layer = by_id[sid][2].split(".", 1)[0]
        if is_open:
            open_ids.add(sid)
            leaves.add(sid)
            if parent in open_ids:
                open_children[parent] += 1
                leaves.discard(parent)
            if layer_open[layer] == 0:
                busy_since[layer] = t
            layer_open[layer] += 1
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent in open_ids:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
            layer_open[layer] -= 1
            if layer_open[layer] == 0:
                busy[layer] += t - busy_since.pop(layer)

    out = {}
    calls = defaultdict(int)
    self_layer = defaultdict(float)
    self_sub = defaultdict(float)
    totals = defaultdict(int)
    for sid, _, name, _, _, _, counts in spans:
        layer, fname = name.split(".", 1)
        calls[layer] += 1
        self_layer[layer] += self_s[sid]
        sub = _MEASURES_SUB.get(fname) if layer == "measures" else None
        if sub:
            self_sub[sub] += self_s[sid]
        for key, value in (counts or {}).items():
            totals[f"{layer}.{key}"] += value
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_layer[layer]
    for sub in ("jensen", "torus", "family"):
        out[f"measures.{sub}.self_s"] = self_sub[sub]
    out["measures.unconverged"] = totals["measures.unconverged"]
    out["roots.us_per_call"] = 1e6 * self_layer["roots"] / calls["roots"] if calls["roots"] else 0.0
    out["quadrature.nodes"] = totals["quadrature.nodes"]
    out["quadrature.unconverged"] = totals["quadrature.unconverged"]
    out["identities.reports"] = totals["identities.reports"]
    out["trace.self_sum_s"] = sum(self_layer.values())
    return out
