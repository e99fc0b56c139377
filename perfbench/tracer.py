"""Span recorder for the traced run, kept entirely in the benchmark.

``Tracer.install`` wraps every public function of felab's seven layers (the
functions named in each layer module's ``__all__``) wherever that function
object is bound in a ``felab.*`` module namespace, so calls between modules
(``search.phi_q``, ``radial_kernels.integrate_adaptive``) are caught as well
as calls into the defining module.  The wrappers record only while
``active`` is set; ``uninstall`` restores the original bindings.  Spans stay
in memory; ``dump`` writes them once, at the end of the run.

Spans are single-threaded: every felab call in the benchmark runs with
threads=1.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("search", "functional", "set_model", "radial_kernels", "quadrature",
          "spectral", "perturbation")

# engines whose first argument is the integrand; its evaluated points are counted
_NODE_COUNTED = {"quadrature.integrate_adaptive", "quadrature.integrate_oscillatory_tail",
                 "quadrature.tail_power_periodic", "quadrature.integrate_composite"}


def felab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "felab" or name.startswith("felab."))]


def public_functions() -> dict:
    """Qualified name ('layer.function') -> function object, for loaded layers."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"felab.{layer}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj
    return found


def is_wrapped(fn) -> bool:
    return getattr(fn, "_perfbench_span", None) is not None


class Tracer:
    def __init__(self):
        self.names = []        # function id -> qualified name
        self.spans = []        # (span id, parent id, function id, start, end, self, op, tag)
        self.nodes = defaultdict(int)        # function id -> integrand points
        self.unconverged = defaultdict(int)  # function id -> results with converged False
        self.results = defaultdict(int)      # function id -> results carrying `converged`
        self.evals = 0                       # search evaluations, from SearchResult
        self.active = False
        self.op = -1           # index of the op in flight; -1 during set-up
        self._stack = []       # open spans: [span id, child time]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._bindings = []    # (module, attribute, original) for uninstall

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for qual, fn in public_functions().items():
            fid = len(self.names)
            self.names.append(qual)
            wrappers[id(fn)] = (fn, self._wrap(fid, qual, fn))
        for mod in felab_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, fid: int, qual: str, fn):
        rec = self
        count_nodes = qual in _NODE_COUNTED
        tag_dimension = qual == "functional.phi_q"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if count_nodes and args:
                args = (rec._counted(fid, args[0]),) + args[1:]
            tag = f"{qual}_{args[0].dimension}d" if tag_dimension and args else None
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1][0] if rec._stack else -1
            frame = [sid, 0.0]
            rec._stack.append(frame)
            rec._depth[fid] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._depth[fid] -= 1
                rec._stack.pop()
                dur = t1 - t0
                if rec._stack:
                    rec._stack[-1][1] += dur
                # a call nested in a call of the same function adds no busy time
                nested = rec._depth[fid] > 0
                rec.spans.append((sid, parent, fid, t0, t1, dur - frame[1], rec.op,
                                  "nested" if nested else tag))
            rec._observe(fid, out)
            return out

        wrapper._perfbench_span = qual
        return wrapper

    def _counted(self, fid: int, f):
        nodes = self.nodes

        def integrand(x):
            nodes[fid] += int(np.size(x))
            return f(x)
        return integrand

    def _observe(self, fid: int, out) -> None:
        converged = getattr(out, "converged", None)
        if isinstance(converged, (bool, np.bool_)):
            self.results[fid] += 1
            self.unconverged[fid] += not converged
        if self.names[fid] == "search.random_probe":
            self.evals += int(getattr(out, "evaluations", 0))

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, busy (outermost spans), self, nodes; per tag: busy."""
        agg = {q: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for q in self.names}
        tags = defaultdict(float)
        for _, _, fid, t0, t1, self_s, _, tag in self.spans:
            a = agg[self.names[fid]]
            a["calls"] += 1
            a["self_s"] += self_s
            if tag != "nested":
                a["busy_s"] += t1 - t0
                if tag:
                    tags[tag] += t1 - t0
        for fid, qual in enumerate(self.names):
            agg[qual]["nodes"] = self.nodes.get(fid, 0)
            agg[qual]["results"] = self.results.get(fid, 0)
            agg[qual]["unconverged"] = self.unconverged.get(fid, 0)
        return {"functions": agg, "tags": dict(tags)}

    def calls_under(self, child: str, ancestor: str) -> int:
        """Spans of ``child`` that have a span of ``ancestor`` above them."""
        if child not in self.names or ancestor not in self.names:
            return 0
        c, a = self.names.index(child), self.names.index(ancestor)
        parent_of = {s[0]: (s[1], s[2]) for s in self.spans}
        hits = 0
        for sid, parent, fid, *_ in self.spans:
            if fid != c:
                continue
            while parent != -1:
                parent, pfid = parent_of[parent]
                if pfid == a:
                    hits += 1
                    break
        return hits

    def dump(self, path) -> None:
        doc = {"functions": self.names,
               "fields": ["id", "parent", "function", "start", "end", "self_s", "op", "tag"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
