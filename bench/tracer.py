"""Per-layer tracing from outside the package.

``Tracer.installed()`` wraps the public functions and methods of every
layer module, in every ``arthurcalc`` module namespace that binds them,
and undoes it on exit; nothing under ``src/`` changes.  Each call of a
wrapped function records a span (name, parent span, start, end) in
arrays kept in memory.  A few very hot primitives (half-integer
arithmetic, signed-permutation products, label helpers) are only
counted, and their time stays in the caller's span.

A layer's self time is the time of its spans minus the time of their
child spans.  A group time (``weyl.build_ms`` and the like) is the time
of the spans of that group that have no ancestor in the group, so
recursion and nesting are not counted twice.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from array import array
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

# Classes whose methods are counted, not spanned: they are called
# millions of times per round and each call is too short to time.
COUNTED = {"halfint": ("HalfInt",), "weyl": ("SignedPerm",),
           "labels": ("QuadCharacter", "RhoLabel")}
# Dunder methods that are part of a layer's public behaviour.
DUNDERS = {"ArthurParameter": ("__post_init__",),
           "SignedPerm": ("__mul__",),
           "HalfInt": ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__neg__", "__mul__", "__rmul__", "__int__",
                       "__str__")}

SUBSPACE = ("Subspace.of", "Subspace.full", "Subspace.contains",
            "Subspace.contains_subspace", "Subspace.transform")
# metric -> qualified names whose outermost spans it times
GROUP_MS = {
    "cli.build_parser_ms": ("cli.build_parser",),
    "io_json.parse_ms": ("io_json.*_from_json",),
    "io_json.emit_ms": ("io_json.*_to_json", "io_json.dumps"),
    "params.instances_ms": ("params.ArthurParameter.instances",),
    "params.make_parameter_ms": ("params.ArthurParameter.__post_init__",),
    "params.classify_ms": ("params.classify",),
    "packets.constituents_ms": ("packets.packet_constituents",),
    "segments.cuspidal_support_ms": ("segments.cuspidal_support",),
    "elementary.trace_ms": ("elementary.construction_trace",),
    "weyl.build_ms": ("weyl.restricted_roots", "weyl.catalog_split_data"),
    "weyl.identities_ms": ("weyl.verify_identity_A",
                           "weyl.verify_identity_B"),
    "weyl.alternating_sum_ms": ("weyl.verify_alternating_sum",),
    "weyl.coset_reps_ms": ("weyl.verify_coset_representatives",),
    "weyl.subspace_ms": tuple("weyl." + n for n in SUBSPACE),
}
# metric -> layer whose self time it reports
LAYER_SELF_MS = {"cli.self_ms": "cli", "charspace.ms": "charspace",
                 "signs.ms": "signs", "endoscopy.ms": "endoscopy",
                 "formal.ms": "formal"}
# metric -> qualified names whose calls it counts
CALLS = {
    "params.instances_calls": ("params.ArthurParameter.instances",),
    "params.make_parameter_calls": ("params.ArthurParameter.__post_init__",),
    "signs.calls": ("signs.*",),
    "elementary.trace_nodes": ("elementary.construction_trace",),
    "weyl.a_count_calls": ("weyl.a_count",),
    "weyl.subspace_ops": tuple("weyl." + n for n in SUBSPACE),
    "weyl.perm_products": ("weyl.SignedPerm.__mul__",),
    "halfint.ops": ("halfint.HalfInt.*",),
}
# result sizes: qualified name -> (metric, size of the result or args)
SIZES: Dict[str, Tuple[str, Callable]] = {
    "charspace.enumerate_elements":
        ("charspace.elements_enumerated", lambda r, a: len(r)),
    "charspace.enumerate_characters":
        ("charspace.elements_enumerated", lambda r, a: len(r)),
    "packets.packet_constituents":
        ("packets.constituent_classes", lambda r, a: len(r)),
    "formal.ddr_recursion_expand": ("formal.terms", lambda r, a: len(r)),
    "formal.packet_recursion_expand": ("formal.terms", lambda r, a: len(r)),
    "formal.packet_expand_fully": ("formal.terms", lambda r, a: len(r)),
    "segments.cuspidal_support":
        ("segments.reduction_steps", lambda r, a: len(r[2])),
    "io_json.dumps": ("io_json.bytes_out", lambda r, a: len(r)),
    "weyl.restricted_roots":
        ("weyl.group_order_total", lambda r, a: len(r.weyl)),
}

def unit(metric: str) -> str:
    if metric == "trace.overhead_pct":
        return "%"
    last = metric.split(".")[-1]
    return "ms" if last == "ms" or last.endswith("_ms") else "count"


def _matches(name: str, patterns) -> bool:
    for pat in patterns:
        if pat.endswith("*"):
            if name.startswith(pat[:-1]):
                return True
        elif "*" in pat:
            head, tail = pat.split("*")
            if name.startswith(head) and name.endswith(tail):
                return True
        elif name == pat:
            return True
    return False


class Tracer:
    def __init__(self, pkg: SimpleNamespace) -> None:
        self.pkg = pkg
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, int] = {}
        self.sizes: Dict[str, int] = {}
        self.a_count_keys = set()
        self._stack: List[int] = [-1]

    # -- wrappers ------------------------------------------------------

    def _span(self, fn: Callable, qual: str) -> Callable:
        nid = len(self.names)
        self.names.append(qual)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        perf = time.perf_counter
        size = SIZES.get(qual)
        sizes = self.sizes
        a_count = qual == "weyl.a_count"

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if size is not None:
                metric, measure = size
                sizes[metric] = sizes.get(metric, 0) + measure(result, args)
            if a_count:
                data, levi = args[0], args[1]
                self.a_count_keys.add((data.res.datum, data.split.name,
                                       levi.simples))
            return result

        return wrapper

    def _counter(self, fn: Callable, qual: str) -> Callable:
        counts = self.counts
        counts.setdefault(qual, 0)

        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _targets(self):
        """(owner, attribute, original, qualified name, counted only)."""
        for layer in vars(self.pkg):
            mod = getattr(self.pkg, layer)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    yield mod, name, obj, f"{layer}.{name}", False
                elif inspect.isclass(obj):
                    counted = name in COUNTED.get(layer, ())
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") and \
                                attr not in DUNDERS.get(name, ()):
                            continue
                        if isinstance(val, (staticmethod, classmethod)) or \
                                inspect.isfunction(val):
                            yield (obj, attr, val, f"{layer}.{name}.{attr}",
                                   counted)

    @contextlib.contextmanager
    def installed(self):
        done: List[Tuple[object, str, object]] = []
        swap: Dict[int, Callable] = {}
        for owner, attr, val, qual, counted in self._targets():
            fn = val.__func__ if isinstance(val, (staticmethod,
                                                  classmethod)) else val
            wrapped = (self._counter if counted else self._span)(fn, qual)
            if isinstance(val, (staticmethod, classmethod)):
                wrapped = type(val)(wrapped)
            else:
                swap[id(val)] = wrapped
            done.append((owner, attr, val))
            setattr(owner, attr, wrapped)
        # rebind the functions that other modules imported by name
        mods = [m for n, m in sys.modules.items()
                if n == "arthurcalc" or n.startswith("arthurcalc.")]
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swap and getattr(mod, name) is not swap[id(obj)]:
                    done.append((mod, name, obj))
                    setattr(mod, name, swap[id(obj)])
        try:
            yield self
        finally:
            for owner, attr, val in reversed(done):
                setattr(owner, attr, val)

    # -- metrics -------------------------------------------------------

    def metrics(self, scale: Callable[[float, float], float]) -> dict:
        """Every per-layer metric; scale(raw seconds, time point) turns a
        raw duration into reference-scaled seconds."""
        n = len(self.span_name)
        qual = [self.names[i] for i in self.span_name]
        dur = [scale(self.span_end[i] - self.span_start[i],
                     self.span_start[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, float] = {}
        distinct = set(qual)
        for metric, pats in GROUP_MS.items():
            hit = {q: _matches(q, pats) for q in distinct}
            inside = [hit[q] for q in qual]
            total = 0.0
            for i in range(n):
                if not inside[i]:
                    continue
                p = self.span_parent[i]
                while p >= 0 and not inside[p]:
                    p = self.span_parent[p]
                if p < 0:
                    total += dur[i]
            out[metric] = 1e3 * total
        layer_of = [q.split(".")[0] for q in qual]
        for metric, layer in LAYER_SELF_MS.items():
            out[metric] = 1e3 * sum(dur[i] - child[i] for i in range(n)
                                    if layer_of[i] == layer)
        calls: Dict[str, int] = {}
        for q in qual:
            calls[q] = calls.get(q, 0) + 1
        calls.update(self.counts)
        for metric, pats in CALLS.items():
            out[metric] = sum(c for q, c in calls.items()
                              if _matches(q, pats))
        for metric, _ in SIZES.values():
            out[metric] = self.sizes.get(metric, 0)
        out["weyl.a_count_distinct"] = len(self.a_count_keys)
        self._calls = calls
        self._self_ms = {}
        for i in range(n):
            self._self_ms[qual[i]] = self._self_ms.get(qual[i], 0.0) + \
                1e3 * (dur[i] - child[i])
        return out

    def write(self, path) -> None:
        """Per-function calls and self time of the traced round; call
        after metrics()."""
        rows = sorted(self._calls.items(), key=lambda kv: -kv[1])
        with open(path, "w") as fh:
            json.dump({"spans": len(self.span_name),
                       "functions": [
                           {"name": q, "calls": c,
                            "self_ms": self._self_ms.get(q)}
                           for q, c in rows]}, fh, indent=1)
