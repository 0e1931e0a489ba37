"""Spans around calls into cubecomp's eight modules, taken from outside.

The library is not edited.  `Tracer.install()` replaces, in every
`cubecomp` module namespace that holds them (aliases included), the
functions that make up each module's interface: its public functions and
any private function another module imports.  It also wraps the hot methods
of `KElem`, `OrientedIdeal`, `Poly` and `MultiForm` on their classes, and
`qring._hnf_rows`, the HNF step every ideal product and module key runs.
`uninstall()` puts every original back.

A span is (name id, start ns, end ns, parent span, op id, value) in one flat
integer array, kept in memory and written out when the run ends.  `value`
holds the cycle length for `bqf.reduce` spans.  Self time is a span's
duration minus the durations of its direct children, so the self times of
all spans under one op span add up to that op span's duration exactly.
"""

from __future__ import annotations

import gzip
import importlib
import time
import types
from array import array

MODULES = ("exact", "qring", "bqf", "cubes", "symspaces", "altforms", "wire",
           "cli")
HOT_METHODS = {
    ("qring", "KElem"): ("__init__", "__add__", "__sub__", "__rsub__",
                         "__neg__", "__mul__", "__truediv__", "__rtruediv__",
                         "__pow__", "inverse", "conj", "norm", "trace"),
    ("qring", "OrientedIdeal"): ("__init__", "__mul__", "inverse", "hnf_basis",
                                 "module_key", "norm", "scale", "contains"),
    ("exact", "Poly"): ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                        "__pow__", "eval"),
    ("exact", "MultiForm"): ("__init__", "substitute", "tensor", "__add__",
                             "__sub__", "__neg__", "scale", "eval"),
}
EXTRA_FUNCTIONS = (("qring", "_hnf_rows"),)
FIELDS = 6  # name id, start, end, parent, op, value
OP_SPAN = "bench.op"


def _cycle_length(result) -> int:
    cycle = getattr(result, "cycle", None)
    return len(cycle) if cycle else 0


VALUE_OF = {"bqf.reduce": _cycle_length}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._op = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, op, clock = self.spans, self._stack, self._op, time.perf_counter_ns
        value_of = VALUE_OF.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.extend((nid, clock(), 0, stack[-1], op[0], 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx + 2] = clock()
            if value_of is not None:
                spans[idx + 5] = value_of(result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id`, under a root span of its own."""
        self._op[0] = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    # -- patching -----------------------------------------------------------

    def _targets(self, modules):
        """{original function: span name} for every module's interface."""
        targets = {}
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if not isinstance(val, types.FunctionType):
                    continue
                owner = val.__module__.rpartition(".")[2]
                if owner not in modules:
                    continue
                public = not attr.startswith("_") and owner == short
                imported = owner != short
                if public or imported:
                    targets[val] = f"{owner}.{val.__name__}"
        for short, attr in EXTRA_FUNCTIONS:
            fn = getattr(modules[short], attr, None)
            if fn is not None:
                targets[fn] = f"{short}.{attr}"
        return targets

    def install(self) -> None:
        pkg = importlib.import_module("cubecomp")
        modules = {m: importlib.import_module(f"cubecomp.{m}") for m in MODULES}
        wrappers = {fn: self._wrap(name, fn)
                    for fn, name in self._targets(modules).items()}
        for mod in (pkg, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for (short, cls_name), methods in HOT_METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                wrapper = self._wrap(f"{short}.{cls_name}.{meth}", fn)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for attr, val in list(cls.__dict__.items()):
                    if val is fn:
                        self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def rows(self):
        """Spans as (name, start, end, parent index, op, value) tuples."""
        s, names = self.spans, self.names
        for i in range(0, len(s), FIELDS):
            yield (names[s[i]], s[i + 1], s[i + 2], s[i + 3] // FIELDS,
                   s[i + 4], s[i + 5])

    def write(self, path: str) -> None:
        """All spans as gzip-compressed tab-separated text, one per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tvalue\n")
            for row in self.rows():
                fh.write("\t".join(map(str, row)) + "\n")


def summarize(tracer: Tracer):
    """Per-name totals over all spans: calls, self ns, value sum, and the
    number of gamma_act spans inside a cube_to_triple span."""
    s, names = tracer.spans, tracer.names
    n = len(s) // FIELDS
    dur = array("q", bytes(8 * n))
    child = array("q", bytes(8 * n))
    for k in range(n):
        i = k * FIELDS
        dur[k] = s[i + 2] - s[i + 1]
        parent = s[i + 3]
        if parent >= 0:
            child[parent // FIELDS] += dur[k]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    values = [0] * len(names)
    for k in range(n):
        nid = s[k * FIELDS]
        calls[nid] += 1
        self_ns[nid] += dur[k] - child[k]
        values[nid] += s[k * FIELDS + 5]
    shears = 0
    gamma = tracer._ids.get("cubes.gamma_act")
    c2t = tracer._ids.get("cubes.cube_to_triple")
    for k in range(n):
        if s[k * FIELDS] != gamma:
            continue
        parent = s[k * FIELDS + 3]
        while parent >= 0:
            if s[parent] == c2t:
                shears += 1
                break
            parent = s[parent + 3]
    by_name = {
        name: {"calls": calls[i], "self_ns": self_ns[i], "value": values[i]}
        for i, name in enumerate(names)
        if calls[i]
    }
    return by_name, shears
