"""Outside-in tracer: spans around every public function of the engine.

The tracer wraps each public function (plain or lru-cached) defined in
one of the package modules and rebinds the wrapper in every namespace
that holds the original: the defining module, every module that imported
it by name (e.g. `catalog.build_restricted`, `wonderful.validate`), and
module-level dicts such as `kac.KAC_BUILDERS`.  Calls made inside a
module through its own globals therefore go through the wrapper too;
private helpers are not wrapped, so their time counts as self time of
the nearest public caller.

A span is (function, start, end, parent span, op id, returned normally).
Spans are kept in flat arrays in memory and written out by `write`.
"""

import gzip
import os
import sys
import time
import types
from array import array

LAYERS = ("catalog", "cli", "rootsystem", "involution", "restricted",
          "curves", "invariants", "kac", "linalg")
PACKAGE = "wonderful"


def _is_traceable(obj, module_name):
    if getattr(obj, "__module__", None) != module_name:
        return False
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names = []          # span name id -> "layer.function"
        self.originals = {}      # "layer.function" -> unwrapped callable
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]        # open span ids, innermost last
        self.current_op = -1

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        func, parent, op, ok = self.func, self.parent, self.op, self.ok
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(end)
            func.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            ok.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                ok[idx] = 1
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every public function of the layers and rebind it in all
        loaded package modules.  Call after importing the package."""
        __import__(PACKAGE + ".cli")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_traceable(obj, mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]

    def cache_counts(self, layer):
        """(hits, misses) summed over the layer's public cached functions."""
        hits = misses = 0
        for name, fn in self.originals.items():
            if name.split(".")[0] == layer and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
        return hits, misses

    def fold(self):
        """Per-function {calls, accepted, self_s}; self time is a span's
        duration minus the durations of its direct children (calls are
        sequential, so children never overlap)."""
        n = len(self.end)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "accepted": 0, "self_s": 0.0}
                 for name in self.names}
        for i in range(n):
            row = stats[self.names[self.func[i]]]
            row["calls"] += 1
            row["accepted"] += self.ok[i]
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        return stats

    def write(self, path):
        """Write the spans as gzip'd TSV: id, parent, op, name, start,
        end, ok (times in seconds on the perf_counter clock)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tok\n")
            names = self.names
            for i in range(len(self.end)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{names[self.func[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.ok[i]}\n")
