"""In-memory span tracing of enumtc, installed from outside the program.

``Tracer.install()`` replaces each public function of the enumtc layer
modules, and a few heavy public methods, with a wrapper that records a
span (name, start, end, parent).  The modules import one another with
``from .x import f``, so every ``enumtc.*`` module attribute that refers
to a wrapped function is rebound too; patching only the defining module
would miss those calls.  ``uninstall()`` puts every original back.

Spans are kept in a list while the program runs and only read after it
has finished: ``summary()`` turns them into per-function calls, total
time and self time (span time minus the time its child spans cover), and
``write()`` saves them.  Tracing assumes one thread, which is how the
benchmark runs enumtc (no ``--threads``).
"""

import functools
import importlib
import json
import sys
import types
from time import perf_counter

LAYERS = ("cli", "claims", "quartic", "numroots", "poly", "fields",
          "linalg", "koszul", "nabla", "restriction", "geometry")

# Public methods that get a span; every public module-level function does.
METHODS = {
    "linalg": {"Matrix": ("rref", "rank", "kernel_basis")},
    "koszul": {"KoszulComplex": ("boundary_matrix",)},
}

# Left unwrapped on purpose.  A span costs about a microsecond and a list
# entry, which for these would outweigh the work measured and hold
# millions of spans in memory: the fields element operators (methods of
# the field and element classes, not listed in METHODS; about 10^7 calls
# in one exact-wide run) and numroots.chordal_distance (1.6-2.3M calls
# from inside cluster_points in one bitangent scan).  Their time is
# counted in their callers' self time.
UNWRAPPED = frozenset({"numroots.chordal_distance"})


# Work counters taken from a call's arguments and result, keyed by span.
MEASURES = {
    "numroots.cluster_points": lambda args, result: {
        "points": len(args[0]), "clusters": len(result)},
    "linalg.Matrix.rref": lambda args, result: {
        "entries": args[0].rows * args[0].cols},
    "quartic.bitangent_scan": lambda args, result: {
        "lines": len(result.bitangents) + len(result.flex_tangents)},
}


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_") or not isinstance(
                value, (types.FunctionType, functools._lru_cache_wrapper)):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield name, value


class Tracer:
    """Records spans for calls into the enumtc layers while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {}   # "<span name>.<counter>" -> total
        self._stack = []
        self._restore = []   # (owner, attribute, original value)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        measure = MEASURES.get(name)
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if measure is not None:
                for key, value in measure(args, result).items():
                    full = f"{name}.{key}"
                    counters[full] = counters.get(full, 0) + value
            return result

        return traced

    def install(self):
        """Wrap the layer functions and rebind every reference to them."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"enumtc.{layer}")
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                if name not in UNWRAPPED:
                    replaced[id(fn)] = (fn, self._wrap(name, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(
                        f"{layer}.{cls_name}.{meth}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "enumtc" and not mod_name.startswith("enumtc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}} over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def calls_within(self, inner: str, outer: str) -> int:
        """Number of `inner` spans that have an `outer` span above them."""
        spans = self.spans
        count = 0
        for name, _, _, parent in spans:
            if name != inner:
                continue
            while parent >= 0 and spans[parent][0] != outer:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path):
        """Save the spans as JSON: names once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent]
                for n, start, end, parent in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": names, "columns":
                       ["name", "start", "end", "parent"], "spans": rows},
                      handle)
