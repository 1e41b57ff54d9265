"""Spans around every public function of hoggsat's layer modules.

`install` wraps each public function of `hoggsat.<layer>` once and binds
that one wrapper in every hoggsat namespace that binds the function, so a
call is counted once whichever name it goes through.  Spans stay in memory;
`summary` turns them into calls and self time (a span's duration minus the
part its child spans cover) per function, plus the computed byte counters.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("formula", "hogg", "linalg", "pulse", "spin_sim", "cli")


def _walsh_apply_bytes(args, result) -> int:
    """One read and one write of the complex state per butterfly stage."""
    size = result.size
    return 2 * result.itemsize * size * int(math.log2(size))


def _dense_bytes(args, result) -> int:
    """Bytes of the 2**n x 2**n array a hogg function returned."""
    return result.nbytes


COUNTERS = {
    "hogg.walsh_apply": (("hogg.walsh_apply.bytes", _walsh_apply_bytes),),
    **{f"hogg.{fn}": (("hogg.dense_bytes", _dense_bytes),)
       for fn in ("walsh_hadamard", "mixing_matrix")},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.counters: dict[str, float] = defaultdict(float)
        self.names: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, counters = self.spans, self._open, self.counters
        count = COUNTERS.get(name, ())
        self.names.add(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, open_spans[-1] if open_spans else -1, perf_counter_ns(), 0])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][3] = perf_counter_ns()
            for key, measure in count:
                counters[key] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for index, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        return {"calls": dict(calls), "self_ns": dict(self_ns),
                "counters": dict(self.counters), "names": sorted(self.names)}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules."""
    import hoggsat

    modules = {layer: importlib.import_module(f"hoggsat.{layer}") for layer in LAYERS}
    namespaces = [hoggsat, *modules.values()]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for namespace in namespaces:
                for key in [k for k, v in vars(namespace).items() if v is fn]:
                    setattr(namespace, key, wrapper)


def merge(total: dict, part: dict) -> None:
    """Add one summary into another (traced child processes)."""
    for field in ("calls", "self_ns", "counters"):
        bucket = total.setdefault(field, {})
        for key, value in part[field].items():
            bucket[key] = bucket.get(key, 0) + value
    total["names"] = sorted(set(total.get("names", ())) | set(part["names"]))
