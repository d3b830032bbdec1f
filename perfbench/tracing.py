"""Span tracing of passklab's public layers, installed from outside the package.

Every public function and dataclass constructor defined in a passklab
module is wrapped, and the wrapper is re-bound in every passklab namespace
that holds the original object, so names imported with ``from ... import``
(``passklab.optimizer.conflict_report``) are traced too.  Constructors are
traced by wrapping the class's ``__init__``, which keeps ``isinstance`` and
classmethods such as ``GradientTable.uniform`` working.  No file under
``src/`` changes.

A span is (name, start, end, parent span) and lives in memory until the run
ends.  A layer's self time is its span's duration minus its child spans.
"""

import dataclasses
import functools
import importlib
import inspect
import os
import time

MODULES = (
    "objectives",
    "bandit",
    "mc",
    "interference",
    "conflict",
    "optimizer",
    "gradlog",
    "serialization",
    "cli",
)

# Functions whose ``path`` argument's file size is added up as their bytes.
SIZED = {
    "gradlog.export_gradlog",
    "gradlog.load_gradlog",
    "mc.export_samples",
    "serialization.write_csv",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent index)
        self.stack: list[int] = []
        self.bytes: dict[str, int] = {}
        self.samples = 0  # sampled actions drawn by mc.sample_actions

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sig = inspect.signature(fn) if name in SIZED or name == "mc.sample_actions" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
                if sig is not None:
                    self._count(name, sig.bind(*args, **kwargs).arguments)

        return traced

    def _count(self, name, arguments):
        if name == "mc.sample_actions":
            self.samples += len(arguments["batch"]) * int(arguments["n"])
        else:
            self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(arguments["path"])

    def install(self) -> None:
        """Wrap every public passklab layer in place."""
        modules = {m: importlib.import_module(f"passklab.{m}") for m in MODULES}
        replaced = {}  # id of the original function -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(name, obj))
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    obj.__init__ = self.wrap(name, obj.__init__)
        for mod in (importlib.import_module("passklab"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def aggregate(self, first: int = 0, last: int | None = None) -> dict:
        """Per-layer {calls, total_s, self_s} over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= first and parent - first < len(spans):
                child[parent - first] += end - start
        out: dict[str, dict] = {}
        for i, (idx, start, end, _) in enumerate(spans):
            stats = out.setdefault(
                self.names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            stats["calls"] += 1
            stats["total_s"] += end - start
            stats["self_s"] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as CSV: name, start_s, end_s, parent (-1: none)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for idx, start, end, parent in self.spans:
                fh.write(f"{self.names[idx]},{start!r},{end!r},{parent}\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, timed on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls
