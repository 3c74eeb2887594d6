"""Per-layer self time for the benchmark's traced run.

:class:`LayerTracer` wraps every function and method defined in the
``repro`` package (module functions, methods, static/class methods,
property getters, ``__init__`` and ``__call__``) with a timing shim.
Each call is a span; a span's *self time* is its duration minus the
durations of the spans it directly encloses, and a layer's self time is
the sum over the functions of that layer. The layer of a function is
the ``repro`` subpackage that defines it (:func:`layer_of`).

The wrappers live in this file, outside the program: nothing in
``repro`` is edited, and :meth:`LayerTracer.uninstall` restores every
attribute it replaced. Install before any topology is built, because
the datapath binds bound methods (``link._serve_txop`` and friends) at
build time; a callback bound before installation stays unwrapped.

What is not wrapped is charged to the nearest wrapped caller: dunder
methods other than ``__init__``/``__call__``, generator bodies, nested
functions and lambdas, and time in the standard library.

Spans are aggregated per function as they close (calls, items,
inclusive and self nanoseconds). Spans at least ``MIN_SPAN_NS`` long
are also kept in memory, up to ``MAX_SPANS``, and written at the end as
Chrome ``trace_event`` JSON (:meth:`LayerTracer.chrome_trace`), which
opens in Perfetto next to the simulator's own trace.

Pool workers fork from the main process and inherit its wrappers. The tracer
also replaces the runner's pool entry point ``_pool_cell`` with a shim
that records everything one pool attempt ran in the worker (spec
decoding, heartbeat, the cell, the summary payload) and writes it to a
spool directory; :meth:`LayerTracer.uninstall` folds the spool into the
main process's profile (``workers``). The campaign runner's ``wait`` on its
pool is charged to the pseudo-layer ``pool_wait``, so that a main process
blocked on workers does not read as campaign work.

The tracer assumes one thread runs ``repro`` code at a time.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import json
import os
import pkgutil
import shutil
import tempfile
import time
import types
from functools import wraps
from pathlib import Path

#: Every ``repro`` subpackage is a layer; top-level modules
#: (``repro``, ``repro.cli``) are the ``cli`` layer.
LAYERS = ("sim", "net", "wireless", "aqm", "core", "baselines",
          "transport", "cca", "app", "metrics", "traces", "topology",
          "campaign", "city", "obs", "faults", "control", "experiments",
          "cli")
#: Pseudo-layer of the campaign's main process blocked on its process pool.
POOL_WAIT = "pool_wait"
#: Modules never imported by the tracer (importing runs the CLI).
SKIP_MODULES = ("repro.__main__",)
#: Dunder methods worth a span; the rest are tiny and charged to callers.
KEPT_DUNDERS = ("__init__", "__call__")
#: Spans at least this long are kept for the Chrome trace.
MIN_SPAN_NS = 100_000
#: At most this many spans are kept per process.
MAX_SPANS = 100_000

# Slots of one per-function stat record.
CALLS, ITEMS, INCL, SELF = 0, 1, 2, 3

#: The tracer installed in this process, if any.
_INSTALLED = None


def layer_of(module_name: str) -> str:
    """The layer of a ``repro`` module: its subpackage name."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        raise ValueError(f"not a repro module: {module_name}")
    if len(parts) == 1:
        return "cli"
    layer = parts[1]
    if layer in LAYERS:
        return layer
    if layer in ("cli", "__main__"):
        return "cli"
    raise ValueError(f"repro module {module_name} has no layer; "
                     f"add {layer!r} to LAYERS")


def repro_modules() -> list:
    """Import and return every module of the ``repro`` package."""
    package = importlib.import_module("repro")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if info.name in SKIP_MODULES:
            continue
        modules.append(importlib.import_module(info.name))
    return modules


class LayerTracer:
    """Wraps ``repro`` callables and accounts span time per layer."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        #: qualified name -> [calls, items, inclusive ns, self ns]
        self.stats: dict = {}
        #: qualified name -> layer
        self.layer: dict = {}
        #: (qualified name, start ns, duration ns) of kept spans
        self.spans: list = []
        #: Total duration of spans that closed with no open parent.
        self.top_ns = [0]
        # Child-time accumulators of the open spans, innermost last.
        self._stack: list = []
        self._patches: list = []
        #: Where pool workers write their records while installed.
        self._spool = None
        #: One record per pool attempt, merged at :meth:`uninstall`.
        self.workers: list = []

    # -- span accounting ---------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        self.layer[key] = layer
        stack = self._stack
        spans = self.spans
        top = self.top_ns
        clock = self.clock
        min_ns = MIN_SPAN_NS
        cap = MAX_SPANS
        batch = fn.__name__.endswith("_batch")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stat[CALLS] += 1
                stat[ITEMS] += (len(args[1]) if batch and len(args) > 1
                                and hasattr(args[1], "__len__") else 1)
                stat[INCL] += dur
                stat[SELF] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    top[0] += dur
                if dur >= min_ns and len(spans) < cap:
                    spans.append((key, start, dur))

        wrapper.__layer_tracer__ = self
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "LayerTracer":
        """Wrap every ``repro`` callable; idempotent per tracer."""
        global _INSTALLED
        if self._patches:
            return self
        if _INSTALLED is not None:
            raise RuntimeError("another LayerTracer is installed")
        modules = repro_modules()
        replaced: dict = {}  # id(original function) -> wrapper
        for module in modules:
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrapper = self._wrap(obj, f"{module.__name__}.{name}",
                                         layer)
                    replaced[id(obj)] = (obj, wrapper)
                    self._patch(module, name, wrapper)
                elif (isinstance(obj, type)
                      and obj.__module__ == module.__name__
                      and not issubclass(obj, enum.Enum)):
                    self._install_class(obj, module.__name__, layer)
        # ``from x import f`` copies: point them at the same wrapper.
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    original, wrapper = replaced[id(obj)]
                    if obj is original:
                        self._patch(module, name, wrapper)
        runner = importlib.import_module("repro.campaign.runner")
        self._patch(runner, "wait",
                    self._wrap(runner.wait, "concurrent.futures.wait",
                               POOL_WAIT))
        self._spool = Path(tempfile.mkdtemp(prefix="perfbench-spool-"))
        self._patch(runner, "_pool_cell",
                    self._recording(runner._pool_cell, self._spool))
        _INSTALLED = self
        return self

    def _recording(self, pool_cell, spool: Path):
        """Shim of the runner's pool entry point, run in pool workers:
        writes what one attempt recorded to ``spool``."""

        @wraps(pool_cell)
        def shim(*args, **kwargs):
            snap = self.snapshot()
            start = self.clock()
            try:
                return pool_cell(*args, **kwargs)
            finally:
                window = self.clock() - start
                record = self.delta_since(snap)
                record.update(pid=os.getpid(), window_ns=window)
                name = f"cell-{os.getpid()}-{start}.json"
                (spool / (name + ".tmp")).write_text(json.dumps(record))
                (spool / (name + ".tmp")).rename(spool / name)

        shim.__layer_tracer__ = self
        return shim

    def _install_class(self, cls: type, module_name: str,
                       layer: str) -> None:
        prefix = f"{module_name}.{cls.__qualname__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in KEPT_DUNDERS:
                continue
            key = f"{prefix}.{name}"
            if isinstance(attr, types.FunctionType):
                if inspect.isgeneratorfunction(attr):
                    continue
                self._patch(cls, name, self._wrap(attr, key, layer))
            elif isinstance(attr, (staticmethod, classmethod)):
                inner = attr.__func__
                if (isinstance(inner, types.FunctionType)
                        and not inspect.isgeneratorfunction(inner)):
                    self._patch(cls, name,
                                type(attr)(self._wrap(inner, key, layer)))
            elif isinstance(attr, property) and isinstance(
                    attr.fget, types.FunctionType):
                self._patch(cls, name, property(
                    self._wrap(attr.fget, key, layer), attr.fset,
                    attr.fdel, attr.__doc__))

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first, and merge the
        pool workers' records."""
        global _INSTALLED
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        if self._spool is not None:
            for path in sorted(self._spool.glob("cell-*.json")):
                self.workers.append(json.loads(path.read_text()))
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None
        if _INSTALLED is self:
            _INSTALLED = None

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- pool workers -------------------------------------------------------

    def snapshot(self) -> tuple:
        """Counters and span count now, for :meth:`delta_since`."""
        return ({key: list(stat) for key, stat in self.stats.items()},
                len(self.spans))

    def delta_since(self, snap: tuple) -> dict:
        """Stats and spans recorded after ``snap``."""
        before, nspans = snap
        stats = {}
        for key, stat in self.stats.items():
            old = before.get(key, (0, 0, 0, 0))
            if stat[CALLS] != old[CALLS]:
                stats[key] = [a - b for a, b in zip(stat, old)]
        return {"stats": stats, "spans": self.spans[nspans:]}

    # -- reporting ------------------------------------------------------------

    def merged_stats(self) -> dict:
        """Main-process stats plus every merged worker record."""
        merged = {key: list(stat) for key, stat in self.stats.items()
                  if stat[CALLS]}
        for record in self.workers:
            for key, stat in record["stats"].items():
                into = merged.setdefault(key, [0, 0, 0, 0])
                for slot in (CALLS, ITEMS, INCL, SELF):
                    into[slot] += stat[slot]
        return merged

    def self_ns_by_layer(self) -> dict:
        """Self nanoseconds per layer (``pool_wait`` included), all
        processes."""
        totals = {layer: 0 for layer in LAYERS + (POOL_WAIT,)}
        for key, stat in self.merged_stats().items():
            totals[self.layer[key]] += stat[SELF]
        return totals

    def worker_ns(self) -> int:
        """Traced span time inside pool workers."""
        return sum(record["window_ns"] for record in self.workers)

    def chrome_trace(self, origin_ns: int) -> dict:
        """Kept spans as Chrome trace_event JSON, one process per pid."""
        events = []
        sources = [("main", os.getpid(), self.spans)]
        sources += [(f"worker {r['pid']}", r["pid"], r["spans"])
                    for r in self.workers]
        seen = set()
        for label, pid, spans in sources:
            if pid not in seen:
                seen.add(pid)
                events.append({"name": "process_name", "ph": "M",
                               "pid": pid, "tid": 0, "ts": 0,
                               "args": {"name": f"perfbench {label}"}})
            for key, start, dur in spans:
                events.append({"name": key, "ph": "X", "pid": pid,
                               "tid": 0, "cat": self.layer[key],
                               "ts": (start - origin_ns) / 1000.0,
                               "dur": dur / 1000.0})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"generator": "perfbench layer tracer",
                              "tracks": sorted(LAYERS)}}

    def write_chrome_trace(self, path: str | Path, origin_ns: int) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(origin_ns), handle)

