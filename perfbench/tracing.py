"""Spans around the calls into each layer's public functions.

The benchmark measures the program from outside: :func:`install`
replaces a fixed list of public functions and methods with wrappers
that time each call on a per-thread span stack.  A span's *self time*
is its duration minus the time its child spans cover.  Spans are kept
in memory as per-name aggregates and written out when the run ends.
Nothing under ``src/`` changes; the wrappers exist only in a traced run
(the end-to-end figures come from untraced runs).

Install before the program does any work: the ``auto`` planner binds a
strategy's ``execute`` when a plan freezes, so a method patched later
would miss every frozen plan.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: span name -> (module, attribute path).  A dotted attribute path names
#: a method on a class; a plain name a module-level function, patched in
#: every ``repro`` module that imported it.
LAYER_CALLS = {
    "tree.build": ("repro.store.store", "resolve_document"),
    "xpath.parse": ("repro.xpath.parser", "parse_xpath"),
    "xpath.compile": ("repro.xpath.compiler", "compile_xpath"),
    "plan.prepare": ("repro.engine.api", "Engine.prepare"),
    "plan.execute": ("repro.engine.plan", "PreparedQuery.execute"),
    "planner.prepare": ("repro.engine.planner", "AutoStrategy.prepare"),
    "planner.explore": ("repro.engine.planner", "AutoStrategy.execute"),
    "engine.vectorized": ("repro.engine.frontier", "VectorizedStrategy.execute"),
    "engine.window": ("repro.engine.window", "WindowStrategy.execute"),
    "engine.mixed": ("repro.engine.mixed", "MixedStrategy.execute"),
    "engine.optimized": ("repro.engine.optimized", "OptimizedStrategy.execute"),
    "engine.hybrid": ("repro.engine.hybrid", "HybridStrategy.execute"),
    "store.save": ("repro.store.store", "save_document"),
    "store.replace": ("repro.store.store", "DocumentStore.replace"),
    "store.open": ("repro.store.store", "open_document"),
    "store.compact": ("repro.store.store", "DocumentStore.compact"),
    "workspace.swap": ("repro.engine.workspace", "Workspace.swap_stored"),
    "pool.batch": ("repro.engine.parallel", "QueryService.select_many"),
    "serve.evaluate": ("repro.serve.daemon", "QueryDaemon._evaluate"),
    "serve.batch": ("repro.serve.daemon", "QueryDaemon._evaluate_batch"),
}


class Tracer:
    """Per-name span aggregates: calls, total and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        #: Bytes of XML text handed to ``tree.build``.
        self.xml_bytes = 0
        #: Per-plan planner exploration: id(plan) -> [executions, seconds].
        self.explore: Dict[int, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, duration: float, children: float) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - children
            )

    def wrapper(self, name: str, fn: Callable) -> Callable:
        stack_of = self._stack
        record = self._record
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                record(name, duration, children)
                if name == "tree.build" and args and isinstance(args[0], str):
                    with self._lock:
                        self.xml_bytes += len(args[0].encode("utf-8"))
                elif name == "planner.explore" and len(args) > 1:
                    with self._lock:
                        entry = self.explore.setdefault(id(args[1]), [0, 0.0])
                        entry[0] += 1
                        entry[1] += duration

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, calls: Optional[Dict[str, tuple]] = None) -> "Tracer":
        import importlib

        for name, (module_name, attr) in (calls or LAYER_CALLS).items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                had_own = meth in cls.__dict__
                setattr(cls, meth, self.wrapper(name, original))
                self._undo.append(
                    functools.partial(_restore_method, cls, meth, original, had_own)
                )
                continue
            original = getattr(module, attr)
            traced = self.wrapper(name, original)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original
                ):
                    setattr(mod, attr, traced)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, original)
                    )
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -----------------------------------------------------------

    @classmethod
    def from_snapshots(cls, snapshots) -> "Tracer":
        """Aggregates of several :meth:`snapshot` dicts (e.g. the daemon's
        and the client's) in one tracer, for reporting."""
        merged = cls()
        for snap in snapshots:
            for name, span in snap["spans"].items():
                merged.calls[name] = merged.calls.get(name, 0) + span["calls"]
                merged.total[name] = merged.total.get(name, 0.0) + span["total_ms"] / 1e3
                merged.self_time[name] = (
                    merged.self_time.get(name, 0.0) + span["self_ms"] / 1e3
                )
            merged.xml_bytes += snap["xml_bytes"]
            for i, entry in enumerate(snap["explore"]):
                merged.explore[(id(snap), i)] = list(entry)
        return merged

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0.0) * 1000.0 / calls if calls else 0.0

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time.get(name, 0.0) * 1000.0 / calls if calls else 0.0

    def snapshot(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_ms": self.total[name] * 1000.0,
                    "self_ms": self.self_time[name] * 1000.0,
                }
                for name in sorted(self.calls)
            },
            "xml_bytes": self.xml_bytes,
            "explore": [list(v) for v in self.explore.values()],
        }


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Seconds one traced call adds over a plain call (calibrated here)."""

    def noop():
        return None

    traced = Tracer().wrapper("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - t0 - plain) / calls)
    return max(best, 0.0)


def overhead_pct(tracer: Tracer, elapsed_s: float) -> float:
    """Estimated share of ``elapsed_s`` spent inside the span wrappers."""
    calls = sum(tracer.calls.values())
    return 100.0 * calls * wrapper_cost_s() / elapsed_s if elapsed_s else 0.0


def _restore_method(cls, meth, original, had_own) -> None:
    if had_own:
        setattr(cls, meth, original)
    else:
        delattr(cls, meth)
