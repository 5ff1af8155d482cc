"""Outside-in layer tracing: wrap each layer's public functions.

The program keeps no spans of its own yet, so the traced run patches
the functions that bound each layer at every place they are reachable
from (the defining module or class, every ``repro.*`` module global
that imported them, and module-level dict tables such as the
partitioning strategy registry).  A span is opened per call on a
per-thread stack; when it closes, its duration is charged to its
parent's child time and its *self* time (duration minus the time of
wrapped children on the same thread) to its layer.  Spans are folded
into per-thread aggregates as they close, so memory stays flat no
matter how many calls a run makes; the totals are merged at the end.

A span opened on an empty stack is a root.  Root durations must fit
inside the wall the benchmark measures without spans
(``layers.metrics`` checks it); the part of that wall no layer claims
is reported as unattributed.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []          # [layer, child_seconds]
        self.agg = None          # _Agg owned by this thread
        self.search_depth = 0


class _Agg:
    """One thread's running totals (merged by :meth:`Tracer.totals`)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.root_s = 0.0
        self.counts = defaultdict(float)


class Tracer:
    """Span aggregation plus the patch table that feeds it."""

    def __init__(self):
        self._tls = _ThreadState()
        self._aggs: list[_Agg] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- aggregation ----------------------------------------------------

    def _agg(self) -> _Agg:
        agg = self._tls.agg
        if agg is None:
            agg = _Agg()
            with self._lock:
                self._aggs.append(agg)
            self._tls.agg = agg
        return agg

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named counter (thread-local, merged at the end)."""
        self._agg().counts[key] += amount

    @property
    def in_search(self) -> bool:
        """Whether the calling thread is inside a local search span."""
        return self._tls.search_depth > 0

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span on this thread."""
        stack = self._tls.stack
        return stack[-1][0] if stack else None

    def _close(self, layer: str, frame: list, duration: float) -> None:
        tls = self._tls
        stack = tls.stack
        stack.pop()
        agg = tls.agg
        if agg is None:
            agg = self._agg()
        agg.self_s[layer] += duration - frame[1]
        agg.calls[layer] += 1
        if stack:
            stack[-1][1] += duration
        else:
            agg.root_s += duration

    @contextmanager
    def span(self, layer: str):
        """Open a span by hand, around code that is not one call."""
        frame = [layer, 0.0]
        self._tls.stack.append(frame)
        start = _perf()
        try:
            yield
        finally:
            self._close(layer, frame, _perf() - start)

    def reset(self) -> None:
        """Drop every aggregate (between the build and query phases)."""
        with self._lock:
            for agg in self._aggs:
                agg.self_s.clear()
                agg.calls.clear()
                agg.counts.clear()
                agg.root_s = 0.0

    def totals(self) -> dict:
        """Merged ``{"self_s", "calls", "counts", "root_s"}``."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(float)
        root = 0.0
        with self._lock:
            for agg in self._aggs:
                for key, value in agg.self_s.items():
                    self_s[key] += value
                for key, value in agg.calls.items():
                    calls[key] += value
                for key, value in agg.counts.items():
                    counts[key] += value
                root += agg.root_s
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(counts), "root_s": root}

    # -- wrappers -------------------------------------------------------

    def timed(self, fn, layer: str, before=None, after=None,
              search: bool = False):
        """A span-recording wrapper around ``fn``.

        ``before(args, kwargs)`` may return replacement ``(args,
        kwargs)``; ``after(args, kwargs, result)`` observes the result.
        ``search`` marks the span as a local search, which lets hooks
        tell traversal-time calls from planner-time ones.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            tls = tracer._tls
            if before is not None:
                replaced = before(args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            frame = [layer, 0.0]
            tls.stack.append(frame)
            if search:
                tls.search_depth += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                if search:
                    tls.search_depth -= 1
                tracer._close(layer, frame, duration)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def counted(self, fn, key: str, after=None):
        """A span-free wrapper that only counts calls (cheap hot paths)."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(key)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_async(self, fn, key: str):
        """Call counter for a coroutine function."""
        tracer = self

        async def wrapper(*args, **kwargs):
            tracer.count(key)
            return await fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, make) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._set(cls, name, make(original))

    def patch_function(self, module_name: str, name: str, make) -> None:
        """Replace a module-level function at every import site.

        Every loaded ``repro`` module global bound to the original
        object is rebound, and so is every value of a module-level
        dict that holds it (registries resolved at call time).
        """
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapped

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
