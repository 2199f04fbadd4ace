"""Spans around the public entry points of each effalg layer.

The wrappers live here, in the benchmark, and are patched in from outside:
nothing under ``src/`` changes.  A function imported by name into several
modules (``validate`` is bound in core, construct, enumeration, theorems
and the package root) is replaced in every module that holds it, so a
call through any of those names is seen.  ``Patches`` restores every
attribute it replaced when its ``with`` block ends, also after an
exception.

Spans are kept in memory.  Each records its name, start, end, the span
that caused it, and the id of the operation it belongs to, so nested
spans of one operation share an id.  A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("run_id", "span_id", "parent", "name", "start", "end",
                 "child_s")

    def __init__(self, run_id, span_id, parent, name, start):
        self.run_id = run_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans while ``run_id`` is set; records nothing otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.run_id = None
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span | None:
        if self.run_id is None:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(self.run_id, len(self.spans),
                    parent.span_id if parent else None, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None):
        if span is None:
            return
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def count(self, name: str, by: int = 1):
        if self.run_id is not None:
            self.counts[name] += by

    def record_max(self, name: str, value: int):
        if self.run_id is not None and value > self.maxima[name]:
            self.maxima[name] = value

    def summary(self, spans=None) -> dict:
        """Calls, inclusive seconds and self seconds per span name, over
        ``spans`` (default: every span recorded)."""
        out: dict[str, dict] = {}
        for s in self.spans if spans is None else spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_s
        return out


def wrap(tracer: Tracer, name: str, fn, observe=None):
    """A stand-in for ``fn`` that records a span per call.

    ``observe(tracer, args, result)`` runs after a successful call, to
    record counts and sizes at the boundary.  For a generator function the
    span covers each resumption, so the time the consumer spends between
    items is not charged to the generator.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            inner = fn(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                tracer.count(name + ".items")
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if observe is not None and tracer.run_id is not None:
            observe(tracer, args, result)
        return result

    return wrapper


class Patches:
    """Replaces attributes and puts every original back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, package: str, original, replacement) -> int:
        """Rebind ``original`` to ``replacement`` in every loaded module
        of ``package`` that holds it; returns how many names were bound."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        return hits

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
