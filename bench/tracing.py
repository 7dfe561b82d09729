"""Spans around calls into juryselect's public functions.

``Tracer.patch`` rebinds a public function, in every ``juryselect``
module that holds it, to a wrapper that records a span: name, start,
end, the span that was open when it was called, and the thread.  The
wrappers sit at the names the callers look up (``juryselect.cli.
solve_altrm``, ``juryselect.experiments.read_corpus`` and so on), so the
program itself is not edited.  Spans stay in memory; self time is the
span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    start: float
    end: float = 0.0
    result: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span belongs to whatever the main
            # thread is waiting in (the experiment runner's thread pool).
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = Span(name, len(self.spans), None if parent is None else parent.sid, time.perf_counter())
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the body of a ``with`` block; yields the span."""
        span = self._open(name)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; the result is kept on the span."""
        with self.span(name) as span:
            span.result = fn(*args, **kwargs)
            return span.result

    def _iterate(self, name, fn, *args, **kwargs):
        # A lazy reader's span runs from the call to exhaustion, so it
        # covers the parsing done while the caller iterates.
        span = self._open(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()

    def patch(self, module_name: str, attr: str, name: str, lazy: bool = False) -> None:
        """Rebind ``module_name.attr`` wherever a juryselect module holds it."""
        original = getattr(sys.modules[module_name], attr)
        body = self._iterate if lazy else self.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return body(name, original, *args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "juryselect" and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def named(self, name: str, within: Span) -> list[Span]:
        """Spans called ``name`` below ``within``."""
        found, todo = [], list(within.children)
        while todo:
            span = todo.pop()
            if span.name == name:
                found.append(span)
            todo.extend(span.children)
        return found


def self_time(span: Span) -> float:
    """Duration minus the union of the child spans' intervals inside it."""
    covered = 0.0
    reach = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered
