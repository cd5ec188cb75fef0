"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces module attributes with wrappers.  Because a module's
attributes are its globals, a call made inside the module by bare name
(``kernels.boundary_decay_check`` calling ``lambda_envelope``) is seen too.
Names that were imported into another module (``from .quadrature import
integrate_01``) are patched at each listed import site under one metric
name.  A listed name that no longer exists is recorded as absent.

Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    request: Optional[str]


def self_times(spans) -> dict:
    """Per name, the summed span time minus the time of traced children.

    Children of one span run in the same thread one after another, so the
    sum of their durations is the part of the parent they cover.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start - covered[s.id]
    return dict(out)


class Tracer:
    """Wraps module functions, records their spans and call counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self.request: Optional[str] = None
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def install(self, name: str, sites, count_only: bool = False,
                on_call=None) -> bool:
        """Wrap the function found at each (module, attribute) site.

        count_only records a call count and no span, for functions called
        too often for a span each.  on_call(args, kwargs) sees every call.
        Returns False, and records the name as absent, when no site holds
        the attribute.
        """
        found = [(m, a) for m, a in sites
                 if m is not None and callable(getattr(m, a, None))]
        if not found:
            self.absent.append(name)
            return False
        wrappers: dict = {}
        for module, attr in found:
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrap = self._counter if count_only else self._spanner
                wrappers[id(fn)] = wrap(fn, name, on_call)
            setattr(module, attr, wrappers[id(fn)])
        return True

    def _counter(self, fn, name, on_call):
        lock, counts = self._lock, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, name, on_call):
        local, clock = self._local, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            request = self.request
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), request))

        return traced

    def calls(self) -> Counter:
        out = Counter(s.name for s in self.spans)
        out.update(self.counts)
        return out

    def worker_busy(self) -> float:
        """Wall time covered by outermost spans outside the main thread."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.thread != self.main_thread)
