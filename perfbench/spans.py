"""Spans around the egobatch layers, recorded from outside the package.

A layer is one package module. `Tracer.install` wraps the public functions
and methods a module defines, then rebinds every name in every loaded
`egobatch` module that still points at an unwrapped original. Modules import
one another's functions by name (`training` holds its own `sgd_update`,
`cli` its own `load_dataset`), so wrapping only the defining module would
silently miss those calls.

Each wrapped call is one span. Spans nest on a stack; a span's self time is
its duration minus the durations of the spans it directly encloses, so the
self times of all spans under a root add up to the root's duration. While
the tracer has a `Timeline`, every span also marks its start and end time
there, in order, so a run can compare the same stretch of work across
repetitions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("datamodel", "nnet", "batching", "models", "training", "splitter",
          "evaluation", "cli")


class Record:
    """Totals for one span name: calls, inclusive and self seconds, counters."""

    __slots__ = ("calls", "total", "self_s", "counts", "samples")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.samples: list[float] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


class Timeline:
    """The start and end time of every span, in the order they happened.

    Event `2 * k` is a start and `2 * k + 1` an end of the span name with
    code `k` in `Tracer.codes`.
    """

    __slots__ = ("events", "times")

    def __init__(self):
        self.events = array("i")
        self.times = array("d")

    def mark(self, event: int, when: float) -> None:
        self.events.append(event)
        self.times.append(when)


class Tracer:
    """Records spans into `table`, a dict from span name to `Record`.

    `posts` maps a span name to `post(record, args, kwargs, result)`, which
    runs after the span closes and returns the result handed to the caller;
    it adds counters such as bytes or flops. `sampled` names keep every
    duration in `Record.samples`. While `timeline` is a `Timeline`, every
    span also marks its start and end there.
    """

    def __init__(self, posts: dict | None = None, sampled: frozenset = frozenset()):
        self.table: dict[str, Record] = {}
        self.active = True
        self.timeline: Timeline | None = None
        self.codes: dict[str, int] = {}
        self._posts = posts or {}
        self._sampled = sampled
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def start_event(self, name: str) -> int:
        """The timeline event that marks a start of `name`; its end is one more."""
        return 2 * self.codes.setdefault(name, len(self.codes))

    def record(self, name: str) -> Record:
        rec = self.table.get(name)
        if rec is None:
            rec = self.table[name] = Record()
        return rec

    def _close(self, name: str, duration: float, children: float) -> Record:
        if self._stack:
            self._stack[-1][0] += duration
        rec = self.record(name)
        rec.calls += 1
        rec.total += duration
        rec.self_s += duration - children
        if name in self._sampled:
            rec.samples.append(duration)
        return rec

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one repetition."""
        if not self.active:
            yield
            return
        event = self.start_event(name)
        timeline = self.timeline
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        if timeline is not None:
            timeline.mark(event, start)
        try:
            yield
        finally:
            end = time.perf_counter()
            if timeline is not None:
                timeline.mark(event + 1, end)
            self._stack.pop()
            self._close(name, end - start, children[0])

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (warm-up, output checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn, name: str):
        post = self._posts.get(name)
        stack = self._stack
        clock = time.perf_counter
        event = self.start_event(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            timeline = self.timeline
            children = [0.0]
            stack.append(children)
            start = clock()
            if timeline is not None:
                timeline.mark(event, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if timeline is not None:
                    timeline.mark(event + 1, end)
                stack.pop()
                rec = self._close(name, end - start, children[0])
            if post is not None:
                result = post(rec, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        # vars() keeps a classmethod's descriptor, which getattr would bind
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, select=None) -> list[str]:
        """Wrap every public function and method of the layer modules whose
        span name `select(name)` accepts (all when None); returns the names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, tuple[object, object]] = {}
        names = []
        for layer in LAYERS:
            module = sys.modules[f"egobatch.{layer}"]
            for attr, obj in list(vars(module).items()):
                own = getattr(obj, "__module__", None) == module.__name__
                if attr.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if select is None or select(name):
                        wrapped[id(obj)] = (obj, self._wrap(obj, name))
                        names.append(name)
                elif inspect.isclass(obj):
                    names += self._install_methods(obj, f"{layer}.{attr}", select)
        for modname, module in list(sys.modules.items()):
            if modname != "egobatch" and not modname.startswith("egobatch."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        return names

    def _install_methods(self, cls, prefix: str, select) -> list[str]:
        names = []
        for attr, member in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or not (select is None or select(name)):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))
            else:
                continue
            names.append(name)
        return names

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
