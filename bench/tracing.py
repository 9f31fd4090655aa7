"""In-process spans around the package's public functions, without touching it.

``instrument`` replaces, by attribute, every public function of each module
(the names in ``__all__``, or every function defined there when a module
has none) with a wrapper that records a span, and also replaces the same
function wherever another package module holds it under a ``from ...
import`` name.  Calls the CLI makes therefore show up as spans on the path
it really takes; a function it stops calling simply has no span.

Functions called once per row are counted instead of spanned, so tracing
them does not swamp the work they do.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType

PER_ROW = frozenset({"featurize.tokenize", "featurize.ngrams", "featurize.featurize_example", "mahalanobis.score"})


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    captured: tuple | None = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "run": self.run, "parent": self.parent,
                "start": self.start, "end": self.end}


class Tracer:
    """Spans and per-row call counts, kept in memory until the run ends.

    Each thread has its own stack of open spans, so a span opened in a worker
    thread has no parent; the lock keeps span ids and counts exact when the
    package calls public functions from several threads.
    """

    def __init__(self, capture: frozenset[str] = frozenset()) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.capture = capture
        self.run = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin_run(self, run: str) -> None:
        self.run = run
        self.counts.setdefault(run, {})

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span = Span(len(self.spans), name, self.run,
                            stack[-1].id if stack else None, time.perf_counter())
                self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in self.capture:
                span.captured = (args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                counts = self.counts[self.run]
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str, run: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (run is None or s.run == run)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _public_functions(module: ModuleType) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: getattr(module, n)
        for n in names
        if inspect.isfunction(getattr(module, n)) and getattr(module, n).__module__ == module.__name__
    }


@contextmanager
def instrument(tracer: Tracer, package: str, modules: tuple[str, ...]):
    """Wrap the public functions of ``package.<module>`` for each module; undo on exit."""
    wrappers: dict[int, object] = {}
    for short in modules:
        module = sys.modules[f"{package}.{short}"]
        for name, fn in _public_functions(module).items():
            label = f"{short}.{name}"
            wrap = tracer._counter if label in PER_ROW else tracer._span
            wrappers[id(fn)] = wrap(label, fn)
    patched: list[tuple[ModuleType, str, object]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and not attr.startswith("__"):
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
