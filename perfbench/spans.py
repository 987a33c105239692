"""A span recorder that times layer boundaries from outside the program.

Each span keeps its name, start, end, parent span and run id in memory;
``run.py`` writes them out when the benchmark ends.  Spans come from two
places:

* ``span(name)`` around a call the benchmark makes itself;
* ``wrap(cls, attr, name)``, which replaces a class attribute with a
  recording wrapper for the life of the ``with`` block.  Every caller
  reaches a method through its class, so one patch sees them all.

Functions imported into their callers with ``from ... import`` cannot be
patched this way; for those the benchmark reads the program's own
``repro.obs`` phase timers instead.

``NullRecorder`` records nothing; untraced runs use it so end-to-end
numbers carry no tracing cost.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the recorder's span list, -1 at root
    run: str
    items: int = 0       # work units the boundary saw (points, arrivals)


class SpanRecorder:
    """In-memory span tree of one traced run."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    @contextmanager
    def wrap(self, cls: type, attr: str, name: str,
             items: Callable[..., int] | None = None) -> Iterator[None]:
        """Record a span around every call of ``cls.attr``.

        ``items(args, result)`` (optional) returns the work units of one
        call, stored on its span.
        """
        original = cls.__dict__[attr]
        recorder = self

        def recorded(*args: Any, **kwargs: Any) -> Any:
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
                if items is not None:
                    recorder.spans[index].items = items(args, result)
                return result
            finally:
                recorder._close(index)

        setattr(cls, attr, recorded)
        try:
            yield
        finally:
            setattr(cls, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class NullRecorder:
    """Records nothing; ``span`` costs one call."""

    def span(self, name: str):
        return nullcontext()
