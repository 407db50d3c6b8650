"""In-memory spans recorded from outside the program.

A :class:`Tracer` wraps a layer's public callable in a timing proxy; each call
becomes a span ``(name, start, end, parent)`` where ``parent`` is the span
that was open on the same thread when it began.  Nothing under ``src/`` is
changed: the proxies are installed by the benchmark (as instance attributes
or as the callable the load loop invokes) for the traced pass only.

A layer's *self time* is its spans' duration minus the part their child spans
cover, so the self times of all layers add up to the duration of the root
spans — which is what ``trace.closure`` compares with the wall clock.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Collects spans; cheap enough to sit on a 70 µs query path."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent span or None]``; worker threads share the list.
        self.spans: list[list[Any]] = []
        self._open = threading.local()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A proxy for ``fn`` that records one span per call."""
        spans = self.spans
        local = self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(span)
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, name: str, target: Any, *attributes: str) -> None:
        """Shadow ``target.attr`` with a traced proxy, for each attribute."""
        for attribute in attributes:
            setattr(target, attribute, self.wrap(name, getattr(target, attribute)))

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        covered: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + end - start
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            name, start, end, _ = span
            layer = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            layer["count"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - covered.get(id(span), 0.0)
        return out

    def head(self, limit: int) -> list[dict[str, Any]]:
        """The first ``limit`` raw spans, for the trace file."""
        origin = self.spans[0][1] if self.spans else 0.0
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            {"span": position, "name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": None if parent is None else index[id(parent)]}
            for position, (name, start, end, parent) in enumerate(self.spans[:limit])
        ]
