"""In-memory span recorder, self-time arithmetic and Chrome trace export.

A span is one stay inside a layer: its name, start, end, the span that
caused it (the innermost open span of the same thread) and the fit it
belongs to.  Two shapes exist:

* a *call* span covers one function call, so its busy time is
  ``end - start``;
* an *iterator* span covers the life of a returned iterator (a server
  cursor, a staged-file scan).  The caller's own work runs between
  items, so only the time spent inside ``next()`` is the layer's: the
  span keeps ``start``/``end`` for display and accumulates ``busy``.

A span's self time is its busy time minus the part of it its child
spans cover: the union of the call children's intervals (clipped to the
parent) plus the busy time of the iterator children.  Spans opened on
another thread have no parent, so concurrent work is never subtracted
from the thread that is waiting on it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    fit: int = 0
    thread: int = 0
    #: Seconds inside ``next()``; ``None`` marks a call span.
    busy_iter: Optional[float] = None
    #: Items yielded (iterator spans) or a layer-specific count.
    items: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def is_iterator(self) -> bool:
        return self.busy_iter is not None

    @property
    def busy(self) -> float:
        if self.busy_iter is not None:
            return self.busy_iter
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; ``fit`` tags the current fit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.fit = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, iterator: bool) -> int:
        stack = self._stack()
        span = Span(
            name,
            start,
            parent=stack[-1] if stack else None,
            fit=self.fit,
            thread=threading.get_ident(),
            busy_iter=0.0 if iterator else None,
        )
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> tuple[Any, Span]:
        """Run ``fn`` inside a call span; returns (result, span)."""
        index = self._new(name, self.clock(), iterator=False)
        span = self.spans[index]
        stack = self._stack()
        stack.append(index)
        try:
            return fn(*args, **kwargs), span
        finally:
            stack.pop()
            span.end = self.clock()

    def iterate(self, name: str, source: Iterator[Any],
                size: Callable[[Any], int] = lambda item: 1,
                call_seconds: float = 0.0,
                args: Optional[dict[str, Any]] = None) -> Iterator[Any]:
        """Wrap ``source`` so the time inside its ``next()`` is a span.

        ``call_seconds`` (the call that produced ``source``) counts as
        busy time too.  The span opens on the first ``next()``, as a
        child of the innermost span open on that thread.  Closing the
        wrapper closes ``source``, so its ``finally`` blocks run exactly
        as they would unwrapped.
        """
        clock = self.clock
        start = clock() - call_seconds

        def generator() -> Iterator[Any]:
            span: Optional[Span] = None
            index = -1
            try:
                while True:
                    stack = self._stack()
                    if span is None:
                        index = self._new(name, start, iterator=True)
                        span = self.spans[index]
                        span.busy_iter = call_seconds
                        span.args.update(args or {})
                    began = clock()
                    stack.append(index)
                    try:
                        item = next(source)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span.busy_iter += clock() - began
                    span.items += size(item)
                    yield item
            finally:
                close = getattr(source, "close", None)
                if close is not None:
                    close()
                if span is not None:
                    span.end = clock()

        return generator()


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def _covered(parent: Span, children: list[Span]) -> float:
    """Seconds of ``parent`` its children cover (see module docstring)."""
    intervals = sorted(
        (max(child.start, parent.start), min(child.end, parent.end))
        for child in children
        if not child.is_iterator
    )
    covered = 0.0
    run_start = run_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return covered + sum(c.busy for c in children if c.is_iterator)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's self time, aligned with ``spans``."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return [
        max(0.0, span.busy - _covered(span, children.get(i, [])))
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans: list[Span], values: list[float]) -> dict[str, float]:
    """Sum ``values`` (aligned with ``spans``) per span name."""
    out: dict[str, float] = {}
    for span, value in zip(spans, values):
        out[span.name] = out.get(span.name, 0.0) + value
    return out


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """Spans as Chrome trace-event JSON (opens in Perfetto / about:tracing).

    Call spans go on their thread's track, where they nest by time.
    Iterator spans interleave with their caller's work, so they go on a
    companion "<thread> iterators" track with their busy time in args.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span.start for span in spans)
    threads: dict[int, int] = {}
    tracks: dict[tuple[int, bool], int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        key = (span.thread, span.is_iterator)
        if key not in tracks:
            tid = tracks[key] = len(tracks) + 1
            number = threads.setdefault(span.thread, len(threads) + 1)
            label = f"thread {number}" + (" iterators" if key[1] else "")
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": label},
            })
        args = dict(span.args, fit=span.fit, items=span.items)
        if span.is_iterator:
            args["busy_ms"] = round(span.busy * 1e3, 3)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tracks[key],
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(max(0.0, span.end - span.start) * 1e6, 3),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[Span], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans), handle)
