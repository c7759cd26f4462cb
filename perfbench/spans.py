"""Spans and counters recorded around cfpp's layer entry points.

The tracer replaces a function at the attribute its callers look up (for
example ``cfpp.special.ml_weights``, which ``cfpp.distribution`` reads as
``special.ml_weights`` on every call) with a wrapper that records a span:
name, start, end, parent span and the operation it belongs to.  ``restore``
puts every original back.  Nothing in ``cfpp`` itself is edited.

Spans live in memory until the run ends.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    raised: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.op: int | None = None  # operation the main thread is running
        self.root: int | None = None  # its root span, parent of worker-thread spans

    # -- counters -----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.op)
        stack.append(sid)
        return span

    def _close(self, span: Span, raised: bool) -> None:
        span.end = time.perf_counter()
        span.raised = raised
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until ``restore``.

        ``name`` is the span name, or a function of (args, kwargs) giving it.
        ``on_call(args, kwargs, result)`` runs after a successful call, for
        counters that depend on the arguments or the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = original
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def by_name(self, include=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, calls that raised, total and self seconds.

        ``include(span)``, if given, selects the spans summarised.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if include is not None and not include(s):
                continue
            covered = _covered(s, children.get(s.sid, ()))
            row = out.setdefault(s.name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["raised"] += int(s.raised)
            row["total_s"] += s.end - s.start
            row["self_s"] += (s.end - s.start) - covered
        return out


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def is_wrapped(fn) -> bool:
    return hasattr(fn, "__perfbench_original__")
