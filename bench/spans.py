"""In-memory spans recorded around calls into tetraopt, and their self times.

A span is one call of a wrapped function: its layer name, start, end, the
span that was open in the calling thread when it started, and an optional
note taken from its arguments and result.  The benchmark is a closed loop
with one calling thread; calls made from worker threads (the harness's
objective evaluations) take the calling thread's innermost open span as
their parent and never become parents themselves.

A span's self time is its duration minus the part of its interval that its
children cover.  Worker-thread spans overlap each other, so a layer that
runs in workers is charged the union of its intervals under each parent,
not their sum; that way the self times of all layers add up to the wall
time of the root span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    parent: int | None
    start: float
    end: float
    caller: bool
    ok: bool
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from functions wrapped with :meth:`wrap`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._caller = threading.get_ident()

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` recording one span per call.

        ``note(args, kwargs, result)`` runs after a successful call and its
        return value is stored on the span.
        """
        spans, ids, stack, caller_id = self.spans, self._ids, self._stack, self._caller
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            sid = next(ids)
            caller = threading.get_ident() == caller_id
            parent = stack[-1] if stack else None
            if caller:
                stack.append(sid)
            start = clock()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                if caller:
                    stack.pop()
                extra = note(args, kwargs, result) if ok and note is not None else None
                spans.append(Span(sid, name, parent, start, end, caller, ok, extra))

        return wrapped

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` once inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def subtree(spans: list[Span], root: int) -> list[Span]:
    """The span with id ``root`` and all its descendants."""
    by_parent = defaultdict(list)
    for span in spans:
        by_parent[span.parent].append(span)
    out = [span for span in spans if span.sid == root]
    frontier = [root]
    while frontier:
        kids = by_parent.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(kid.sid for kid in kids if kid.caller)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall-clock self time per layer name over a closed set of spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if not span.caller:
            continue
        kids = children.get(span.sid, [])
        clipped = [(k, max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out[span.name] += span.duration - union_length((a, b) for _, a, b in clipped)
        workers = defaultdict(list)
        for kid, start, end in clipped:
            if not kid.caller:
                workers[kid.name].append((start, end))
        for name, intervals in workers.items():
            out[name] += union_length(intervals)
    return dict(out)


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed duration and call count per layer name."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span.name] += span.duration
        calls[span.name] += 1
    return dict(busy), dict(calls)
