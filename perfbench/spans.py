"""Spans and counters recorded around the benchmark's calls into microfract.

A span covers one call from the benchmark's own code into a public library
function.  Its name is ``<layer>.<function>``, where the layer is the
microfract module (``cli``, ``seq``, ``dyadic``, ``dims``, ``realize``,
``percolation``, ``families``).  Every request of a pass gets a root span
(layer ``request``); the library spans it causes point at it as their
parent and carry its request id.  Spans stay in memory until the run ends.

``NullTracer`` is what untimed end-to-end passes use: the same calls with
no clock reads and no allocation, so untraced and traced passes run the
same benchmark code apart from the recording itself.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

OK, EXPECTED, FAILED = "ok", "expected", "failed"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None      # index of the enclosing span in the same list
    request: int | None     # request id shared by all spans of one request
    status: str = OK

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Records nothing."""

    def span(self, name, expect=()):
        return _NULL_SPAN

    def request(self, rid, kind):
        return _NULL_SPAN

    def count(self, name, n=1):
        pass


class _LiveSpan:
    __slots__ = ("tracer", "idx", "expect")

    def __init__(self, tracer, idx, expect):
        self.tracer, self.idx, self.expect = tracer, idx, expect

    def __enter__(self):
        self.tracer._stack.append(self.idx)
        self.tracer.spans[self.idx].start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        span = tr.spans[self.idx]
        span.end_ns = time.perf_counter_ns()
        tr._stack.pop()
        if exc_type is not None:
            span.status = EXPECTED if issubclass(exc_type, self.expect) else FAILED
        return False


class Tracer:
    """Keeps every span and counter of the passes it traced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request: int | None = None

    def _open(self, name, expect, request):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0, 0, parent, request))
        return _LiveSpan(self, len(self.spans) - 1, expect)

    def request(self, rid, kind):
        self._request = rid
        return self._open(f"request.{kind}", (), rid)

    def span(self, name, expect=()):
        return self._open(name, expect, self._request)

    def count(self, name, n=1):
        self.counts[name] += n


def union_ns(intervals) -> int:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start_ns), min(b, s.end_ns)) for a, b in children.get(i, ())]
        covered = union_ns((a, b) for a, b in clipped if b > a)
        out.append(s.duration_ns - covered)
    return out


@dataclass
class Aggregate:
    """Per-name and per-layer totals over one pass's spans."""

    calls: dict[str, int]
    busy_ns: dict[str, int]
    layer_calls: dict[str, int]
    layer_busy_ns: dict[str, int]
    layer_self_ns: dict[str, int]
    layer_failed: dict[str, int]
    counts: dict[str, int]


def aggregate(spans: list[Span], counts: dict[str, int]) -> Aggregate:
    agg = Aggregate(*(defaultdict(int) for _ in range(6)), dict(counts))
    for s, self_ns in zip(spans, self_times_ns(spans)):
        agg.calls[s.name] += 1
        agg.busy_ns[s.name] += s.duration_ns
        agg.layer_calls[s.layer] += 1
        agg.layer_busy_ns[s.layer] += s.duration_ns
        agg.layer_self_ns[s.layer] += self_ns
        if s.status == FAILED:
            agg.layer_failed[s.layer] += 1
    return agg
