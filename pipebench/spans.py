"""Span recorder for the pipeline benchmark's traced runs.

The benchmark wraps each call into a pipeline layer's public API in a
span (name, start, end, parent span, run id).  Spans are kept in memory
and written out when the run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover; the
self time of a pass's root span is the time no layer span explains
(``unattributed_s``).

Untraced runs use :class:`NullRecorder`, which keeps the same interface
and records nothing, so both runs execute one code path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span", "SpanRecorder", "NullRecorder", "export", "self_times", "covered",
]


class Span:
    """One finished span; times are ``time.perf_counter()`` seconds."""

    __slots__ = ("id", "parent", "name", "start", "end", "run", "attrs")

    def __init__(
        self, id: int, parent: Optional[int], name: str, start: float,
        end: float, run: str, attrs: Dict,
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.run = run
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float = 0.0) -> Dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "run": self.run,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects nested spans in memory; one ``run_id`` per traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        """Record ``name`` around the block; yields its mutable attrs."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(sid, parent, name, start, end, self.run_id, attrs)
            )


class NullRecorder:
    """Recorder for untraced runs: same interface, records nothing."""

    spans: Tuple[Span, ...] = ()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        yield attrs


def export(spans: Sequence[Span], path: str) -> None:
    """Write spans as JSON lines, ordered by start, times relative to the
    first span's start."""
    ordered = sorted(spans, key=lambda s: s.start)
    origin = ordered[0].start if ordered else 0.0
    with open(path, "w") as fh:
        for s in ordered:
            fh.write(json.dumps(s.to_dict(origin), sort_keys=True))
            fh.write("\n")


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the union of its direct
    children's intervals, so a parent never counts time a child layer
    already reports.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for s in spans:
        own = s.duration - covered(children.get(s.id, ()))
        out[s.name] = out.get(s.name, 0.0) + own
    return out
