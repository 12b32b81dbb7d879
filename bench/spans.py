"""In-memory span recorder for the traced pass of the benchmark.

A span is (name, start, end, parent, operation id).  Spans are recorded
from the benchmark's own files, around calls into each layer's public
functions; nothing inside ``src/repro`` knows about them.  They are held
in memory and written once, at exit, as Chrome/Perfetto trace JSON — the
same Trace Event Format ``repro.trace.export`` emits for simulated
cycles, but with host microseconds on the time axis.

A layer's time is *self* time: a span's duration minus the part of that
interval its child spans cover.  Self times of a root span and all its
descendants therefore sum to the root's duration exactly.

Untimed passes get :data:`NULL`, whose ``span`` is a shared no-op context
manager, so end-to-end numbers never include recording cost.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class Span:
    """One recorded interval (times are ``time.perf_counter`` seconds)."""

    __slots__ = ("name", "start", "end", "parent", "op", "track",
                 "child_s")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 op, track: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.track = track
        #: seconds of this interval covered by child spans
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _Open:
    """Context manager for one sequential span (stack-parented)."""

    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self):
        return self.index

    def __exit__(self, *exc):
        self.rec.close(self.index)
        return False


class Recorder:
    """Records spans in memory; see the module docstring."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, op=None) -> _Open:
        """Open a span whose parent is the innermost open span.

        ``op`` (the operation id) is inherited from the parent when not
        given, so every span of one operation shares its identifier.
        """
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        index = self.add(name, time.perf_counter(), None, parent, op)
        self._stack.append(index)
        return _Open(self, index)

    def close(self, index: int) -> None:
        self._finish(index, time.perf_counter())
        self._stack.pop()

    def add(self, name: str, start: float, end: Optional[float],
            parent: Optional[int] = None, op=None, track: int = 0) -> int:
        """Record a span with explicit times and parent.

        For concurrent callers (the two ``serve_mix`` connections), whose
        spans interleave and so cannot be parented by a stack.  Returns
        the span's index, usable as a later span's ``parent``.
        """
        self.spans.append(Span(name, start, parent, op, track))
        index = len(self.spans) - 1
        if end is not None:
            self._finish(index, end)
        return index

    def _finish(self, index: int, end: float) -> None:
        span = self.spans[index]
        span.end = end
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    # -- views ---------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def roots(self) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    def subtree_self_s(self, root: int) -> float:
        """Sum of self times over ``root`` and all its descendants."""
        members = {root}
        total = 0.0
        # children are always recorded after their parent
        for index in range(root, len(self.spans)):
            span = self.spans[index]
            if index == root or span.parent in members:
                members.add(index)
                total += span.self_s
        return total

    def chrome_trace(self, other: Optional[dict] = None) -> dict:
        """The spans as a Trace-Event-Format dict (host microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": "bench (host time)"}}]
        for index, span in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 1, "tid": span.track,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "name": span.name, "cat": span.name.split(".")[0],
                "args": {"id": index, "parent": span.parent,
                         "op": span.op,
                         "self_us": round(span.self_s * 1e6, 3)}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other or {}}

    def write(self, path: str, other: Optional[dict] = None) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(other), handle)


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """The recorder of untraced passes: records nothing."""

    enabled = False
    _NO_SPAN = _NoSpan()

    def span(self, name: str, op=None) -> _NoSpan:
        return self._NO_SPAN

    def add(self, name, start, end, parent=None, op=None, track=0):
        return None


NULL = NullRecorder()
