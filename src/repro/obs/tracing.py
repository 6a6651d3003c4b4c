"""Wall-time span tracing with Chrome trace-event export.

A :class:`Tracer` records a tree of named spans (``simulate`` →
``simulate/layer`` → ...) with wall-clock durations and free-form
attributes.  Finished traces export two ways:

* :meth:`Tracer.to_chrome_trace` — the Chrome trace-event JSON object
  format (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events),
  loadable in Perfetto / ``chrome://tracing``;
* :meth:`Tracer.summary_table` — a human-readable tree of aggregated
  wall times per span path, for terminal output.

Disabled (the default), ``Tracer.span()`` returns a shared no-op context
manager, so instrumented code costs one flag check per span.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional


class Span:
    """One finished (or in-flight) traced region."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s


class _ActiveSpan:
    """Context manager binding a :class:`Span` onto the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.span.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._pop(self.span)


class _NoopSpan:
    """Shared stand-in while tracing is disabled."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records nested spans into a forest of wall-time trees."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        # perf_counter has an arbitrary epoch; exported timestamps are
        # relative to the first span of the trace.  The matching unix
        # time is kept so spans serialized by other processes (pool
        # workers, whose perf_counter epoch differs) can be re-anchored
        # onto this trace's timeline.
        self._epoch: Optional[float] = None
        self._epoch_unix: Optional[float] = None
        # Pre-rendered Chrome events absorbed from other processes.
        self._foreign_events: List[Dict[str, Any]] = []
        self._foreign_pids: List[int] = []
        self._foreign_min_unix: Optional[float] = None

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NOOP_SPAN
        return _ActiveSpan(self, Span(name, attrs))

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration event at the current stack position.

        Instants mark moments (a task finishing, a pool restarting)
        rather than regions; they export as zero-width ``ph: "X"``
        events nested under whatever span is currently open.
        """
        if not self.enabled:
            return
        span = Span(name, attrs)
        now = time.perf_counter()
        span.start_s = now
        span.end_s = now
        if self._epoch is None:
            self._epoch = now
            self._epoch_unix = time.time()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _push(self, span: Span) -> None:
        span.start_s = time.perf_counter()
        if self._epoch is None:
            self._epoch = span.start_s
            self._epoch_unix = time.time()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        # Tolerate exception-unwound frames: pop through to this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._epoch = None
        self._epoch_unix = None
        self._foreign_events = []
        self._foreign_pids = []
        self._foreign_min_unix = None

    # -- cross-process merge --------------------------------------------
    def absorb_serialized(self, spans: List[Dict[str, Any]], pid: int,
                          process_name: Optional[str] = None) -> None:
        """Merge spans serialized by another process onto this trace.

        ``spans`` is the output of :func:`serialize_spans` run in the
        other process: a span forest with **unix** timestamps (the only
        clock two processes share).  Each span becomes a complete event
        in a per-``pid`` lane; a ``process_name`` metadata event labels
        the lane.  Works even while this tracer is disabled — the data
        was already collected elsewhere.
        """
        if not spans:
            return
        # Keep raw unix stamps; ts conversion happens at export time,
        # anchored at the earliest event across *all* processes — batches
        # arrive in task-completion order, not chronological order, so no
        # single batch can safely fix the anchor.
        first = min(span["start_unix"] for span in spans)
        if self._foreign_min_unix is None or first < self._foreign_min_unix:
            self._foreign_min_unix = first
        if pid not in self._foreign_pids:
            self._foreign_pids.append(pid)
            self._foreign_events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name or f"worker-{pid}"},
            })

        def emit(span: Dict[str, Any]) -> None:
            self._foreign_events.append({
                "name": span["name"],
                "ph": "X",
                "start_unix": span["start_unix"],
                "dur": max(0.0, span["end_unix"] - span["start_unix"]) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": dict(span.get("attrs") or {}),
            })
            for child in span.get("children") or ():
                emit(child)

        for span in spans:
            emit(span)

    def foreign_pids(self) -> List[int]:
        """PIDs whose spans have been absorbed into this trace."""
        return list(self._foreign_pids)

    # -- export ---------------------------------------------------------
    def to_chrome_trace(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Every span becomes one complete (``ph: "X"``) event with
        microsecond ``ts``/``dur`` relative to the trace start; span
        attributes ride in ``args``.
        """
        events: List[Dict[str, Any]] = []
        epoch = self._epoch or 0.0
        # One shared zero across processes: the earliest event anywhere.
        # Local spans shift right when a worker span started first.
        anchor_unix = None
        local_offset_us = 0.0
        if self._foreign_min_unix is not None:
            anchor_unix = self._foreign_min_unix
            if self.roots and self._epoch_unix is not None:
                anchor_unix = min(anchor_unix, self._epoch_unix)
                local_offset_us = (self._epoch_unix - anchor_unix) * 1e6

        def emit(span: Span) -> None:
            end = span.end_s if span.end_s is not None else time.perf_counter()
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start_s - epoch) * 1e6 + local_offset_us,
                    "dur": (end - span.start_s) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": dict(span.attrs),
                }
            )
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        if self._foreign_events:
            if events:
                events.append({
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": "main"},
                })
            for event in self._foreign_events:
                if event.get("ph") == "M":
                    events.append(event)
                    continue
                converted = dict(event)
                start_unix = converted.pop("start_unix")
                converted["ts"] = (start_unix - (anchor_unix or start_unix)) * 1e6
                events.append(converted)
        trace: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
        if metadata:
            trace["metadata"] = metadata
        return trace

    def to_chrome_trace_json(self, metadata: Optional[Dict[str, Any]] = None,
                             indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome_trace(metadata), indent=indent)

    def summary_table(self) -> str:
        """Aggregated wall-time tree: one row per span path.

        Sibling spans with the same name merge into a single row with a
        call count, so a 53-layer ``simulate/layer`` fan-out reads as one
        line.  Percentages are relative to the top-level total.
        """
        total = sum(root.duration_s for root in self.roots)
        lines = [f"{'span':<44s} {'calls':>6s} {'wall ms':>12s} {'%':>7s}"]

        def aggregate(spans: List[Span]) -> "Dict[str, List[Span]]":
            groups: Dict[str, List[Span]] = {}
            for span in spans:
                groups.setdefault(span.name, []).append(span)
            return groups

        def emit(spans: List[Span], depth: int) -> None:
            for name, group in aggregate(spans).items():
                wall = sum(s.duration_s for s in group)
                share = 100.0 * wall / total if total else 0.0
                label = "  " * depth + name
                lines.append(
                    f"{label:<44s} {len(group):>6d} {1e3 * wall:>12.3f} {share:>6.1f}%"
                )
                children = [c for s in group for c in s.children]
                if children:
                    emit(children, depth + 1)

        emit(self.roots, 0)
        if len(lines) == 1:
            lines.append("(no spans recorded)")
        return "\n".join(lines)


def serialize_spans(tracer: Tracer) -> List[Dict[str, Any]]:
    """Serialize a tracer's span forest with **unix** timestamps.

    ``perf_counter`` epochs are per-process, so spans shipped across a
    process boundary (worker → parent, with the task's result) carry unix
    times instead; :meth:`Tracer.absorb_serialized` re-anchors them on
    the other side.
    """
    offset = time.time() - time.perf_counter()

    def encode(span: Span) -> Dict[str, Any]:
        end = span.end_s if span.end_s is not None else time.perf_counter()
        return {
            "name": span.name,
            "attrs": dict(span.attrs),
            "start_unix": span.start_s + offset,
            "end_unix": end + offset,
            "children": [encode(child) for child in span.children],
        }

    return [encode(root) for root in tracer.roots]
