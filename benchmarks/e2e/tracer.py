"""Outside-in host-time tracer for the end-to-end benchmark.

The tracer never edits the program: it replaces a layer's entry point at
the binding its caller looks up (``repro.core.jobs.simulate``, not the
engine module's own name) with a timing wrapper, and restores the
original when the :meth:`Tracer.installed` block ends.  Nested wrapped calls form a call
stack, so each layer gets both inclusive time and self time (its duration
minus the part its wrapped children cover).

Spans ``(name, start, end, id, parent)`` of the first traced op are kept
in memory and written as a Chrome trace-event file by
:meth:`Tracer.write_chrome`; every traced op feeds the per-layer totals.
A target that no longer exists (renamed or deleted by a later change) is
skipped, and a layer left with no target is reported as absent with zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Adds derived counts for one call: ``tally(counts, args, result)``.
Tally = Callable[[Counter, tuple, Any], None]

#: Name of the root span that encloses one measured op.
OP = "op"


@dataclass(frozen=True)
class Target:
    """One wrapped binding: ``attr`` is ``"name"`` or ``"Class.method"``."""

    layer: str
    module: str
    attr: str
    tally: Optional[Tally] = None


class Tracer:
    """Wraps :class:`Target` bindings and accumulates per-layer host time."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = tuple(targets)
        self.layers = tuple(dict.fromkeys(t.layer for t in self.targets))
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0
        self.op_ns = 0
        self.uncovered_ns = 0
        self.missing: List[Target] = []
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self._recording = False
        self._next_id = 0
        self._stack: List[List[int]] = []  # [child_ns, span_id] per open span
        self._installed: List[Tuple[Any, str, Any]] = []

    @property
    def absent(self) -> List[str]:
        """Layers none of whose targets resolved at the last install."""
        present = {t.layer for t in self.targets if t not in self.missing}
        return [layer for layer in self.layers if layer not in present]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every resolvable target for the enclosed block."""
        self.missing = []
        try:
            for target in self.targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.missing.append(target)
                    continue
                owner, name, original = resolved
                setattr(owner, name, self._wrap(target, getattr(owner, name)))
                self._installed.append((owner, name, original))
            yield self
        finally:
            while self._installed:
                owner, name, original = self._installed.pop()
                setattr(owner, name, original)

    def _wrap(self, target: Target, function: Callable) -> Callable:
        layer, tally = target.layer, target.tally

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._push()
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                self._pop(layer, start, perf_counter_ns(), frame)
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return traced

    def _push(self) -> List[int]:
        self._next_id += 1
        frame = [0, self._next_id]
        self._stack.append(frame)
        return frame

    def _pop(self, name: str, start: int, end: int, frame: List[int]) -> int:
        """Close a span; returns the part of it no child span covered."""
        self._stack.pop()
        duration = end - start
        uncovered = duration - frame[0]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += duration
        if self._recording:
            self.spans.append((name, start, end, frame[1],
                               parent[1] if parent is not None else 0))
        if name != OP:
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += uncovered
        return uncovered

    @contextmanager
    def op(self) -> Iterator[None]:
        """Time one measured op as the root span of its layer spans.

        Spans are kept for the first op only, which bounds memory on long
        runs; the per-layer totals cover every op.
        """
        self._recording = self.ops == 0
        frame = self._push()
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.uncovered_ns += self._pop(OP, start, end, frame)
            self.ops += 1
            self.op_ns += end - start
            self._recording = False

    def write_chrome(self, path: str) -> None:
        """Write the recorded spans as a Chrome trace-event JSON file."""
        origin = min((span[1] for span in self.spans), default=0)
        # Start order, enclosing span first when two start together.
        ordered = sorted(self.spans, key=lambda span: (span[1], -span[2]))
        events = [
            {
                "name": name, "cat": "layer", "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent},
            }
            for name, start, end, span_id, parent in ordered
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _resolve(target: Target) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, name, original binding)`` of a target, or None if gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    # A method must be restored from the class dict, so that uninstalling
    # puts back the exact object (and never shadows an inherited one).
    if isinstance(owner, type):
        if name not in vars(owner):
            return None
        return owner, name, vars(owner)[name]
    return owner, name, getattr(owner, name)


def layer_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per-op calls, self ms and share of op time for each layer and ``other``."""
    ops = max(tracer.ops, 1)
    op_ns = max(tracer.op_ns, 1)
    table = {
        layer: {
            "calls": tracer.calls[layer] / ops,
            "self_ms": tracer.self_ns[layer] / ops / 1e6,
            "share": tracer.self_ns[layer] / op_ns,
        }
        for layer in tracer.layers
    }
    table["other"] = {
        "self_ms": tracer.uncovered_ns / ops / 1e6,
        "share": tracer.uncovered_ns / op_ns,
    }
    return table
