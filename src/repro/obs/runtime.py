"""Process-global observability runtime.

One :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.tracing.Tracer` per process, both **disabled by
default** so instrumented library code is a no-op unless a CLI flag
or a test turns observability on.

Hot-path usage::

    from repro import obs

    with obs.trace_span("simulate/layer", layer=name):
        ...
    obs.counter("sim.cycles").add(total)

Disabled, ``trace_span`` returns a shared no-op context manager and
``counter``/``gauge``/``histogram`` return a shared no-op instrument —
one flag check per call, no allocation, nothing recorded.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, _NOOP_SPAN

_registry = MetricsRegistry()
_tracer = Tracer()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The process-global span tracer."""
    return _tracer


def enabled() -> bool:
    """True when either metrics or tracing is active."""
    return _registry.enabled or _tracer.enabled


def enable(metrics: bool = True, tracing: bool = True) -> None:
    """Turn observability on (both subsystems by default)."""
    if metrics:
        _registry.enable()
    if tracing:
        _tracer.enable()


def disable() -> None:
    _registry.disable()
    _tracer.disable()


def reset() -> None:
    """Drop all recorded metrics and spans (enabled flags unchanged)."""
    _registry.reset()
    _tracer.reset()


# -- hot-path shims -----------------------------------------------------
def trace_span(name: str, **attrs: Any):
    """Open a traced region; no-op context manager when tracing is off."""
    if not _tracer.enabled:
        return _NOOP_SPAN
    return _tracer.span(name, **attrs)


def trace_instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration span event; no-op when tracing is off."""
    if _tracer.enabled:
        _tracer.instant(name, **attrs)


def counter(name: str):
    return _registry.counter(name)


def gauge(name: str):
    return _registry.gauge(name)


def histogram(name: str):
    return _registry.histogram(name)
