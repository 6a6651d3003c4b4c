"""``repro.obs`` — observability for the simulator / estimator / jsim stack.

Three pieces (see ``docs/OBSERVABILITY.md``):

* **metrics** — process-local counters / gauges / histograms-as-timers
  (:mod:`repro.obs.metrics`), snapshot-able to a plain dict / JSON;
* **tracing** — nested wall-time spans with Chrome trace-event export and
  a human-readable summary tree (:mod:`repro.obs.tracing`);
* **manifests** — provenance records (config hash, workload, batch,
  technology, version, wall time) embedded in every exported file
  (:mod:`repro.obs.manifest`);
* **timeline** — simulated-cycle event timeline of the *modeled
  hardware* (layer spans, on-chip phases, DRAM transfers, buffer
  occupancy) with Chrome trace export in the simulated clock domain
  (:mod:`repro.obs.timeline`).

Everything is **off by default**: the instrumented hot paths in
``simulator.engine``, ``jsim.solver``, ``estimator.arch_level`` and
``core.search`` reduce to a single flag check until :func:`enable` is
called (the CLI does this for ``supernpu profile`` and whenever
``--trace-out`` / ``--metrics-out`` is passed).

Across runs:

* **progress** — live task-lifecycle streaming for parallel sweeps
  (:mod:`repro.obs.progress`);
* **registry** — a persistent per-invocation run registry under
  ``~/.supernpu/runs/`` (:mod:`repro.obs.registry`).

Wall-time speed is measured outside the package, by the end-to-end
benchmark in ``benchmarks/e2e`` and its committed ``BENCH_pr<N>.json``
points.

Host-time hotspot profiling (:mod:`repro.obs.hotspot`) runs stdlib
``cProfile``, with collapsed caller→callee export and a report that
joins per-function self-time with the simulated-cycle phase attribution.
Worker processes spawned by :mod:`repro.core.jobs` return each task's
spans / counters / ``pstats`` table with its result and the parent
merges them: one Chrome trace with one lane per worker PID, one profile.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import CounterSample, CycleTimeline, TimelineEvent
from repro.obs.tracing import Span, Tracer
from repro.obs.manifest import RunManifest, config_content_hash
from repro.obs.export import metrics_document, write_metrics, write_timeline, write_trace
from repro.obs.runtime import (
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    metrics,
    reset,
    trace_instant,
    trace_span,
    tracer,
)
from repro.obs.progress import ProgressEvent, ProgressReporter, auto_reporter
from repro.obs.registry import RunEntry, RunRegistry, record_invocation
from repro.obs.hotspot import HotspotProfile, HotspotProfiler, active_profiler

__all__ = [
    "Counter",
    "CounterSample",
    "CycleTimeline",
    "Gauge",
    "Histogram",
    "HotspotProfile",
    "HotspotProfiler",
    "MetricsRegistry",
    "ProgressEvent",
    "ProgressReporter",
    "RunEntry",
    "RunRegistry",
    "Span",
    "TimelineEvent",
    "Tracer",
    "RunManifest",
    "active_profiler",
    "auto_reporter",
    "config_content_hash",
    "record_invocation",
    "metrics_document",
    "write_metrics",
    "write_timeline",
    "write_trace",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "metrics",
    "reset",
    "trace_instant",
    "trace_span",
    "tracer",
]
