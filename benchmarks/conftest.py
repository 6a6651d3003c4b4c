"""Shared fixtures for the figure/table reproduction benchmarks.

Every benchmark times one experiment's computation (pytest-benchmark).
The paper claims those experiments reproduce are rows of the claims
table in :mod:`repro.core.golden`, checked by the tier-1 suite; rerun
them with ``python -m repro.core.golden``.

The whole benchmark session runs with ``repro.obs`` metrics enabled and
writes the aggregate snapshot (simulated cycles/MACs, layers, estimator
units, solver steps, wall-time histograms) as JSON when it ends —
``SUPERNPU_BENCH_METRICS_OUT`` overrides the default
``benchmarks/bench_metrics.json`` path — so the benchmark trajectory is
machine-comparable across PRs.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def bench_metrics_snapshot():
    """Collect obs metrics for the whole session and emit them as JSON."""
    from repro import obs

    obs.reset()
    obs.enable(tracing=False)  # span trees would grow unbounded over a session
    yield
    out = os.environ.get(
        "SUPERNPU_BENCH_METRICS_OUT",
        os.path.join(os.path.dirname(__file__), "bench_metrics.json"),
    )
    manifest = obs.RunManifest.capture("benchmarks")
    try:
        obs.write_metrics(out, manifest=manifest)
    finally:
        obs.disable()
        obs.reset()


def pytest_runtest_logreport(report):
    """Fold per-test outcomes into the session's obs snapshot.

    ``bench.tests`` counts passed call phases and ``bench.test_seconds``
    histograms their durations, so a BENCH recording carries how many
    benchmarks ran and their end-to-end (not just timed-region) cost.
    """
    if report.when != "call" or not report.passed:
        return
    from repro import obs

    obs.counter("bench.tests").inc()
    obs.histogram("bench.test_seconds").observe(report.duration)


@pytest.fixture(scope="session")
def rsfq():
    from repro.device.cells import rsfq_library

    return rsfq_library()


@pytest.fixture(scope="session")
def workloads():
    from repro.workloads.models import all_workloads

    return all_workloads()
