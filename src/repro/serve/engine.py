"""Endpoints as thin adapters over the ``repro.api`` verbs.

One :class:`ServeEngine` lives for the daemon's whole life and owns the
shared :class:`~repro.core.jobs.ResultCache`; each request gets its own
:class:`~repro.core.jobs.JobRunner` over that cache, installed with
``use_runner`` for the request's handler thread only (the ambient
runner is per thread).  Cache writes are atomic and therefore safe to
share; the runner's stats give the request's ``X-Cache-Hits`` /
``X-Executed`` headers.

Each endpoint is one row of :data:`repro.core.report.VERBS`: the params
it accepts (with their defaults), the :mod:`repro.api` call they go to
and the record of its result.  The CLI runs the same rows, so the
daemon accepts exactly the design/workload/technology vocabulary the
CLI does, bad specs raise the same taxonomy errors, and the wire
``data`` is the CLI's ``--json`` ``data``.

Degradation is latched daemon-wide: once any request's runner degrades
to serial (two pool deaths), every later runner is built with
``jobs=1`` — a pool that died twice under one request will keep dying
under the next, and serial execution is always correct, only slower.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro import obs
from repro.core.chaos import ChaosInjector
from repro.core.jobs import JobRunner, ResultCache, use_runner
from repro.core.report import VERBS
from repro.core.resilience import RetryPolicy
from repro.errors import ConfigError
from repro.serve.protocol import success_envelope

#: Health/stats live in the daemon because they report admission state
#: the engine cannot see.
ENDPOINTS = tuple(VERBS)


def request_key(endpoint: str, params: Dict[str, Any]) -> str:
    """Content hash of one logical request (the single-flight key).

    Canonical-JSON over the *raw* request params: two requests coalesce
    exactly when they would resolve to the same computation, and a
    malformed request hashes fine (it fails identically for every
    waiter, which is the correct shared outcome).
    """
    canonical = json.dumps({"endpoint": endpoint, "params": params},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ServeEngine:
    """Stateless-per-request computation over one shared cache."""

    def __init__(self,
                 cache_dir: Optional[Union[str, Path]] = None,
                 jobs: int = 1,
                 retries: int = 2,
                 task_timeout_s: Optional[float] = None,
                 worker_chaos: Optional[ChaosInjector] = None,
                 handler_chaos: Optional[ChaosInjector] = None) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.retry = RetryPolicy(max_retries=retries)
        self.task_timeout_s = task_timeout_s
        self.worker_chaos = worker_chaos
        self.handler_chaos = handler_chaos
        self.requests_total = 0
        self._degraded = False
        self._lock = threading.Lock()

    @property
    def degraded(self) -> bool:
        return self._degraded

    def _runner(self) -> JobRunner:
        jobs = 1 if self._degraded else self.jobs
        return JobRunner(jobs=jobs, cache=self.cache, retry=self.retry,
                         timeout_s=self.task_timeout_s, chaos=self.worker_chaos)

    def _absorb_runner(self, runner: JobRunner) -> None:
        """Latch daemon-wide serial mode if this request's pool gave up."""
        if runner.stats.degraded and not self._degraded:
            with self._lock:
                if not self._degraded:
                    self._degraded = True
                    obs.counter("serve.degraded").inc()

    # -- entry point (runs in a handler thread) ------------------------
    def handle(self, endpoint: str, params: Optional[Dict[str, Any]]
               ) -> Tuple[str, Dict[str, str]]:
        """Compute one request: (deterministic body, volatile headers)."""
        if endpoint not in VERBS:
            raise ConfigError(f"unknown endpoint {endpoint!r}; "
                              f"known: {ENDPOINTS}",
                              code="serve.unknown_endpoint", endpoint=endpoint)
        if self.handler_chaos is not None:
            self.handler_chaos.fire(endpoint)
        with self._lock:
            self.requests_total += 1
        verb = VERBS[endpoint]
        params = dict(params or {})
        unknown = sorted(set(params) - set(verb.params))
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {unknown} for {endpoint}; "
                f"allowed: {sorted(verb.params)}",
                code="serve.bad_params", endpoint=endpoint)
        runner = self._runner()
        try:
            with use_runner(runner):
                result = verb(**params)
                data, meta = verb.record(result), verb.headers(result)
        finally:
            self._absorb_runner(runner)
        meta["X-Cache-Hits"] = str(int(runner.stats.hits))
        meta["X-Executed"] = str(int(runner.stats.executed))
        if runner.stats.degraded or self._degraded:
            meta["X-Degraded"] = "1"
        return success_envelope(endpoint, data), meta

    # -- introspection -------------------------------------------------
    def stats_data(self) -> Dict[str, Any]:
        """Volatile engine-side stats for the daemon's /stats endpoint."""
        data: Dict[str, Any] = {
            "requests_total": self.requests_total,
            "degraded": self._degraded,
            "jobs": 1 if self._degraded else self.jobs,
        }
        if self.cache is not None:
            cache_stats = self.cache.stats()
            data["cache"] = {
                "entries": cache_stats.entries,
                "bytes": cache_stats.bytes,
                "quarantined": cache_stats.quarantined,
                "tmp_swept": cache_stats.tmp_swept,
            }
        return data


__all__ = ["ENDPOINTS", "ServeEngine", "request_key"]
