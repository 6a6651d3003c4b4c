"""Endpoints as thin adapters over the ``repro.api`` verbs.

One :class:`ServeEngine` lives for the daemon's whole life and owns the
shared :class:`~repro.core.jobs.ResultCache`; each request gets its own
:class:`~repro.core.jobs.JobRunner` over that cache, installed with
``use_runner`` for the request's handler thread only (the ambient
runner is per thread).  Cache writes are atomic and therefore safe to
share; the runner's stats give the request's ``X-Cache-Hits`` /
``X-Executed`` headers.

Each handler checks the outside input the verbs cannot see (unknown
params, the batch type, list types) and then calls
:func:`repro.api.estimate` / ``simulate`` / ``evaluate`` / ``run_plan``,
so the daemon accepts exactly the design/workload/technology vocabulary
the CLI does, bad specs raise the same taxonomy errors, and the wire
records are the CLI's ``--json`` records.

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

from repro import api, obs
from repro.core.chaos import ChaosInjector
from repro.core.jobs import JobRunner, ResultCache, use_runner
from repro.core.report import estimate_record, simulation_record
from repro.core.resilience import RetryPolicy
from repro.errors import ConfigError
from repro.serve.protocol import success_envelope
from repro.simulator.power import power_report
from repro.workloads.layers import is_batch_count

#: Compute endpoints (path → handler suffix); health/stats live in the
#: daemon because they report admission state the engine cannot see.
ENDPOINTS = ("estimate", "simulate", "evaluate", "plan/run")


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
        if endpoint not in ENDPOINTS:
            raise ConfigError(f"unknown endpoint {endpoint!r}; "
                              f"known: {ENDPOINTS}",
                              code="serve.unknown_endpoint", endpoint=endpoint)
        if self.handler_chaos is not None:
            self.handler_chaos.fire(endpoint)
        params = dict(params or {})
        with self._lock:
            self.requests_total += 1
        runner = self._runner()
        try:
            with use_runner(runner):
                if endpoint == "estimate":
                    body, meta = self._estimate(params)
                elif endpoint == "simulate":
                    body, meta = self._simulate(params)
                elif endpoint == "evaluate":
                    body, meta = self._evaluate(params)
                else:
                    body, meta = self._plan_run(params)
        finally:
            self._absorb_runner(runner)
        meta.setdefault("X-Cache-Hits", str(int(runner.stats.hits)))
        meta.setdefault("X-Executed", str(int(runner.stats.executed)))
        if runner.stats.degraded or self._degraded:
            meta["X-Degraded"] = "1"
        return body, meta

    # -- per-endpoint handlers (under the request's ambient runner) -----
    @staticmethod
    def _reject_unknown(params: Dict[str, Any], allowed: Tuple[str, ...],
                        endpoint: str) -> None:
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {unknown} for {endpoint}; "
                f"allowed: {sorted(allowed)}",
                code="serve.bad_params", endpoint=endpoint)

    def _estimate(self, params: Dict[str, Any]) -> Tuple[str, Dict[str, str]]:
        self._reject_unknown(params, ("design", "technology"), "estimate")
        estimate = api.estimate(params.get("design", "SuperNPU"),
                                technology=params.get("technology", "rsfq"))
        return success_envelope("estimate", estimate_record(estimate)), {}

    def _simulate(self, params: Dict[str, Any]) -> Tuple[str, Dict[str, str]]:
        self._reject_unknown(params, ("design", "workload", "batch",
                                      "technology"), "simulate")
        config = api.design(params.get("design", "SuperNPU"))
        network = api.workload(params.get("workload", "mobilenet"))
        library = api.library(params.get("technology", "rsfq"))
        batch = params.get("batch")
        if batch is not None and not is_batch_count(batch):
            raise ConfigError("batch must be a positive integer",
                              code="serve.bad_params", batch=batch)
        run = api.simulate(config, network, batch=batch, technology=library)
        estimate = api.estimate(config, technology=library)
        record = simulation_record(run, power_report(run, estimate))
        return success_envelope("simulate", record), {}

    def _evaluate(self, params: Dict[str, Any]) -> Tuple[str, Dict[str, str]]:
        self._reject_unknown(params, ("designs", "workloads", "technology"),
                             "evaluate")
        designs = params.get("designs")
        workloads = params.get("workloads")
        if designs is not None and not isinstance(designs, list):
            raise ConfigError("designs must be a list of design specs",
                              code="serve.bad_params")
        if workloads is not None and not isinstance(workloads, list):
            raise ConfigError("workloads must be a list of workload names",
                              code="serve.bad_params")
        library = api.library(params.get("technology", "rsfq"))
        suite = api.evaluate(designs, workloads, technology=library)
        data = {
            "speedups": suite.speedups(),
            "designs": [d.config.name for d in suite.designs],
            "workloads": sorted(suite.tpu_runs),
            "mean_mac_per_s": {d.config.name: d.mean_mac_per_s
                               for d in suite.designs},
        }
        return success_envelope("evaluate", data), {}

    def _plan_run(self, params: Dict[str, Any]) -> Tuple[str, Dict[str, str]]:
        self._reject_unknown(params, ("plan",), "plan/run")
        name = params.get("plan")
        if not isinstance(name, str) or not name:
            raise ConfigError("plan/run requires a plan name",
                              code="serve.bad_params",
                              hint="see 'supernpu plan list'")
        resultset = api.run_plan(name)
        # Cache temperature (points_cached / points_executed, and the
        # per-record ``cached`` flag) is volatile across otherwise-
        # identical requests, so it rides in headers / gets stripped.
        records = [{k: v for k, v in record.items() if k != "cached"}
                   for record in resultset.records()]
        data = {
            "plan": resultset.plan.name,
            "plan_hash": resultset.plan_hash,
            "points_total": resultset.points_total,
            "records": records,
        }
        meta = {
            "X-Points-Cached": str(resultset.points_cached),
            "X-Points-Executed": str(resultset.points_executed),
        }
        return success_envelope("plan/run", data), meta

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
