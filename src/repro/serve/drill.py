"""The daemon chaos drill (and the CI smoke) — proof, not vibes.

The acceptance bar from docs/ROBUSTNESS.md: under worker kills, cache
corruption, hung handlers, and slow clients, with ≥ 2 concurrent
clients, **every non-shed response is bitwise-identical to a clean
single-client run**, every shed is a structured 429/503/504/408 with
``Retry-After`` where applicable, and SIGTERM drains without losing an
in-flight request.

Two entry points:

* :func:`run_chaos_drill` — the full in-thread drill (fault injection
  needs to share a filesystem with the daemon anyway);
* :func:`run_serve_smoke` — the CI job: boots a real ``supernpu serve``
  subprocess, bursts two clients (one over quota), asserts a 429 and N
  bitwise-stable 200s, SIGTERMs mid-flight, asserts a clean drain
  (exit 0, no orphaned cache tmp files).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.chaos import ANY_TASK, ChaosInjector, FaultSpec, corrupt_cache_entry
from repro.serve.client import ServeClient, read_port_file
from repro.serve.daemon import ServeConfig, daemon_in_thread
from repro.serve.engine import ServeEngine, request_key

#: The drill's request mix: small enough to run in seconds, varied
#: enough to cover every compute endpoint and a multi-task evaluate
#: (two workloads → a real pool fan-out under ``jobs=2``).
DRILL_REQUESTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("estimate", {"design": "SuperNPU"}),
    ("estimate", {"design": "Baseline", "technology": "ersfq"}),
    ("simulate", {"design": "SuperNPU", "workload": "mobilenet", "batch": 1}),
    ("simulate", {"design": "Baseline", "workload": "mobilenet", "batch": 2}),
    ("evaluate", {"designs": ["SuperNPU"],
                  "workloads": ["mobilenet", "resnet50"]}),
)


class DrillFailure(AssertionError):
    """One drill invariant did not hold."""


@dataclass
class DrillReport:
    """What the drill observed (all counts are assertions' evidence)."""

    responses_200: int = 0
    matched: int = 0
    shed_429: int = 0
    shed_503: int = 0
    deadline_504: int = 0
    slow_408: int = 0
    coalesced: int = 0
    notes: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"200s: {self.responses_200} ({self.matched} bitwise-matched "
            "against the clean run)",
            f"sheds: {self.shed_429}x429 quota, {self.shed_503}x503, "
            f"{self.deadline_504}x504 deadline, {self.slow_408}x408 slow client",
            f"coalesced waiters: {self.coalesced}",
        ]
        lines.extend(self.notes)
        return "\n".join(lines)


def clean_baseline(requests: Tuple[Tuple[str, Dict[str, Any]], ...] = DRILL_REQUESTS,
                   ) -> Dict[str, str]:
    """Golden bodies from a clean, serial, uncached in-process run."""
    engine = ServeEngine(cache_dir=None, jobs=1)
    golden: Dict[str, str] = {}
    for endpoint, params in requests:
        body, _ = engine.handle(endpoint, params)
        golden[request_key(endpoint, params)] = body
    return golden


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise DrillFailure(message)


def _post_respecting_quota(client: ServeClient, endpoint: str,
                           params: Dict[str, Any], attempts: int = 20) -> Any:
    """POST, backing off per ``Retry-After`` on 429/503 — a polite client."""
    response = client.post(endpoint, params)
    for _ in range(attempts):
        if response.status not in (429, 503):
            return response
        time.sleep(float(response.headers.get("retry-after", "0.2")))
        response = client.post(endpoint, params)
    return response


def _match_or_die(report: DrillReport, golden: Dict[str, str],
                  endpoint: str, params: Dict[str, Any], body: str,
                  context: str) -> None:
    expected = golden[request_key(endpoint, params)]
    _check(body == expected,
           f"{context}: response for {endpoint} {params} diverged from the "
           f"clean run\n  clean: {expected[:200]}\n  got:   {body[:200]}")
    report.matched += 1


def run_chaos_drill(work_dir: Union[str, Path],
                    requests: Tuple[Tuple[str, Dict[str, Any]], ...] = DRILL_REQUESTS,
                    ) -> DrillReport:
    """The full drill against an in-thread daemon; raises on any violation."""
    work_dir = Path(work_dir)
    cache_dir = work_dir / "cache"
    report = DrillReport()
    golden = clean_baseline(requests)

    worker_chaos = ChaosInjector(
        work_dir / "chaos-worker",
        {ANY_TASK: FaultSpec("sigkill", times=2)})
    handler_chaos = ChaosInjector(
        work_dir / "chaos-handler",
        {"evaluate": FaultSpec("hung_handler", times=1, hang_seconds=1.0)})

    config = ServeConfig(
        cache_dir=cache_dir, jobs=2, max_inflight=16,
        quota_rate_per_s=2.0, quota_burst=3,
        deadline_s=120.0, read_timeout_s=0.6,
        worker_chaos=worker_chaos, handler_chaos=handler_chaos)

    with daemon_in_thread(config) as daemon:
        polite = ServeClient(port=daemon.port, client_id="polite")
        greedy = ServeClient(port=daemon.port, client_id="greedy")

        # 1. Hung handler + tight deadline: the first evaluate stalls 1s,
        #    the waiter sheds at 0.2s with a 504 — and the computation
        #    still lands in the cache (checked right after).
        evaluate_endpoint, evaluate_params = requests[-1]
        shed = polite.post(evaluate_endpoint, evaluate_params, deadline_s=0.2)
        _check(shed.status == 504 and shed.error_code == "serve.deadline",
               f"expected a 504 deadline shed, got {shed.status} {shed.body[:120]}")
        report.deadline_504 += 1
        retry = _post_respecting_quota(polite, evaluate_endpoint,
                                       evaluate_params)
        _check(retry.status == 200,
               f"post-504 retry failed: {retry.status} {retry.body[:200]}")
        report.responses_200 += 1
        _match_or_die(report, golden, evaluate_endpoint, evaluate_params,
                      retry.body, "after hung-handler 504")

        # 2. Concurrent mixed burst from two clients under worker-sigkill
        #    chaos (budgeted 2 kills), with a cache corruption injected
        #    mid-load.  The greedy client's quota (burst 3, 2/s) must
        #    produce at least one 429 without starving the polite one.
        def _fire(client: ServeClient, endpoint: str,
                  params: Dict[str, Any]) -> Tuple[str, Dict[str, Any], Any]:
            return endpoint, params, client.post(endpoint, params)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = []
            for round_index in range(3):
                for endpoint, params in requests:
                    futures.append(pool.submit(_fire, polite, endpoint, params))
                    futures.append(pool.submit(_fire, greedy, endpoint, params))
                if round_index == 0:
                    # Corrupt whatever the cache holds so far, under load.
                    time.sleep(0.2)
                    corrupted = _corrupt_some_cache(cache_dir)
                    report.notes.append(
                        f"corrupted {corrupted} cache entries under load")
            outcomes = [future.result() for future in futures]

        for endpoint, params, response in outcomes:
            if response.status == 200:
                report.responses_200 += 1
                if response.headers.get("x-coalesced") == "1":
                    report.coalesced += 1
                _match_or_die(report, golden, endpoint, params,
                              response.body, "concurrent burst")
            elif response.status == 429:
                _check(response.error_code == "serve.quota",
                       f"429 without serve.quota: {response.body[:120]}")
                _check("retry-after" in response.headers,
                       "429 missing Retry-After")
                report.shed_429 += 1
            elif response.status == 503:
                _check("retry-after" in response.headers,
                       "503 missing Retry-After")
                report.shed_503 += 1
            else:
                raise DrillFailure(
                    f"unexpected status {response.status} for {endpoint} "
                    f"{params}: {response.body[:200]}")
        _check(report.shed_429 >= 1,
               "the greedy client was never quota-shed (expected >= 1 429)")
        _check(report.responses_200 >= len(requests),
               f"too few 200s survived: {report.responses_200}")

        # 3. Slow client: one byte every 200 ms cannot beat a 0.6 s header
        #    timeout → 408, while a normal request right after still works.
        slow = polite.request("GET", "/health", slow_chunk=1,
                              slow_delay_s=0.2, timeout_s=30.0)
        _check(slow.status == 408 and slow.error_code == "serve.slow_client",
               f"expected 408 slow-client shed, got {slow.status}")
        report.slow_408 += 1
        _check(polite.health().ok, "daemon unhealthy after slow-client shed")

        # 4. Post-chaos convergence: one more full pass, all 200, all
        #    bitwise-identical (the kill budget is exhausted by now).
        #    Retrying per Retry-After is part of the point: the quota
        #    headers must be honest enough for a polite client to get
        #    through.
        for endpoint, params in requests:
            response = _post_respecting_quota(polite, endpoint, params)
            _check(response.status == 200,
                   f"convergence pass failed: {response.status} "
                   f"{response.body[:200]}")
            report.responses_200 += 1
            _match_or_die(report, golden, endpoint, params, response.body,
                          "convergence pass")

        stats = polite.stats()
        _check(stats.ok, f"stats endpoint failed: {stats.status}")
        report.notes.append(
            f"daemon counters: {stats.data['serve']}")

    _check(_torn_tails(cache_dir) == 0,
           "a dead writer's torn cache record survived the drill")
    return report


def _corrupt_some_cache(cache_dir: Path, limit: int = 2) -> int:
    """Damage up to ``limit`` present cache entries (torn + garbage)."""
    from repro.core.jobs import ResultCache

    cache = ResultCache(cache_dir)
    modes = ("truncate", "garbage")
    victims = cache.keys()[:limit]
    for number, key in enumerate(victims):
        corrupt_cache_entry(cache, key, mode=modes[number % len(modes)])
    return len(victims)


def _torn_tails(cache_dir: Path) -> int:
    """Torn records that dead writers left in the cache's segments (a
    fresh handle cuts each one back and counts it)."""
    from repro.core.jobs import ResultCache

    return ResultCache(cache_dir).stats().tmp_swept


# -- the CI smoke -----------------------------------------------------------

def run_serve_smoke(work_dir: Union[str, Path],
                    python: Optional[str] = None) -> DrillReport:
    """Boot a real daemon subprocess; burst, quota-shed, SIGTERM, drain."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = work_dir / "cache"
    port_file = work_dir / "daemon.port"
    report = DrillReport()
    golden = clean_baseline(DRILL_REQUESTS)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(Path(__file__).resolve().parents[2]),
                    env.get("PYTHONPATH", "")] if p)
    process = subprocess.Popen(
        [python or sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--port-file", str(port_file),
         "--cache-dir", str(cache_dir), "--jobs", "2",
         "--quota-rps", "2", "--quota-burst", "3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        port = read_port_file(port_file, timeout_s=30.0)
        polite = ServeClient(port=port, client_id="polite")
        greedy = ServeClient(port=port, client_id="greedy")

        # Mixed burst: polite paced under quota, greedy bursting over it.
        with ThreadPoolExecutor(max_workers=6) as pool:
            greedy_futures = [
                pool.submit(greedy.post, endpoint, params)
                for endpoint, params in DRILL_REQUESTS
                for _ in (0, 1)
            ]
            polite_responses = []
            for endpoint, params in DRILL_REQUESTS[:3]:
                polite_responses.append((endpoint, params,
                                         polite.post(endpoint, params)))
                time.sleep(0.55)  # stay under 2 rps
            greedy_responses = [future.result() for future in greedy_futures]

        for endpoint, params, response in polite_responses:
            _check(response.status == 200,
                   f"polite client shed: {response.status} {response.body[:120]}")
            report.responses_200 += 1
            _match_or_die(report, golden, endpoint, params, response.body,
                          "smoke polite client")
        for response in greedy_responses:
            if response.status == 200:
                report.responses_200 += 1
            elif response.status == 429:
                report.shed_429 += 1
            elif response.status == 503:
                report.shed_503 += 1
        _check(report.shed_429 >= 1, "greedy client never saw a 429")

        # Bitwise stability across repeats (warm cache, same bytes).
        endpoint, params = DRILL_REQUESTS[2]
        first = polite.post(endpoint, params)
        time.sleep(0.55)
        second = polite.post(endpoint, params)
        _check(first.status == second.status == 200,
               f"stability probe shed: {first.status}/{second.status}")
        _check(first.body == second.body, "repeat responses differ bytewise")
        report.responses_200 += 2
        _match_or_die(report, golden, endpoint, params, second.body,
                      "smoke stability probe")

        # SIGTERM with one request in flight: the response must still
        # arrive, then the process must exit 0 on its own.
        time.sleep(1.0)  # let the quota bucket refill before the probe
        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(polite.post, "evaluate",
                                   {"designs": ["SuperNPU", "Baseline"],
                                    "workloads": ["mobilenet", "resnet50"]})
            time.sleep(0.15)
            process.send_signal(signal.SIGTERM)
            final = inflight.result(timeout=60.0)
        _check(final.status == 200,
               f"in-flight request lost to SIGTERM: {final.status} "
               f"{final.body[:120]}")
        report.responses_200 += 1
        exit_code = process.wait(timeout=60.0)
        _check(exit_code == 0, f"daemon exited {exit_code}, expected 0")
        _check(not port_file.exists(), "port file not removed on drain")
        _check(_torn_tails(cache_dir) == 0,
               "torn cache record after drain")
        report.notes.append("SIGTERM drained cleanly: in-flight request "
                            "answered, exit 0, no tmp orphans")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
    return report


__all__ = ["DRILL_REQUESTS", "DrillFailure", "DrillReport", "clean_baseline",
           "run_chaos_drill", "run_serve_smoke"]
