"""The asyncio daemon: admission, coalescing, deadlines, drain.

Request lifecycle (one connection per request, ``Connection: close``)::

    read (408 on slow client)
      → route (404/405)
        → admission ladder (503 draining / 503 overloaded / 429 quota)
          → single-flight join (leader computes in a worker thread)
            → deadline wait (504 sheds the waiter, never the work)
              → deterministic 200 body

The deadline uses ``wait_for(shield(...))``: a timed-out waiter is
cut loose with a 504 while the leader's computation runs to completion
into the shared cache — which is exactly what keeps the cache
consistent under cancellation (writes are atomic and always finish; only
the *response* is abandoned).

SIGTERM flips the admission controller to draining (new work is shed
with 503 + ``Retry-After``), closes the listener, waits for in-flight
requests and their worker-thread computations to finish, removes the
port file, and returns — the CLI then exits 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro import obs
from repro.core.chaos import ChaosInjector
from repro.errors import ConfigError, ReproError
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import SingleFlight
from repro.serve.engine import ENDPOINTS, ServeEngine, request_key
from repro.serve.protocol import (
    HttpRequest,
    ProtocolError,
    error_envelope,
    render_response,
    status_for_error,
    success_envelope,
)


@dataclass
class ServeConfig:
    """Every daemon knob in one picklable bundle."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in the port file
    cache_dir: Optional[Union[str, Path]] = None
    jobs: int = 1
    retries: int = 2
    task_timeout_s: Optional[float] = None
    max_inflight: int = 8
    quota_rate_per_s: float = 8.0
    quota_burst: int = 16
    deadline_s: float = 60.0
    read_timeout_s: float = 5.0  # bounds the header read, then the body read
    drain_timeout_s: float = 30.0
    port_file: Optional[Union[str, Path]] = None
    worker_chaos: Optional[ChaosInjector] = None
    handler_chaos: Optional[ChaosInjector] = None


def _check_timeouts(config: ServeConfig) -> None:
    """Reject a deadline or timeout the daemon cannot serve with, so
    ``supernpu serve`` fails before it binds rather than on a request."""
    for name, positive in (("deadline_s", True), ("read_timeout_s", True),
                           ("drain_timeout_s", False)):
        value = getattr(config, name)
        if not (value > 0 if positive else value >= 0):
            bound = "positive" if positive else "at least 0"
            raise ConfigError(f"{name} must be {bound}, got {value}",
                              code="config.invalid_timeout", **{name: value})


class EvalDaemon:
    """One serving process: engine + admission + single-flight + server."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        _check_timeouts(self.config)
        # Built first: it rejects a bad quota before anything is allocated.
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            quota_rate_per_s=self.config.quota_rate_per_s,
            quota_burst=self.config.quota_burst,
        )
        self.engine = ServeEngine(
            cache_dir=self.config.cache_dir,
            jobs=self.config.jobs,
            retries=self.config.retries,
            task_timeout_s=self.config.task_timeout_s,
            worker_chaos=self.config.worker_chaos,
            handler_chaos=self.config.handler_chaos,
        )
        self.flights = SingleFlight()
        self.counters: Dict[str, int] = {}
        self.port: Optional[int] = None
        self.started_unix = time.time()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.config.max_inflight),
            thread_name_prefix="serve-handler")
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._open_requests = 0
        self._request_seq = 0
        self._lead_tasks: set = set()

    # -- counters ------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        """Loop-side accounting: daemon dict (for /stats) + obs mirror."""
        self.counters[name] = self.counters.get(name, 0) + amount
        obs.counter(name).add(amount)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port, limit=protocol.MAX_HEADER_BYTES)
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else None
        if self.config.port_file is not None and self.port is not None:
            path = Path(self.config.port_file)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(str(self.port), encoding="utf-8")
            os.replace(tmp, path)

    def begin_shutdown(self) -> None:
        """Start draining (loop-side; signal handlers land here)."""
        self.admission.draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def trigger_shutdown(self) -> None:
        """Thread-safe shutdown request (used by tests / embedders)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.begin_shutdown)

    async def _drain(self) -> None:
        """Stop listening, let in-flight work finish, tidy up."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (self._open_requests > 0 or self._lead_tasks) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # Any still-running leader computation finishes here: cache and
        # journal writes complete even when every waiter already left.
        self._executor.shutdown(wait=True)
        if self.config.port_file is not None:
            try:
                Path(self.config.port_file).unlink()
            except OSError:
                pass

    async def serve_until_shutdown(self,
                                   ready: Optional[threading.Event] = None
                                   ) -> None:
        """Start, serve until a shutdown request, drain, return."""
        await self.start()
        if ready is not None:
            ready.set()
        if threading.current_thread() is threading.main_thread():
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self._drain()

    def run(self) -> None:
        """Blocking entry point (the CLI's ``supernpu serve``)."""
        asyncio.run(self.serve_until_shutdown())

    # -- request handling ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._open_requests += 1
        try:
            raw = await self._respond(reader, writer)
            writer.write(raw)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._open_requests -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> bytes:
        """Everything between raw bytes in and raw bytes out."""
        self._request_seq += 1
        request_id = f"{os.getpid()}-{self._request_seq}"
        base_headers = {"X-Request-Id": request_id}
        self._count("serve.requests")
        try:
            request = await protocol.read_request(
                reader, read_timeout_s=self.config.read_timeout_s)
        except ProtocolError as error:
            if error.status == 408:
                self._count("serve.slow_client_408")
            return render_response(
                error.status, error_envelope(error.code, str(error), error.hint),
                base_headers)

        endpoint = self._route(request)
        if endpoint is None:
            return self._route_error(request, base_headers)
        if endpoint == "health":
            return render_response(200, self._health_body(), base_headers)
        if endpoint == "stats":
            return render_response(200, self._stats_body(), base_headers)
        return await self._compute(request, endpoint, writer, base_headers)

    @staticmethod
    def _route(request: HttpRequest) -> Optional[str]:
        path = request.path.rstrip("/") or "/"
        if request.method == "GET" and path in ("/health", "/healthz"):
            return "health"
        if request.method == "GET" and path == "/stats":
            return "stats"
        if request.method == "POST" and path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
            if endpoint in ENDPOINTS:
                return endpoint
        return None

    def _route_error(self, request: HttpRequest,
                     base_headers: Dict[str, str]) -> bytes:
        known = [f"POST /v1/{e}" for e in ENDPOINTS] + \
                ["GET /health", "GET /stats"]
        if any(request.path.rstrip("/") == f"/v1/{e}" for e in ENDPOINTS) \
                or request.path.rstrip("/") in ("/health", "/stats"):
            return render_response(
                405, error_envelope("serve.method_not_allowed",
                                    f"{request.method} not allowed on "
                                    f"{request.path}",
                                    hint="; ".join(known)), base_headers)
        return render_response(
            404, error_envelope("serve.not_found",
                                f"no endpoint at {request.path}",
                                hint="; ".join(known)), base_headers)

    def _client_id(self, request: HttpRequest,
                   writer: asyncio.StreamWriter) -> str:
        explicit = request.header("x-client")
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    def _deadline_s(self, request: HttpRequest) -> float:
        header = request.header("x-deadline-s")
        if header:
            try:
                requested = float(header)
            except ValueError:
                requested = self.config.deadline_s
            if requested > 0:
                return min(requested, self.config.deadline_s)
        return self.config.deadline_s

    async def _compute(self, request: HttpRequest, endpoint: str,
                       writer: asyncio.StreamWriter,
                       base_headers: Dict[str, str]) -> bytes:
        client_id = self._client_id(request, writer)
        decision = self.admission.admit(client_id)
        if not decision.admitted:
            self._count(f"serve.shed_{decision.status}")
            headers = dict(base_headers)
            headers["Retry-After"] = f"{decision.retry_after_s:.3f}"
            return render_response(
                decision.status,
                error_envelope(decision.code, decision.message,
                               hint="retry after the indicated delay"),
                headers)
        try:
            return await self._admitted(request, endpoint, base_headers)
        finally:
            self.admission.release()

    async def _admitted(self, request: HttpRequest, endpoint: str,
                        base_headers: Dict[str, str]) -> bytes:
        params = request.body or {}
        key = request_key(endpoint, params)
        future, leader = self.flights.join(key)
        headers = dict(base_headers)
        headers["X-Coalesced"] = "0" if leader else "1"
        if not leader:
            self._count("serve.coalesced")
        if leader:
            task = asyncio.ensure_future(self._lead(key, future, endpoint, params))
            self._lead_tasks.add(task)
            task.add_done_callback(self._lead_tasks.discard)
        obs.trace_instant(f"serve.{endpoint}", endpoint=endpoint,
                          coalesced=not leader)
        started = time.perf_counter()
        try:
            body, meta = await asyncio.wait_for(
                asyncio.shield(future), timeout=self._deadline_s(request))
        except asyncio.TimeoutError:
            self._count("serve.deadline_504")
            headers["Retry-After"] = "1.000"
            return render_response(
                504, error_envelope(
                    "serve.deadline",
                    f"request exceeded its {self._deadline_s(request):g}s "
                    "deadline",
                    hint="the computation continues into the cache; retry"),
                headers)
        except ReproError as error:
            self._count("serve.errors")
            return render_response(
                status_for_error(error),
                error_envelope(error.code or "error", str(error), error.hint),
                headers)
        except Exception as error:  # noqa: BLE001 - the envelope boundary
            self._count("serve.errors")
            return render_response(
                500, error_envelope("serve.handler_failure",
                                    f"handler failed: {error}"),
                headers)
        finally:
            obs.histogram("serve.request_seconds").observe(
                time.perf_counter() - started)
        self._count("serve.responses_200")
        headers.update(meta)
        return render_response(200, body, headers)

    async def _lead(self, key: str, future: asyncio.Future,
                    endpoint: str, params: Dict[str, Any]) -> None:
        """Leader duty: compute in a thread, resolve the shared future."""
        assert self._loop is not None
        try:
            body, meta = await self._loop.run_in_executor(
                self._executor, self.engine.handle, endpoint, params)
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            if not future.done():
                future.set_exception(error)
                # Mark retrieved: when every waiter already shed on its
                # deadline, nobody will await this future again, and an
                # unretrieved exception would warn at GC time.
                future.exception()
        else:
            if not future.done():
                future.set_result((body, meta))
        finally:
            self.flights.forget(key)

    # -- volatile endpoints --------------------------------------------
    def _health_body(self) -> str:
        return success_envelope("health", {
            "status": "draining" if self.admission.draining else "ok",
            "inflight": self.admission.inflight,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "degraded": self.engine.degraded,
        })

    def _stats_body(self) -> str:
        data = {
            "engine": self.engine.stats_data(),
            "serve": dict(sorted(self.counters.items())),
            "admission": {
                "inflight": self.admission.inflight,
                "max_inflight": self.admission.max_inflight,
                "draining": self.admission.draining,
            },
            "coalesced_total": self.flights.coalesced_total,
        }
        return success_envelope("stats", data)


@contextmanager
def daemon_in_thread(config: Optional[ServeConfig] = None
                     ) -> Iterator[EvalDaemon]:
    """Run a daemon on a background thread for the enclosed block.

    Yields the daemon once its port is bound (``daemon.port``); always
    drains and joins on exit.  This is the harness tests use — the
    subprocess path (``supernpu serve``) is exercised by the drill.
    """
    daemon = EvalDaemon(config)
    ready = threading.Event()
    failure: Dict[str, BaseException] = {}

    def _run() -> None:
        try:
            asyncio.run(daemon.serve_until_shutdown(ready))
        except BaseException as error:  # pragma: no cover - surfaced below
            failure["error"] = error
            ready.set()

    thread = threading.Thread(target=_run, name="serve-daemon", daemon=True)
    thread.start()
    if not ready.wait(timeout=15.0):
        raise RuntimeError("daemon failed to start within 15s")
    if "error" in failure:
        raise RuntimeError(f"daemon failed to start: {failure['error']}")
    try:
        yield daemon
    finally:
        daemon.trigger_shutdown()
        thread.join(timeout=30.0)
        if "error" in failure:
            raise RuntimeError(f"daemon crashed: {failure['error']}")


__all__ = ["EvalDaemon", "ServeConfig", "daemon_in_thread"]
