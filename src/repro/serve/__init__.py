"""``repro.serve`` — the evaluation daemon (ROADMAP item 1).

The CLI runs one request per process; design-space exploration traffic
(SuperSNN-style estimate/simulate loops, the paper's resource-balancing
sweeps) is many small requests against a warm cache.  This package puts
a long-lived asyncio HTTP/JSON front on the existing execution engine
(``repro.api`` resolvers + :class:`repro.core.jobs.JobRunner` + the
content-addressed :class:`~repro.core.jobs.ResultCache`):

* :mod:`repro.serve.protocol` — a minimal HTTP/1.1 request/response
  layer (stdlib only) plus the deterministic JSON envelope and the
  ``repro.errors`` taxonomy → HTTP status mapping;
* :mod:`repro.serve.admission` — the load-shedding ladder: drain flag,
  bounded in-flight queue, and per-client token-bucket quotas
  (503 / 429 + ``Retry-After``);
* :mod:`repro.serve.coalesce` — single-flight coalescing of identical
  content-hashed requests (all waiters share one computation);
* :mod:`repro.serve.engine` — a table of endpoints over the ``repro.api``
  verbs and the CLI's ``--json`` records (:mod:`repro.core.report`),
  run under a per-request ambient runner over one shared cache, a
  daemon-level degrade latch, and handler-scope chaos injection;
* :mod:`repro.serve.daemon` — the asyncio server itself: per-request
  deadlines, slow-client timeouts, SIGTERM drain, port-file handshake;
* :mod:`repro.serve.client` — a raw-socket client (the CLI's
  ``supernpu client``) able to simulate slow writers for drills;
* :mod:`repro.serve.drill` — the chaos drill asserting every surviving
  response is bitwise-identical to a clean single-client run.

Responses are deterministic by construction: bodies contain only
content-derived data (volatile facts — request ids, coalescing, cache
temperature — travel in ``X-*`` headers), so "bitwise-identical under
chaos" is checkable with a string compare.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.serve.client import ClientResponse, ServeClient
from repro.serve.coalesce import SingleFlight
from repro.serve.daemon import EvalDaemon, ServeConfig, daemon_in_thread
from repro.serve.engine import ServeEngine
from repro.serve.protocol import (
    HttpRequest,
    error_envelope,
    render_response,
    status_for_error,
    success_envelope,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ClientResponse",
    "EvalDaemon",
    "HttpRequest",
    "ServeClient",
    "ServeConfig",
    "ServeEngine",
    "SingleFlight",
    "TokenBucket",
    "daemon_in_thread",
    "error_envelope",
    "render_response",
    "status_for_error",
    "success_envelope",
]
