"""HTTP/1.1 wire format and the deterministic JSON envelope.

One request per connection (``Connection: close``), parsed directly off
the asyncio stream — no ``http.server`` machinery, so read timeouts can
bound a slow client's header *and* body phases separately, which is what
turns "client dribbles one byte per second" into a 408 instead of a
tied-up handler.

Envelopes are rendered with sorted keys and compact separators, and the
success body carries only content-derived fields, so two responses to
the same logical request are bitwise-identical regardless of worker
count, cache temperature, coalescing, or recovered faults.  Volatile
facts ride in ``X-*`` headers.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import CacheError, ConfigError, ReproError, SimulationError, WorkloadError

#: Maximum accepted request line + header block (bytes).
MAX_HEADER_BYTES = 16 * 1024
#: Maximum accepted request body (bytes) — plans and param dicts are tiny.
MAX_BODY_BYTES = 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ReproError):
    """A malformed or over-limit request (always a 4xx, never retried)."""

    exit_code = 2

    def __init__(self, message: str, status: int = 400, **context: Any) -> None:
        super().__init__(message, code=context.pop("code", "serve.bad_request"),
                         hint=context.pop("hint", None), context=context)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, path, headers (lower-cased), JSON body."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: Optional[Dict[str, Any]] = None

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(reader: asyncio.StreamReader,
                       read_timeout_s: float) -> HttpRequest:
    """Parse one HTTP/1.1 request off the stream, under read deadlines.

    A client that cannot deliver its header block, or then its declared
    body, within ``read_timeout_s`` each raises :class:`ProtocolError`
    with status 408 — the slow-client shed.
    """
    try:
        raw_header = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=read_timeout_s)
    except asyncio.TimeoutError:
        raise ProtocolError("request header not received in time",
                            status=408, code="serve.slow_client",
                            hint="send the full request promptly") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request header block too large",
                            status=413, code="serve.header_too_large") from None
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise ProtocolError("empty request", status=400,
                                code="serve.bad_request") from None
        raise ProtocolError("connection closed mid-header", status=400,
                            code="serve.bad_request") from None
    if len(raw_header) > MAX_HEADER_BYTES:
        raise ProtocolError("request header block too large",
                            status=413, code="serve.header_too_large")

    lines = raw_header.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}",
                            status=400, code="serve.bad_request")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    body: Optional[Dict[str, Any]] = None
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length_text!r}",
                            status=400, code="serve.bad_request") from None
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES} byte limit",
                            status=413, code="serve.body_too_large")
    if length:
        try:
            raw_body = await asyncio.wait_for(
                reader.readexactly(length), timeout=read_timeout_s)
        except asyncio.TimeoutError:
            raise ProtocolError("request body not received in time",
                                status=408, code="serve.slow_client",
                                hint="send the full request promptly") from None
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body", status=400,
                                code="serve.bad_request") from None
        try:
            parsed = json.loads(raw_body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError("request body is not valid JSON",
                                status=400, code="serve.bad_json",
                                hint="POST a JSON object") from None
        if not isinstance(parsed, dict):
            raise ProtocolError("request body must be a JSON object",
                                status=400, code="serve.bad_json")
        body = parsed
    return HttpRequest(method=method, path=path, headers=headers, body=body)


# -- envelopes --------------------------------------------------------------

def canonical_body(document: Mapping[str, Any]) -> str:
    """The one rendering of a response document (sorted, compact)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def success_envelope(endpoint: str, data: Any) -> str:
    """A deterministic 200 body: content-derived fields only."""
    return canonical_body({"ok": True, "endpoint": endpoint, "data": data})


def error_envelope(code: str, message: str,
                   hint: Optional[str] = None) -> str:
    """A structured error body mirroring the ``repro.errors`` taxonomy."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if hint:
        error["hint"] = hint
    return canonical_body({"ok": False, "error": error})


def status_for_error(error: BaseException) -> int:
    """Map a taxonomy error to its HTTP status.

    Mirrors the CLI's exit-code mapping (docs/API.md): user mistakes
    (config / workload, exit 2–3) are 400s; execution and cache failures
    (exit 4–5) are 500s; protocol errors carry their own status.
    """
    if isinstance(error, ProtocolError):
        return error.status
    if isinstance(error, (ConfigError, WorkloadError)):
        return 400
    if isinstance(error, (SimulationError, CacheError)):
        return 500
    return 500


def render_response(status: int, body: str,
                    extra_headers: Optional[Mapping[str, str]] = None,
                    ) -> bytes:
    """Serialize one complete HTTP/1.1 response (connection closing)."""
    payload = body.encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


def split_response(raw: bytes) -> Tuple[int, Dict[str, str], str]:
    """Parse a raw response into (status, headers, body text) — client side."""
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        raise ProtocolError(f"malformed status line {lines[0]!r}",
                            code="serve.bad_response") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload.decode("utf-8")
