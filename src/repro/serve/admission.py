"""Admission control: the drain flag, the in-flight bound, and quotas.

Decisions are taken on the event loop (single-threaded), in ladder
order — each rung maps to one structured shed:

1. **draining** — the daemon received SIGTERM and accepts nothing new
   (503, ``serve.draining``);
2. **overload** — admitted-but-unfinished requests already fill the
   bounded queue (503, ``serve.overloaded``);
3. **quota** — this client's token bucket is empty (429,
   ``serve.quota``).

Every shed carries ``Retry-After`` so well-behaved clients back off
instead of hammering; one client's sweep exhausts its own bucket long
before it can exhaust the shared in-flight bound, which is what keeps
a second client's requests flowing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError


class TokenBucket:
    """A per-client rate limiter: ``burst`` tokens refilled at ``rate_per_s``.

    ``take()`` is O(1) and lazy (tokens accrue on inspection, capped at
    the burst size); ``retry_after_s()`` reports how long until one
    token exists — the honest ``Retry-After`` value.
    """

    __slots__ = ("rate_per_s", "burst", "tokens", "updated")

    def __init__(self, rate_per_s: float, burst: int,
                 now: Optional[float] = None) -> None:
        if not (rate_per_s > 0 and burst >= 1):
            raise ConfigError("quota rate must be positive and burst >= 1",
                              code="config.invalid_quota",
                              rate_per_s=rate_per_s, burst=burst)
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.tokens = float(burst)
        self.updated = time.monotonic() if now is None else now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(float(self.burst), self.tokens + elapsed * self.rate_per_s)
        self.updated = now

    def take(self, now: Optional[float] = None) -> bool:
        """Consume one token if available."""
        self._refill(time.monotonic() if now is None else now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after_s(self, now: Optional[float] = None) -> float:
        """Seconds until the next token exists (0 when one already does)."""
        self._refill(time.monotonic() if now is None else now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate_per_s


@dataclass(frozen=True)
class AdmissionDecision:
    """The ladder's verdict for one request."""

    admitted: bool
    status: int = 200
    code: str = ""
    message: str = ""
    retry_after_s: float = 0.0


class AdmissionController:
    """The drain flag + bounded in-flight count + per-client buckets."""

    def __init__(self, max_inflight: int,
                 quota_rate_per_s: float, quota_burst: int,
                 drain_retry_after_s: float = 5.0) -> None:
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1",
                              code="config.invalid_admission",
                              max_inflight=max_inflight)
        TokenBucket(quota_rate_per_s, quota_burst)  # a bad quota fails here
        self.max_inflight = max_inflight
        self.quota_rate_per_s = quota_rate_per_s
        self.quota_burst = quota_burst
        self.drain_retry_after_s = drain_retry_after_s
        self.inflight = 0
        self.draining = False
        self._buckets: Dict[str, TokenBucket] = {}

    def bucket_for(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = self._buckets[client_id] = TokenBucket(
                self.quota_rate_per_s, self.quota_burst)
        return bucket

    def admit(self, client_id: str) -> AdmissionDecision:
        """Run the ladder; an admitted request holds one in-flight slot
        until :meth:`release` — exempt endpoints must not call this."""
        if self.draining:
            return AdmissionDecision(
                admitted=False, status=503, code="serve.draining",
                message="daemon is draining for shutdown",
                retry_after_s=self.drain_retry_after_s)
        if self.inflight >= self.max_inflight:
            return AdmissionDecision(
                admitted=False, status=503, code="serve.overloaded",
                message=f"in-flight limit of {self.max_inflight} reached",
                retry_after_s=1.0)
        bucket = self.bucket_for(client_id)
        if not bucket.take():
            return AdmissionDecision(
                admitted=False, status=429, code="serve.quota",
                message=f"client {client_id!r} exceeded its request quota",
                retry_after_s=max(0.05, bucket.retry_after_s()))
        self.inflight += 1
        return AdmissionDecision(admitted=True)

    def release(self) -> None:
        """Give one in-flight slot back (request finished, any outcome)."""
        if self.inflight > 0:
            self.inflight -= 1
