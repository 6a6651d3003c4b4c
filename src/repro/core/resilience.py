"""Fault-tolerance primitives for the job layer.

:class:`RetryPolicy`, consumed by :class:`repro.core.jobs.JobRunner`, is
bounded retry with exponential backoff and jitter for *transient* task
failures (a crashed worker, a chaos injection, an OS hiccup).
Deterministic failures — anything in the :mod:`repro.errors` taxonomy —
are never retried: a bad config fails the same way every time.

A killed sweep needs no journal to resume: the runner writes each task
to the result cache as it completes and reads the cache before running
anything, so the finished tasks are hits on the next run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter.

    ``max_retries`` is the number of *re*-attempts after the first
    failure; ``max_retries=0`` fails fast.  The delay before attempt
    ``n`` (1-based failure count) is
    ``min(max_delay_s, base_delay_s * 2**(n-1))`` stretched by up to
    ``jitter`` (fractional), so retrying workers do not stampede.
    """

    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative",
                              code="config.invalid_retry", max_retries=self.max_retries)
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("retry delays must be non-negative",
                              code="config.invalid_retry")
        if not 0 <= self.jitter <= 1:
            raise ConfigError("jitter must lie in [0, 1]",
                              code="config.invalid_retry", jitter=self.jitter)

    def delay_s(self, failures: int) -> float:
        """Backoff before the next attempt, after ``failures`` failures."""
        if failures < 1:
            return 0.0
        bounded = min(self.max_delay_s, self.base_delay_s * (2 ** (failures - 1)))
        return bounded * (1.0 + self.jitter * random.random())


#: Fail-fast policy (no retries, no sleeping) for tests and strict runs.
NO_RETRY = RetryPolicy(max_retries=0, base_delay_s=0.0, jitter=0.0)
