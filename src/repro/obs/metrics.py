"""Process-local metrics: counters, gauges, and histograms/timers.

A :class:`MetricsRegistry` hands out named instruments; a disabled
registry (the default) hands out shared no-op instruments and registers
nothing, so instrumented hot paths cost one attribute check per call and
the registry snapshot stays empty.  Snapshots are plain dicts (JSON-ready)
so CLI output can be diffed across PRs.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, Optional


class Counter:
    """Monotonically increasing count (events, cycles, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    # ``add`` reads better for byte/cycle totals; same operation.
    add = inc


class Gauge:
    """Last-written value (progress fraction, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


#: Log-spaced bucket layout shared by every histogram: 16 buckets per
#: decade across 1e-9 .. 1e9 (plus underflow/overflow), so any positive
#: observation lands in a bucket whose bounds are within ~±7.5% of it.
_BUCKETS_PER_DECADE = 16
_MIN_EXP = -9
_MAX_EXP = 9
_LOG_BUCKETS = (_MAX_EXP - _MIN_EXP) * _BUCKETS_PER_DECADE


class Histogram:
    """Streaming summary of observations (count/sum/min/max/mean + quantiles).

    Keeps scalar aggregates plus a fixed array of log-spaced bucket
    counts rather than raw samples, so unbounded call counts (e.g. one
    observation per simulated layer) never grow memory while p50/p95/p99
    stay answerable to bucket resolution (~±7.5%).  ``time()`` returns a
    context manager that observes elapsed wall seconds, making any
    histogram usable as a timer.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # [underflow (incl. <= 0), log buckets..., overflow]
        self.buckets = [0] * (_LOG_BUCKETS + 2)

    @staticmethod
    def _bucket_index(value: float) -> int:
        if value <= 10.0 ** _MIN_EXP:
            return 0
        position = (math.log10(value) - _MIN_EXP) * _BUCKETS_PER_DECADE
        index = int(position) + 1
        return min(index, _LOG_BUCKETS + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[self._bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1) from the bucket counts.

        Accurate to the log-bucket resolution; always clamped into the
        exact observed [min, max] envelope, so q=0 / q=1 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        estimate = self.max
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= target:
                if index == 0:
                    estimate = self.min
                elif index == _LOG_BUCKETS + 1:
                    estimate = self.max
                else:
                    low = 10.0 ** (_MIN_EXP + (index - 1) / _BUCKETS_PER_DECADE)
                    high = 10.0 ** (_MIN_EXP + index / _BUCKETS_PER_DECADE)
                    estimate = math.sqrt(low * high)
                break
        return min(max(estimate, self.min), self.max)

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _HistogramTimer:
    """``with histogram.time():`` — observes elapsed seconds on exit."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NoopInstrument:
    """Shared sink for every instrument call while metrics are disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    add = inc

    def set(self, value: float) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NoopInstrument":
        return self

    def __enter__(self) -> "_NoopInstrument":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Named instruments for one process (or one run, when reset between).

    Disabled (the default), every accessor returns the shared no-op
    instrument and the registry records nothing; ``snapshot()`` stays
    empty.  Enabled, instruments are created on first use and accumulate
    until :meth:`reset`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All recorded values as a plain nested dict (JSON-ready)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
