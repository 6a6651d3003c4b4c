"""A fixed host-speed probe that scales wall times to a reference host speed.

The benchmark shares its host with other tenants, whose load slows every
instruction of ours by up to 2x for seconds at a time; raw per-op wall
times then spread 15-60% between runs of identical work.  The probe is a
fixed piece of allocation-heavy pure Python (dataclass to dict, JSON
round trip, hashing, small-integer arithmetic) of the kind the measured
code runs, so it slows down with it.  It lives in the benchmark, not in
``repro``, so no change to the program can move it.

Timings are reported as ``wall * REFERENCE_NS / probe``, where ``probe`` is
the mean of the probes run just before and just after the measured work:
wall time at the host speed where one probe takes :data:`REFERENCE_NS`
(its time on an idle 2.1 GHz Xeon vCPU).  The cyclic garbage collector is
off during a probe, so its time does not depend on the program's heap.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from time import perf_counter_ns

#: Probe wall time on an idle host (2.1 GHz Xeon vCPU), in nanoseconds.
REFERENCE_NS = 11_000_000


@dataclasses.dataclass(frozen=True)
class _Cell:
    name: str
    jj: int
    delay_ps: float
    area: float


def _work() -> int:
    cells = [_Cell(f"c{i}", i % 97, i * 0.37, i / 7) for i in range(1200)]
    text = json.dumps([dataclasses.asdict(cell) for cell in cells], sort_keys=True)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    total = 0
    for cell in json.loads(text):
        total += (cell["jj"] * 3 + len(cell["name"])) // 2 + max(cell["jj"], 5)
    return total


def probe_ns() -> int:
    """Wall nanoseconds of one probe, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        _work()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """Factor taking wall time measured between two probes to reference speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
