"""``repro.core.chaos`` — failure injection at the task boundary.

The paper's devices fail by dropping pulses (bias-margin and timing
violations — the reason :mod:`repro.gatesim.faults` exists); the
*framework* fails by dropping workers.  This module gives the execution
layer the same treatment the gate level already has: a controlled
vocabulary of injected failures used to prove every recovery path in
:class:`repro.core.jobs.JobRunner` yields results bitwise-identical to
a clean serial run.

Failure kinds (:class:`FaultSpec`):

* ``"exception"`` — the task raises a transient :class:`ChaosFailure`;
* ``"hang"`` — the task sleeps past any sane deadline (exercises the
  per-task timeout + pool-abandon path);
* ``"sigkill"`` — the worker process SIGKILLs itself (exercises
  ``BrokenProcessPool`` recovery and degrade-to-serial).

Budgets are enforced through an on-disk attempt ledger
(:class:`ChaosInjector` claims one marker file per firing), so a fault
configured with ``times=2`` fires exactly twice *across processes and
pool restarts* and then lets the task succeed — which is what makes
"inject, recover, converge" provable.

Cache poisoning (:func:`corrupt_cache_entry`) covers the storage side:
torn records, garbage bytes, wrong schema versions, and well-formed
but unmaterializable payloads.

The serving layer (:mod:`repro.serve`) drills one level higher with the
daemon fault kinds (:data:`SERVE_FAULT_KINDS`):

* ``"hung_handler"`` — the request handler stalls for ``hang_seconds``
  *and then proceeds normally* (exercises per-request deadlines: the
  waiter sheds with 504 while the computation stays consistent);
* ``"reject"`` — the handler raises a transient :class:`ChaosFailure`
  before touching the job engine (exercises the error envelope path).

A daemon passes two independent injectors — one fired at the handler
boundary (keyed by endpoint name), one travelling into pool workers
(keyed by task content hash) — so "kill workers mid-request" and "hang
the handler" are separately budgeted.  Slow-client faults need no
injector at all: they are produced client-side by throttled request
writes (:meth:`repro.serve.client.ServeClient.raw_request`) and
absorbed server-side by bounded read timeouts.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.jobs import ResultCache

FAULT_KINDS = ("exception", "hang", "sigkill")

#: Fault kinds meaningful only at the serving layer's handler boundary.
SERVE_FAULT_KINDS = ("hung_handler", "reject")

#: Every kind a :class:`FaultSpec` accepts (worker-level + daemon-level).
ALL_FAULT_KINDS = FAULT_KINDS + SERVE_FAULT_KINDS

CORRUPTION_MODES = ("truncate", "garbage", "wrong_schema", "poisoned_payload")

#: Wildcard fault key: applies to every task, sharing one ``times`` budget.
ANY_TASK = "*"


class ChaosFailure(RuntimeError):
    """A chaos-injected transient failure (retriable by design)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure: ``kind``, fired at most ``times`` times."""

    kind: str
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {ALL_FAULT_KINDS}",
                code="config.invalid_fault", kind=self.kind,
            )
        if self.times < 1:
            raise ConfigError("fault times must be >= 1",
                              code="config.invalid_fault", times=self.times)
        if self.hang_seconds <= 0:
            raise ConfigError("hang_seconds must be positive",
                              code="config.invalid_fault")


class ChaosInjector:
    """Fires planned faults at task boundaries, with cross-process budgets.

    ``faults`` maps a task content key (or :data:`ANY_TASK`) to a
    :class:`FaultSpec`.  The injector is picklable and travels into
    worker processes with each task; the attempt ledger lives in
    ``state_dir`` so budgets hold across workers, pool restarts, and
    the degraded serial path.

    A ``"sigkill"`` fired in the owner process (serial / degraded mode)
    is demoted to a :class:`ChaosFailure` — chaos tests the runner, not
    the test harness.
    """

    def __init__(self, state_dir: Union[str, Path],
                 faults: Mapping[str, FaultSpec]) -> None:
        self.state_dir = Path(state_dir).expanduser()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.faults: Dict[str, FaultSpec] = dict(faults)
        self.owner_pid = os.getpid()

    def _claim(self, slot: str, spec: FaultSpec) -> bool:
        """Atomically claim one of the fault's ``times`` firing slots."""
        for attempt in range(spec.times):
            marker = self.state_dir / f"{slot}.{attempt}"
            try:
                handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False

    def planned_fault(self, key: str) -> Optional[FaultSpec]:
        """The spec that would apply to ``key`` (budget not consulted)."""
        return self.faults.get(key) or self.faults.get(ANY_TASK)

    def fire(self, key: str) -> None:
        """Inject the planned failure for ``key``, if budget remains."""
        spec = self.faults.get(key)
        slot = key[:32]
        if spec is None:
            spec = self.faults.get(ANY_TASK)
            slot = "any"
        if spec is None or not self._claim(slot, spec):
            return
        if spec.kind == "hung_handler":
            # The handler stalls but then proceeds normally: the caller's
            # deadline is what turns this into a shed, not an exception.
            time.sleep(spec.hang_seconds)
            return
        if spec.kind == "reject":
            raise ChaosFailure(f"chaos handler rejection on {key[:12]}")
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            raise ChaosFailure(
                f"chaos hang ({spec.hang_seconds:g}s) on task {key[:12]}"
            )
        if spec.kind == "sigkill":
            if os.getpid() == self.owner_pid:
                raise ChaosFailure(
                    f"chaos sigkill on task {key[:12]} (demoted to an "
                    "exception in the owner process)"
                )
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosFailure(f"chaos exception on task {key[:12]}")


#: Scopes a ``--chaos`` CLI flag can target: the daemon request handler
#: (fired once per admitted request, keyed by endpoint name) or the pool
#: workers (fired per task execution, keyed by content hash).
FAULT_SCOPES = ("handler", "worker")


def parse_fault_flag(text: str) -> Tuple[str, FaultSpec]:
    """Parse one ``--chaos`` flag: ``scope:kind:times[:seconds]``.

    Examples: ``worker:sigkill:2`` (the first two worker tasks SIGKILL
    their process), ``handler:hung_handler:1:0.5`` (the first admitted
    request stalls for half a second before executing).
    """
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"cannot parse chaos spec {text!r}; expected scope:kind:times[:seconds]",
            code="config.invalid_fault", spec=text,
        )
    scope, kind = parts[0], parts[1]
    if scope not in FAULT_SCOPES:
        raise ConfigError(
            f"unknown chaos scope {scope!r}; known: {FAULT_SCOPES}",
            code="config.invalid_fault", scope=scope,
        )
    try:
        times = int(parts[2])
        seconds = float(parts[3]) if len(parts) == 4 else 30.0
    except ValueError:
        raise ConfigError(
            f"cannot parse chaos spec {text!r}; times must be an int, "
            "seconds a float", code="config.invalid_fault", spec=text,
        ) from None
    return scope, FaultSpec(kind, times=times, hang_seconds=seconds)


def corrupt_cache_entry(cache: "ResultCache", key: str,
                        mode: str = "truncate") -> Path:
    """Damage one cache record; returns the segment it sits in.

    ``"truncate"`` (the second half of the entry zeroed, as a torn
    write leaves it) and ``"garbage"`` (not a record at all) overwrite
    the record's bytes in place, so its sha256 no longer checks out.
    ``"wrong_schema"`` (the same record in entry format -1) and
    ``"poisoned_payload"`` (passes the format check but cannot be
    materialized into a result) append a superseding record whose
    sha256 is valid, through ``document()`` / ``put_document()``.
    """
    if mode not in CORRUPTION_MODES:
        raise ConfigError(
            f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}",
            code="config.invalid_fault", mode=mode,
        )
    located = cache.locate(key)
    if located is None:
        raise ConfigError(f"no cache entry {key[:12]}… to corrupt",
                          code="config.invalid_fault", key=key)
    segment, offset, length = located
    if mode in ("truncate", "garbage"):
        with open(segment, "r+b") as handle:
            handle.seek(offset)
            raw = handle.read(length)
            if mode == "truncate":
                damaged = raw[: max(1, length // 2)].ljust(length, b"\0")
            else:
                damaged = b"\x00not json{{{".ljust(length, b"{")[:length]
            handle.seek(offset)
            handle.write(damaged)
        return segment
    document = cache.document(key)
    if mode == "wrong_schema":
        document["schema"] = -1
    else:  # poisoned_payload
        document["payload"] = {"bogus": True}
    cache.put_document(key, document)
    return cache.locate(key)[0]
