"""Parallel execution + content-addressed result caching for evaluation.

Every paper-scale experiment (``evaluate``, ``sweep``, ``compare``,
``search``, ``ablate``) boils down to a fan-out of independent, fully
deterministic ``(config, network, batch, library)`` simulations.  This
module turns that fan-out into an explicit job layer:

* :class:`SimTask` — one design-point simulation, SFQ or CMOS-baseline;
* :class:`ResultCache` — a content-addressed on-disk store keyed by a
  stable hash of the config, the workload's full layer content, the
  batch, the cell-library fingerprint, and a cache-schema version, so a
  warm re-run skips simulation entirely and any change to any key
  component is automatically a miss.  Unreadable or wrong-schema
  entries are quarantined into ``<root>/quarantine/`` on first
  encounter instead of being silently re-missed forever;
* :class:`JobRunner` — executes a task list serially (the default, for
  determinism-by-default) or over a ``ProcessPoolExecutor`` when
  ``jobs > 1``, consulting the cache either way — and survives the
  failures a long sweep actually hits: per-task wall-clock timeouts,
  bounded retry with backoff + jitter for transient worker failures
  (:class:`repro.core.resilience.RetryPolicy`), ``BrokenProcessPool``
  recovery that re-executes stranded tasks, graceful degradation to
  serial execution when the pool dies twice, and a
  :class:`repro.core.resilience.SweepCheckpoint` journal so a killed
  sweep resumes instead of restarting.

The payload codec runs only at a boundary.  A cache hit is decoded once;
a pool worker ships its result as a payload, decoded once in the parent;
a serial miss keeps the simulator's own result in memory and is encoded
only to be written to the cache.  The codec round-trips every field
exactly and activity materializes in sorted-unit order on every path,
so serial, parallel, warm-cache, and failure-recovered runs are
bitwise-identical (proven by ``tests/test_resilience.py`` under injected
crashes, hangs, SIGKILLs, and corrupted cache entries).

Keys are computed once per object, not once per use: configs, networks
and cell libraries keep their canonical JSON text (:mod:`repro.canonical`)
and a :class:`SimTask` keeps its key, so per-task keying cost no longer
grows with the size of the network, library and config documents.

The runner is ambient: library code calls :func:`get_runner` (a shared
serial, cache-less default) and the CLI / API install a configured one
with :func:`use_runner` or :func:`session`::

    with session(jobs=4, cache_dir="~/.cache/supernpu") as runner:
        suite = evaluate_suite()          # fans out through the runner

Cache and resilience counters are exported through the ``repro.obs``
metrics registry (``jobs.cache.hits``, ``jobs.cache.misses``,
``jobs.sim.executed``, ``jobs.retries``, ``jobs.timeouts``,
``jobs.degraded``, ``jobs.resumed``, ``jobs.cache.quarantined``, ...).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.baselines.scalesim import CMOSNPUConfig, simulate_cmos
from repro.canonical import canonical_json, kept_text
from repro.components.base import (
    DEFAULT_LINK_TECHNOLOGY,
    DEFAULT_MEMORY_TECHNOLOGY,
)
from repro.core.chaos import ChaosInjector
from repro.core.resilience import RetryPolicy, SweepCheckpoint
from repro.obs.progress import ProgressReporter
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import CacheError, ConfigError, ReproError, WorkerError
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.estimator.uarch_level import UnitEstimate
from repro.simulator.engine import simulate
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network

#: Bump whenever the simulator, the estimator, or the payload layout
#: changes meaning: old cache entries become unreachable (their keys no
#: longer match), never silently wrong.
CACHE_SCHEMA_VERSION = 1

#: Subdirectory of a cache root where damaged entries are parked.
QUARANTINE_DIR = "quarantine"


# -- stable content hashing ------------------------------------------------
#
# A key is the sha256 of one canonical (sorted-key, compact) JSON
# document.  Its large parts -- the design config, the network and the
# cell library -- are immutable records, so each renders its canonical
# text once (kept on the instance, see repro.canonical) and every key that
# contains it splices that text into the outer document.  The spliced
# text is byte-for-byte what json.dumps(sort_keys=True) makes of the whole
# document, so every key is unchanged.

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_hash(document: Any) -> str:
    """sha256 (hex) of the canonical sorted-key JSON of ``document``."""
    return _sha256(canonical_json(document))


#: Technology fields whose *default* values are omitted from config
#: signatures: a default-technology config must hash (and serialize)
#: exactly as it did before the fields existed, so every pre-registry
#: cache key, payload, and plan hash stays bitwise-identical, while any
#: non-default technology automatically changes every key.
_DEFAULT_TECHNOLOGY_FIELDS = {
    "memory_technology": DEFAULT_MEMORY_TECHNOLOGY,
    "link_technology": DEFAULT_LINK_TECHNOLOGY,
}


def config_signature(config: Union[NPUConfig, CMOSNPUConfig]) -> Dict[str, Any]:
    """The cache-relevant content of a design config (JSON-able)."""
    document = dataclasses.asdict(config)
    for field_name, default in _DEFAULT_TECHNOLOGY_FIELDS.items():
        if document.get(field_name) == default:
            del document[field_name]
    return document


def workload_signature(network: Network) -> Dict[str, Any]:
    """The workload's full content (name + every layer field).

    Editing any layer of a network — not just renaming it — must change
    the cache key, so the signature covers the complete layer tuples.
    """
    return {
        "name": network.name,
        "layers": [dataclasses.asdict(layer) for layer in network.layers],
    }


def library_fingerprint(library: CellLibrary) -> Dict[str, Any]:
    """Cache-relevant content of a cell library (technology, process, cells)."""
    return {
        "technology": library.technology.value,
        "process": dataclasses.asdict(library.process),
        "cells": {name: dataclasses.asdict(library[name]) for name in library.names},
    }


def config_text(config: Union[NPUConfig, CMOSNPUConfig]) -> str:
    """Canonical JSON of :func:`config_signature`, rendered once per config."""
    return kept_text(config, config_signature)


def workload_text(network: Network) -> str:
    """Canonical JSON of :func:`workload_signature`, rendered once per network."""
    return kept_text(network, workload_signature)


def library_text(library: Optional[CellLibrary]) -> str:
    """Canonical JSON of :func:`library_fingerprint` (``null`` for none),
    rendered once per library."""
    return "null" if library is None else kept_text(library, library_fingerprint)


# -- tasks -----------------------------------------------------------------

@dataclass(frozen=True)
class SimTask:
    """One design-point simulation: SFQ (``NPUConfig``) or CMOS baseline.

    ``library`` selects the SFQ cell library (default: calibrated RSFQ)
    and is ignored for CMOS-baseline configs, whose cycle model has no
    cell library.  A task keeps its key once computed (and ships it to
    worker processes), so lowering a plan keys each task once and the
    runner reuses that key.
    """

    config: Union[NPUConfig, CMOSNPUConfig]
    network: Network
    batch: int
    library: Optional[CellLibrary] = None
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ConfigError("batch must be positive",
                              code="config.invalid_batch", batch=self.batch)

    @property
    def is_cmos(self) -> bool:
        return not isinstance(self.config, NPUConfig)

    def resolved_library(self) -> Optional[CellLibrary]:
        if self.is_cmos:
            return None
        return self.library or library_for(Technology.RSFQ)

    def key(self) -> str:
        """Content-addressed cache key of this task."""
        if self._key is None:
            # The sorted-key document {batch, config, kind, library,
            # schema, workload}, spliced from the kept sub-texts.
            kind = "simulate_cmos" if self.is_cmos else "simulate"
            object.__setattr__(self, "_key", _sha256(
                f'{{"batch":{canonical_json(self.batch)},'
                f'"config":{config_text(self.config)},"kind":"{kind}",'
                f'"library":{library_text(self.resolved_library())},'
                f'"schema":{CACHE_SCHEMA_VERSION},'
                f'"workload":{workload_text(self.network)}}}'))
        return self._key


def _task_keys(tasks: Sequence[SimTask]) -> List[str]:
    """Each task's key: the one it already keeps (e.g. from plan lowering),
    computed here only for tasks nobody has keyed yet."""
    return [task._key or task.key() for task in tasks]


def estimate_key(config: NPUConfig, library: CellLibrary) -> str:
    """Cache key of one architecture-level estimation."""
    # The sorted-key document {config, kind, library, schema}.
    return _sha256(
        f'{{"config":{config_text(config)},"kind":"estimate",'
        f'"library":{library_text(library)},"schema":{CACHE_SCHEMA_VERSION}}}')


# -- payload codecs --------------------------------------------------------
#
# Cached payloads are plain JSON dicts; these codecs round-trip the result
# records exactly (Python's json preserves ints and floats bit-exactly),
# which is what makes warm-cache runs bitwise-identical to cold ones.

#: LayerResult's fields, all plain ints and strings: copying them is what
#: dataclasses.asdict would do, without its per-value deep copy.
_LAYER_FIELDS = tuple(f.name for f in dataclasses.fields(LayerResult))


def result_to_dict(run: SimulationResult) -> Dict[str, Any]:
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "layers": [{name: getattr(layer, name) for name in _LAYER_FIELDS}
                   for layer in run.layers],
        "activity": dict(run.activity.effective_cycles),
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    # Activity materializes in sorted-unit order, as the simulator emits
    # it, no matter how the payload was ordered: power sums fold floats in
    # iteration order, so a cache hit and a fresh run must agree on it.
    activity = data["activity"]
    return SimulationResult(
        design=data["design"],
        network=data["network"],
        batch=data["batch"],
        frequency_ghz=data["frequency_ghz"],
        layers=[LayerResult(**layer) for layer in data["layers"]],
        activity=ActivityTrace(effective_cycles={unit: activity[unit]
                                                 for unit in sorted(activity)}),
    )


def estimate_to_dict(estimate: NPUEstimate) -> Dict[str, Any]:
    # config_signature keeps default-technology payloads byte-identical
    # to pre-registry ones; estimate_from_dict refills omitted fields
    # from the NPUConfig defaults.
    return {
        "config": config_signature(estimate.config),
        "technology": estimate.technology,
        "frequency_ghz": estimate.frequency_ghz,
        "cycle_time_ps": estimate.cycle_time_ps,
        "critical_path": estimate.critical_path,
        "units": {name: dataclasses.asdict(unit) for name, unit in estimate.units.items()},
        "wiring_area_mm2": estimate.wiring_area_mm2,
        "wiring_static_power_w": estimate.wiring_static_power_w,
    }


def estimate_from_dict(data: Dict[str, Any]) -> NPUEstimate:
    # Units materialize in sorted-name order no matter how the payload
    # was ordered on disk: derived sums (e.g. ``static_power_w``) fold
    # floats in iteration order, so a cache hit (JSON written with
    # sort_keys) and a fresh estimate must agree on that order to stay
    # bitwise-identical.
    return NPUEstimate(
        config=NPUConfig(**data["config"]),
        technology=data["technology"],
        frequency_ghz=data["frequency_ghz"],
        cycle_time_ps=data["cycle_time_ps"],
        critical_path=data["critical_path"],
        units={name: UnitEstimate(**data["units"][name])
               for name in sorted(data["units"])},
        wiring_area_mm2=data["wiring_area_mm2"],
        wiring_static_power_w=data["wiring_static_power_w"],
    )


# -- the on-disk cache -----------------------------------------------------

@dataclass(frozen=True)
class CacheStats:
    """Size of an on-disk result cache."""

    entries: int
    bytes: int
    by_kind: Dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    tmp_swept: int = 0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (EPERM means alive-but-foreign)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class ResultCache:
    """Content-addressed store of simulation / estimation payloads.

    One JSON file per entry under ``root/<key[:2]>/<key>.json``; writes
    are atomic (tmp file + ``os.replace``) so concurrent runners sharing
    a cache directory never observe torn entries.  Entries that cannot
    be read back — torn writes, truncated JSON, foreign schema versions —
    are moved into ``root/quarantine/`` the first time they are seen, so
    a damaged entry costs exactly one miss, not one per run forever.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(
                f"cannot create cache directory {self.root}: {error}",
                code="cache.unwritable", hint="pick a writable --cache-dir",
                path=str(self.root),
            ) from error
        # A writer SIGKILLed between tmp-write and os.replace leaks its
        # tmp file; a past process cannot clean up after itself, so every
        # cache open sweeps on behalf of the dead.
        try:
            self.sweep_orphan_tmp()
        except OSError:
            pass

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or None on miss (quarantining bad entries)."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self.quarantine(key, reason="unreadable")
            return None
        try:
            document = json.loads(text)
        except ValueError:
            self.quarantine(key, reason="corrupt")
            return None
        if not isinstance(document, dict) or document.get("schema") != CACHE_SCHEMA_VERSION:
            self.quarantine(key, reason="wrong-schema")
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self.quarantine(key, reason="wrong-schema")
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any], kind: str = "simulate") -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "created_unix": time.time(),
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as error:
            # Never litter the cache dir with orphaned tmp files.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CacheError(
                f"failed to write cache entry {key[:12]}…: {error}",
                code="cache.write_failed",
                hint="check free space and permissions on the cache directory",
                path=str(path),
            ) from error

    def quarantine(self, key: str, reason: str = "corrupt") -> Optional[Path]:
        """Park a damaged entry under ``quarantine/``; returns its new path."""
        path = self.path_for(key)
        if not path.exists():
            return None
        pen = self.root / QUARANTINE_DIR
        destination = pen / f"{reason}-{path.name}"
        try:
            pen.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            try:  # quarantine unavailable: deleting still stops the re-miss loop
                path.unlink()
            except OSError:
                return None
            return None
        obs.counter("jobs.cache.quarantined").inc()
        return destination

    def _entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if len(path.parent.name) == 2:  # hash buckets only, not quarantine/
                yield path

    def _quarantined(self) -> List[Path]:
        pen = self.root / QUARANTINE_DIR
        if not pen.is_dir():
            return []
        return sorted(p for p in pen.iterdir() if p.is_file())

    def sweep_orphan_tmp(self, max_age_s: float = 3600.0) -> int:
        """Remove tmp files orphaned by dead writers; returns how many.

        Writes go through ``<entry>.tmp.<pid>`` + ``os.replace``; a writer
        SIGKILLed in between leaves the tmp file forever (its own
        unlink-on-error never runs).  A tmp file is an orphan when its
        writer pid no longer exists, or — covering recycled pids and
        mangled names — when it is older than ``max_age_s``.  Fresh tmp
        files of live pids are in-flight writes and are left alone.
        """
        removed = 0
        now = time.time()
        for path in list(self.root.glob("*/*.tmp.*")):
            if len(path.parent.name) != 2:  # hash buckets only
                continue
            try:
                pid = int(path.name.rsplit(".", 1)[-1])
            except ValueError:
                pid = -1
            try:
                age_s = now - path.stat().st_mtime
            except OSError:
                continue  # already gone (another sweeper won the race)
            if (pid > 0 and _pid_alive(pid)) and age_s <= max_age_s:
                continue
            if pid <= 0 and age_s <= max_age_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            obs.counter("jobs.cache.tmp_swept").inc(removed)
        return removed

    def stats(self) -> CacheStats:
        swept = self.sweep_orphan_tmp()
        entries = 0
        total_bytes = 0
        by_kind: Dict[str, int] = {}
        for path in self._entries():
            try:
                raw = path.read_bytes()  # one read serves both size and kind
            except OSError:
                continue
            entries += 1
            total_bytes += len(raw)
            try:
                kind = json.loads(raw).get("kind", "?")
            except ValueError:
                kind = "corrupt"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return CacheStats(entries=entries, bytes=total_bytes, by_kind=by_kind,
                          quarantined=len(self._quarantined()), tmp_swept=swept)

    def clear(self) -> int:
        """Delete every entry (quarantined included); returns how many."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        for path in self._quarantined():
            path.unlink()
            removed += 1
        for bucket in sorted(self.root.glob("*")):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed


# -- task execution (top-level so it pickles into worker processes) --------

#: Per-process memo of architecture estimates, so a process handed many
#: tasks for the same design computes its clock model once.  Keyed by the
#: canonical texts that estimate_key hashes: the same content, without
#: re-hashing it on every task.
_WORKER_ESTIMATES: Dict[Tuple[str, str], NPUEstimate] = {}


def _estimate_for(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    memo_key = (config_text(config), library_text(library))
    cached = _WORKER_ESTIMATES.get(memo_key)
    if cached is None:
        cached = _WORKER_ESTIMATES[memo_key] = estimate_npu(config, library)
    return cached


def _execute(task: SimTask) -> Tuple[SimulationResult, float]:
    """Run one task in this process; returns (result, wall seconds)."""
    start = time.perf_counter()
    if task.is_cmos:
        run = simulate_cmos(task.config, task.network, batch=task.batch)
    else:
        library = task.resolved_library()
        run = simulate(
            task.config, task.network, batch=task.batch,
            estimate=_estimate_for(task.config, library),
        )
    return run, time.perf_counter() - start


@dataclass(frozen=True)
class WorkerObsSpec:
    """What observability each pool worker should collect.

    Built by the parent from its own live obs state (is tracing on? is a
    hotspot profiler running?) and pickled along with every submitted
    task.  Workers run a private obs session per task and leave a JSON
    sidecar in ``sidecar_dir`` keyed by the task's content hash; the
    parent merges all sidecars after the parallel phase and deletes the
    directory.  Everything is best-effort: a worker that cannot write
    its sidecar still returns its result normally.
    """

    sidecar_dir: str
    metrics: bool = False
    tracing: bool = False
    hotspot_mode: Optional[str] = None
    hotspot_hz: float = 97.0

    @property
    def collects_anything(self) -> bool:
        return self.metrics or self.tracing or self.hotspot_mode is not None


def _write_obs_sidecar(spec: WorkerObsSpec, key: str,
                       counters: Dict[str, Any],
                       spans: List[Dict[str, Any]],
                       profile: Optional[Any]) -> None:
    """Atomically write one worker's per-task obs sidecar (best-effort)."""
    try:
        document = {
            "kind": "worker-obs",
            "schema": 1,
            "key": key,
            "pid": os.getpid(),
            "counters": counters,
            "spans": spans,
            "hotspot": None if profile is None else profile.to_dict(),
        }
        path = Path(spec.sidecar_dir) / f"{key}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, path)
    except Exception:
        pass  # observability must never fail the task


def _execute_observed(task: SimTask, chaos: Optional[ChaosInjector],
                      spec: WorkerObsSpec) -> Tuple[SimulationResult, float]:
    """Run one task under a private worker obs session + sidecar.

    The session is reset before and after, so the sidecar holds exactly
    this task's spans and counters even when the worker process is
    reused for many tasks.  The sidecar is written only on success —
    a retried task contributes once, under its stable content key.
    """
    from repro.obs.hotspot import HotspotProfiler
    from repro.obs.tracing import serialize_spans

    obs.disable()
    obs.reset()
    obs.enable(metrics=spec.metrics, tracing=spec.tracing)
    profiler = None
    if spec.hotspot_mode is not None:
        try:
            profiler = HotspotProfiler(mode=spec.hotspot_mode,
                                       sample_hz=spec.hotspot_hz).start()
        except Exception:
            profiler = None
    try:
        if chaos is not None:
            chaos.fire(task.key())
        run, seconds = _execute(task)
        profile = profiler.stop() if profiler is not None else None
        snapshot = obs.metrics().snapshot() if spec.metrics else {}
        spans = serialize_spans(obs.tracer()) if spec.tracing else []
    finally:
        if profiler is not None:
            profiler.stop()
        obs.disable()
        obs.reset()
    _write_obs_sidecar(spec, task.key(), snapshot.get("counters", {}), spans, profile)
    return run, seconds


def _execute_task(task: SimTask,
                  chaos: Optional[ChaosInjector] = None,
                  obs_spec: Optional[WorkerObsSpec] = None,
                  ) -> Tuple[SimulationResult, float]:
    """Optional chaos, then the simulation, in this process."""
    if obs_spec is not None and obs_spec.collects_anything:
        return _execute_observed(task, chaos, obs_spec)
    if chaos is not None:
        chaos.fire(task.key())
    return _execute(task)


def _execute_remote(task: SimTask,
                    chaos: Optional[ChaosInjector] = None,
                    obs_spec: Optional[WorkerObsSpec] = None,
                    ) -> Tuple[Dict[str, Any], float]:
    """The unit submitted to pool workers: the result crosses the process
    boundary as its serialized payload."""
    run, seconds = _execute_task(task, chaos, obs_spec)
    return result_to_dict(run), seconds


# -- the runner ------------------------------------------------------------

@dataclass
class RunnerStats:
    """Cumulative accounting of one runner's lifetime."""

    tasks: int = 0
    hits: int = 0
    misses: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    degraded: int = 0
    resumed: int = 0
    task_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.tasks if self.tasks else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Sum of per-task sim time over elapsed wall time (1.0 serial)."""
        if self.elapsed_seconds <= 0:
            return 1.0
        return self.task_seconds / self.elapsed_seconds

    def describe(self) -> str:
        line = (
            f"{self.tasks} tasks: {self.hits} cache hits / {self.misses} misses "
            f"({100 * self.hit_rate:.1f}% hit rate), {self.executed} simulated"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.timeouts:
            line += f", {self.timeouts} timeouts"
        if self.resumed:
            line += f", {self.resumed} resumed from checkpoint"
        if self.degraded:
            line += " [degraded to serial]"
        return line


class JobRunner:
    """Executes :class:`SimTask` lists with parallelism, caching, recovery.

    ``jobs=1`` (the default) runs everything in-process; ``jobs > 1``
    fans cache misses out over a ``ProcessPoolExecutor``.  Task order is
    preserved, and the output is identical regardless of ``jobs``, cache
    temperature, or how many failures were recovered along the way.

    Fault tolerance:

    * transient worker failures are retried per ``retry`` (exponential
      backoff + jitter); taxonomy errors (:class:`repro.errors.ReproError`)
      are deterministic and never retried;
    * ``timeout_s`` bounds each task's wall clock (parallel mode): a hung
      task's pool is abandoned (its workers killed), the stranded tasks
      are re-executed, and the hang counts against the task's retry budget;
    * a broken pool (e.g. a SIGKILLed worker) is rebuilt once; if the
      pool dies a second time the runner degrades to serial execution and
      finishes the sweep in-process (``jobs.degraded``);
    * completed tasks are written to the cache and the ``checkpoint``
      journal *immediately*, so a killed run resumes from where it died
      (``jobs.resumed`` counts journaled tasks served from cache).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout_s: Optional[float] = None,
                 checkpoint: Optional[SweepCheckpoint] = None,
                 chaos: Optional[ChaosInjector] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        if jobs < 1:
            raise ConfigError("jobs must be >= 1", code="config.invalid_jobs",
                              jobs=jobs)
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError("timeout_s must be positive",
                              code="config.invalid_timeout", timeout_s=timeout_s)
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.checkpoint = checkpoint
        self.chaos = chaos
        self.progress = progress
        self.stats = RunnerStats()
        self._estimates: Dict[str, NPUEstimate] = {}

    def _emit(self, kind: str, key: Optional[str] = None, attempt: int = 0) -> None:
        """Forward one lifecycle event to the progress reporter, if any.

        Results never depend on this: the reporter writes only to its
        own stream (stderr) and to the obs registries, so a sweep is
        bitwise-identical with progress on or off.
        """
        if self.progress is not None:
            self.progress.emit(kind, key=key, attempt=attempt)

    # -- simulations --------------------------------------------------
    def run(self, tasks: Sequence[SimTask]) -> "RunResults":
        """Run every task (cache-first), preserving task order."""
        started = time.perf_counter()
        if self.progress is not None:
            self.progress.begin(len(tasks))
        keys = _task_keys(tasks)
        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        cached = [False] * len(tasks)
        pending: List[int] = []
        resumed = 0
        try:
            for index, key in enumerate(keys):
                result = self._cached_result(key)
                if result is None:
                    pending.append(index)
                    self._emit("queued", key)
                    continue
                results[index] = result
                cached[index] = True
                self._emit("cached", key)
                if self.checkpoint is not None and key in self.checkpoint:
                    resumed += 1
            hits = len(tasks) - len(pending)

            task_seconds = 0.0
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    task_seconds = self._run_parallel(tasks, keys, results, pending)
                else:
                    task_seconds = self._run_serial(tasks, keys, results, pending)
        finally:
            # Close the live line even when the sweep raises, so the
            # error message starts on a fresh line.
            if self.progress is not None:
                self.progress.done()

        elapsed = time.perf_counter() - started
        self._account(len(tasks), hits, len(pending), task_seconds, elapsed, resumed)
        return RunResults(results, cached)

    def run_one(self, task: SimTask) -> SimulationResult:
        return self.run([task])[0]

    # -- cache interaction --------------------------------------------
    def _cached_result(self, key: str) -> Optional[SimulationResult]:
        """The cached result, decoded once, or None (quarantining poison)."""
        if self.cache is None:
            return None
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return result_from_dict(payload)
        except Exception:
            # Well-formed JSON, wrong shape: poison, not a result.
            self.cache.quarantine(key, reason="poisoned-payload")
            return None

    def _finish_task(self, index: int, key: str, task: SimTask,
                     result: SimulationResult,
                     results: List[Optional[SimulationResult]],
                     payload: Optional[Dict[str, Any]] = None) -> None:
        """Record one completed task: result slot, cache, journal.

        ``payload`` is the serialized result when it already exists (a
        pool worker shipped it); otherwise it is encoded here, and only
        when there is a cache to write it to.
        """
        results[index] = result
        if self.cache is not None:
            kind = "simulate_cmos" if task.is_cmos else "simulate"
            self.cache.put(key, payload if payload is not None else result_to_dict(result),
                           kind=kind)
        if self.checkpoint is not None:
            self.checkpoint.mark(key)

    # -- serial execution (also the degraded path) --------------------
    def _run_serial(self, tasks: Sequence[SimTask], keys: List[str],
                    results: List[Optional[SimulationResult]],
                    pending: Sequence[int]) -> float:
        total = 0.0
        for index in pending:
            self._emit("started", keys[index])
            result, seconds = self._execute_with_retry(tasks[index], keys[index])
            total += seconds
            self._finish_task(index, keys[index], tasks[index], result, results)
            self._emit("finished", keys[index])
        return total

    def _execute_with_retry(self, task: SimTask, key: str,
                            failures: int = 0) -> Tuple[SimulationResult, float]:
        """In-process execution under the retry policy."""
        while True:
            try:
                return _execute_task(task, self.chaos)
            except ReproError:
                raise  # deterministic: retrying cannot change the outcome
            except Exception as error:
                failures += 1
                if failures > self.retry.max_retries:
                    raise WorkerError(
                        f"task {key[:12]}… failed after {failures} attempts: {error}",
                        code="worker.retries_exhausted",
                        hint="transient failures exhausted the retry budget; "
                             "see --retries",
                        task=key, attempts=failures,
                    ) from error
                self._note_retry(key, error)
                time.sleep(self.retry.delay_s(failures))

    # -- parallel execution -------------------------------------------
    def _run_parallel(self, tasks: Sequence[SimTask], keys: List[str],
                      results: List[Optional[SimulationResult]],
                      pending: Sequence[int]) -> float:
        total_seconds = 0.0
        workers = min(self.jobs, len(pending))
        queue: Deque[Tuple[int, int]] = deque((index, 0) for index in pending)
        remaining = len(pending)
        obs_spec = self._worker_obs_spec()
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=workers)
        pool_deaths = 0
        inflight: Dict[Future, Tuple[int, int, Optional[float]]] = {}
        try:
            while remaining:
                if pool is None:
                    # Degraded: finish the sweep in-process, deterministically.
                    while queue:
                        index, failures = queue.popleft()
                        self._emit("started", keys[index], attempt=failures)
                        result, seconds = self._execute_with_retry(
                            tasks[index], keys[index], failures=failures)
                        total_seconds += seconds
                        self._finish_task(index, keys[index], tasks[index],
                                          result, results)
                        self._emit("finished", keys[index])
                        remaining -= 1
                    break

                broken = False
                while queue and len(inflight) < workers:
                    index, failures = queue.popleft()
                    try:
                        future = pool.submit(_execute_remote, tasks[index], self.chaos,
                                             obs_spec)
                    except BrokenExecutor:
                        # The pool died after the last wait returned: this
                        # task never started, so it is stranded, not failed.
                        queue.appendleft((index, failures))
                        broken = True
                        break
                    deadline = (time.monotonic() + self.timeout_s
                                if self.timeout_s is not None else None)
                    inflight[future] = (index, failures, deadline)
                    self._emit("started", keys[index], attempt=failures)

                done, _ = wait(set(inflight), timeout=self._wait_timeout(inflight),
                               return_when=FIRST_COMPLETED)
                fatal: Optional[WorkerError] = None
                for future in done:
                    index, failures, _ = inflight.pop(future)
                    try:
                        payload, seconds = future.result()
                    except BrokenExecutor:
                        # The pool died under this task (SIGKILLed worker,
                        # OOM-killed child, ...).  The task is stranded, not
                        # guilty-by-proof: re-queue without a retry penalty;
                        # the pool-death counter bounds the recovery loop.
                        queue.appendleft((index, failures))
                        broken = True
                    except ReproError:
                        raise
                    except Exception as error:
                        failures += 1
                        if failures > self.retry.max_retries:
                            raise WorkerError(
                                f"task {keys[index][:12]}… failed after "
                                f"{failures} attempts: {error}",
                                code="worker.retries_exhausted",
                                hint="transient failures exhausted the retry "
                                     "budget; see --retries",
                                task=keys[index], attempts=failures,
                            ) from error
                        self._note_retry(keys[index], error)
                        time.sleep(self.retry.delay_s(failures))
                        queue.append((index, failures))
                    else:
                        total_seconds += seconds
                        self._finish_task(index, keys[index], tasks[index],
                                          result_from_dict(payload), results,
                                          payload=payload)
                        self._emit("finished", keys[index])
                        remaining -= 1

                if not broken and self.timeout_s is not None:
                    now = time.monotonic()
                    for future, (index, failures, deadline) in list(inflight.items()):
                        if deadline is None or now < deadline or future.done():
                            continue
                        # A hung task: the pool must be abandoned (a running
                        # future cannot be cancelled), and the hang counts
                        # against this task's retry budget.
                        inflight.pop(future)
                        failures += 1
                        self.stats.timeouts += 1
                        obs.counter("jobs.timeouts").inc()
                        self._emit("timeout", keys[index], attempt=failures)
                        if failures > self.retry.max_retries:
                            fatal = WorkerError(
                                f"task {keys[index][:12]}… exceeded the "
                                f"{self.timeout_s:g}s timeout {failures} times",
                                code="worker.timeout",
                                hint="raise --task-timeout or investigate the hang",
                                task=keys[index], attempts=failures,
                            )
                            break
                        queue.append((index, failures))
                        broken = True

                if broken or fatal is not None:
                    for future, (index, failures, _) in inflight.items():
                        queue.append((index, failures))  # stranded, not failed
                    inflight.clear()
                    self._abandon_pool(pool)
                    pool = None
                    if fatal is not None:
                        raise fatal
                    pool_deaths += 1
                    self.stats.pool_restarts += 1
                    obs.counter("jobs.pool_restarts").inc()
                    self._emit("pool_restart")
                    if pool_deaths >= 2:
                        # The pool is not trustworthy; finish serially.
                        self.stats.degraded += 1
                        obs.counter("jobs.degraded").inc()
                        self._emit("degraded")
                    else:
                        pool = ProcessPoolExecutor(
                            max_workers=min(workers, max(1, remaining)))
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            self._merge_worker_obs(obs_spec)
        return total_seconds

    # -- worker observability ------------------------------------------
    @staticmethod
    def _worker_obs_spec() -> Optional["WorkerObsSpec"]:
        """A spec mirroring the parent's live obs state, or None when off.

        None (the common case) keeps the worker path allocation-free;
        otherwise a fresh sidecar directory is created for this parallel
        phase and torn down by :meth:`_merge_worker_obs`.
        """
        from repro.obs import hotspot as hotspot_mod

        profiler = hotspot_mod.active_profiler()
        want_metrics = obs.metrics().enabled
        want_tracing = obs.tracer().enabled
        if not (want_metrics or want_tracing or profiler is not None):
            return None
        sidecar_dir = tempfile.mkdtemp(prefix="supernpu-worker-obs-")
        return WorkerObsSpec(
            sidecar_dir=sidecar_dir,
            metrics=want_metrics,
            tracing=want_tracing,
            hotspot_mode=None if profiler is None else profiler.mode,
            hotspot_hz=profiler.sample_hz if profiler is not None else 97.0,
        )

    def _merge_worker_obs(self, spec: Optional["WorkerObsSpec"]) -> None:
        """Fold every worker sidecar into the parent obs state.

        Counters come back prefixed ``jobs.worker.`` (so parent-side and
        worker-side accounting stay distinguishable), spans land in a
        per-PID lane of the parent's Chrome trace, and hotspot samples
        merge into the active profiler.  Unreadable sidecars are skipped;
        the sidecar directory is always removed.
        """
        if spec is None:
            return
        from repro.obs import hotspot as hotspot_mod

        sidecar_dir = Path(spec.sidecar_dir)
        try:
            merged = 0
            pids = set()
            for path in sorted(sidecar_dir.glob("*.json")):
                try:
                    document = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    continue
                if not isinstance(document, dict) or document.get("kind") != "worker-obs":
                    continue
                pid = int(document.get("pid", 0))
                pids.add(pid)
                merged += 1
                for name, value in (document.get("counters") or {}).items():
                    obs.counter(f"jobs.worker.{name}").add(value)
                spans = document.get("spans") or []
                if spans:
                    obs.tracer().absorb_serialized(spans, pid=pid)
                hotspot_doc = document.get("hotspot")
                if hotspot_doc:
                    hotspot_mod.absorb(hotspot_doc)
            if merged:
                obs.counter("jobs.worker.sidecars").add(merged)
                obs.gauge("jobs.worker.pids").set(len(pids))
        finally:
            shutil.rmtree(sidecar_dir, ignore_errors=True)

    def _wait_timeout(self, inflight: Dict[Future, Tuple[int, int, Optional[float]]]
                      ) -> Optional[float]:
        """How long ``wait`` may block before the next deadline check."""
        deadlines = [deadline for (_, _, deadline) in inflight.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, hung or dead workers included."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _note_retry(self, key: str, error: Exception) -> None:
        self.stats.retries += 1
        obs.counter("jobs.retries").inc()
        self._emit("retried", key)

    # -- estimates ----------------------------------------------------
    def estimate(self, config: NPUConfig, library: Optional[CellLibrary] = None) -> NPUEstimate:
        """Architecture-level estimate, memoized in-process and on disk."""
        return self.lookup_estimate(config, library)[0]

    def lookup_estimate(self, config: NPUConfig, library: Optional[CellLibrary] = None,
                        ) -> Tuple[NPUEstimate, bool]:
        """:meth:`estimate` plus whether it was served without computing
        (from this runner's memo or the on-disk cache)."""
        library = library or library_for(Technology.RSFQ)
        key = estimate_key(config, library)
        cached = self._estimates.get(key)
        if cached is not None:
            return cached, True
        payload = self.cache.get(key) if self.cache is not None else None
        if payload is not None:
            obs.counter("jobs.estimate_cache.hits").inc()
            estimate = estimate_from_dict(payload)
        else:
            obs.counter("jobs.estimate_cache.misses").inc()
            estimate = estimate_npu(config, library)
            # Units in sorted-name order, as estimate_from_dict makes them.
            estimate.units = {name: estimate.units[name] for name in sorted(estimate.units)}
            if self.cache is not None:
                self.cache.put(key, estimate_to_dict(estimate), kind="estimate")
        self._estimates[key] = estimate
        return estimate, payload is not None

    # -- accounting ---------------------------------------------------
    def _account(self, tasks: int, hits: int, executed: int,
                 task_seconds: float, elapsed: float, resumed: int = 0) -> None:
        self.stats.tasks += tasks
        self.stats.hits += hits
        self.stats.misses += executed
        self.stats.executed += executed
        self.stats.resumed += resumed
        self.stats.task_seconds += task_seconds
        self.stats.elapsed_seconds += elapsed
        obs.counter("jobs.tasks").add(tasks)
        obs.counter("jobs.cache.hits").add(hits)
        obs.counter("jobs.cache.misses").add(executed)
        obs.counter("jobs.sim.executed").add(executed)
        if resumed:
            obs.counter("jobs.resumed").add(resumed)
        obs.gauge("jobs.workers").set(self.jobs)
        obs.histogram("jobs.batch_seconds").observe(elapsed)
        if executed and elapsed > 0:
            obs.gauge("jobs.parallel.speedup").set(task_seconds / elapsed)


class RunResults(List[SimulationResult]):
    """:meth:`JobRunner.run`'s results in task order, plus ``cached[i]``:
    whether the cache served task ``i`` (False: it was simulated)."""

    def __init__(self, results: Sequence[SimulationResult], cached: Sequence[bool]) -> None:
        super().__init__(results)
        self.cached = list(cached)


# -- the ambient runner ----------------------------------------------------

_DEFAULT_RUNNER = JobRunner()
_ACTIVE: List[JobRunner] = []


def get_runner() -> JobRunner:
    """The innermost installed runner, or the shared serial default."""
    return _ACTIVE[-1] if _ACTIVE else _DEFAULT_RUNNER


@contextmanager
def use_runner(runner: JobRunner) -> Iterator[JobRunner]:
    """Install ``runner`` as the ambient runner for the enclosed block."""
    _ACTIVE.append(runner)
    try:
        yield runner
    finally:
        _ACTIVE.pop()


@contextmanager
def session(jobs: int = 1, cache_dir: Optional[Union[str, Path]] = None,
            cache: Optional[ResultCache] = None,
            retry: Optional[RetryPolicy] = None,
            timeout_s: Optional[float] = None,
            checkpoint: Optional[SweepCheckpoint] = None,
            checkpoint_path: Optional[Union[str, Path]] = None,
            chaos: Optional[ChaosInjector] = None,
            progress: Optional[ProgressReporter] = None) -> Iterator[JobRunner]:
    """Build a runner from knobs and install it (the CLI's entry point).

    A checkpoint journal given here is cleared when the block exits
    cleanly (the sweep finished; nothing to resume) and kept when the
    block raises or the process dies (the next session resumes from it).
    """
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if checkpoint is None and checkpoint_path is not None:
        checkpoint = SweepCheckpoint(checkpoint_path)
    runner = JobRunner(jobs=jobs, cache=cache, retry=retry, timeout_s=timeout_s,
                       checkpoint=checkpoint, chaos=chaos, progress=progress)
    with use_runner(runner):
        yield runner
    if checkpoint is not None:
        checkpoint.clear()
