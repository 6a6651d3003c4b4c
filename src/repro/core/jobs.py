"""Parallel execution + content-addressed result caching for evaluation.

Every paper-scale experiment (``evaluate``, ``sweep``, ``compare``,
``search``, ``ablate``) boils down to a fan-out of independent, fully
deterministic ``(config, network, batch, library)`` simulations.  This
module turns that fan-out into an explicit job layer:

* :class:`SimTask` — one design-point simulation, SFQ or CMOS-baseline;
* :class:`ResultCache` — a content-addressed on-disk store (one
  append-only segment file per writer) keyed by a
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
  recovery that re-executes stranded tasks, and graceful degradation to
  serial execution when the pool dies twice.  Each task is written to
  the cache as soon as it completes and every run reads the cache first,
  so the cache is also the resume record: a killed sweep's finished
  tasks are hits on the next run.

The payload codec runs only at a boundary.  A cache hit is decoded once;
a pool worker ships its result as a payload, decoded once in the parent;
a serial miss keeps the simulator's own result in memory and is encoded
only to be written to the cache.  The codec round-trips every field
exactly and activity materializes in sorted-unit order on every path,
so serial, parallel, warm-cache, and failure-recovered runs are
bitwise-identical (proven by ``tests/test_resilience.py`` under injected
crashes, hangs, SIGKILLs, and corrupted cache entries).

In-process runs charge the pending SFQ tasks that share a network
together, one (designs x layers) array pass per group
(:func:`repro.simulator.engine.charge_designs`), when the group's first task
comes up; each task then builds its own result with one ``simulate`` call.
Chaos, retries, events and cache writes stay per task, in task order.

Keys are computed once per object, not once per use: configs, networks
and cell libraries keep their canonical JSON text (:mod:`repro.canonical`)
and a :class:`SimTask` keeps its key, so per-task keying cost no longer
grows with the size of the network, library and config documents.

The runner is ambient and per thread: library code calls :func:`get_runner`
(a shared serial, cache-less default) and the CLI / API / serve install
a configured one for the calling thread with :func:`use_runner` or :func:`session`::

    with session(jobs=4, cache_dir="~/.cache/supernpu") as runner:
        suite = evaluate_suite()          # fans out through the runner

Cache and resilience counters are exported through the ``repro.obs``
metrics registry (``jobs.cache.hits``, ``jobs.cache.misses``,
``jobs.sim.executed``, ``jobs.retries``, ``jobs.timeouts``,
``jobs.degraded``, ``jobs.cache.quarantined``, ...).  A pool worker
returns its task's counters, spans and host profile with the result,
and the parent folds them in under ``jobs.worker.``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import threading
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.baselines.scalesim import CMOSNPUConfig, simulate_cmos
from repro.canonical import canonical_json, kept_text
from repro.components.base import (
    DEFAULT_LINK_TECHNOLOGY,
    DEFAULT_MEMORY_TECHNOLOGY,
)
from repro.core.chaos import ChaosInjector
from repro.core.resilience import RetryPolicy
from repro.obs.progress import ProgressReporter
from repro.device.cells import CellLibrary, Technology, library_for, library_text
from repro.device.cells import library_fingerprint  # noqa: F401 (re-exported for plan)
from repro.errors import CacheError, ConfigError, ReproError, WorkerError
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.estimator.uarch_level import UnitEstimate
from repro.simulator.engine import DesignCharges, charge_designs, simulate
from repro.simulator.results import LAYER_FIELDS, ActivityTrace, SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.layers import check_batch
from repro.workloads.models import Network

#: Bump whenever the simulator or the estimator changes meaning: every
#: key changes, so old cache entries become unreachable, never silently
#: wrong.  It hashes into every key (and so into plan hashes).
CACHE_SCHEMA_VERSION = 1

#: Bump whenever the on-disk entry layout changes (e.g. columnar layers):
#: keys stay the same, and an entry written in another layout is
#: quarantined as ``wrong-schema`` on first read, costing one miss.
#: Written as each entry document's ``"schema"``.
CACHE_FORMAT_VERSION = 2

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


def config_text(config: Union[NPUConfig, CMOSNPUConfig]) -> str:
    """Canonical JSON of :func:`config_signature`, rendered once per config."""
    return kept_text(config, config_signature)


def workload_text(network: Network) -> str:
    """Canonical JSON of :func:`workload_signature`, rendered once per network."""
    return kept_text(network, workload_signature)


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
        check_batch(self.batch)
        if type(self.batch) is not int:  # a numpy integer: key it as the int it is
            object.__setattr__(self, "batch", int(self.batch))

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

def result_to_dict(run: SimulationResult) -> Dict[str, Any]:
    # Layers are stored as the result's columns, one list per LayerResult
    # field: a row layout would spell out every field name once per layer.
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "layers": run.columns,
        "activity": dict(run.activity.effective_cycles),
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    layers = data["layers"]
    if not isinstance(layers, dict) or layers.keys() != set(LAYER_FIELDS):
        raise ValueError("layer columns are not LayerResult's fields")
    # zip would silently truncate ragged columns to the shortest.
    if not all(type(column) is list for column in layers.values()) or \
            len({len(column) for column in layers.values()}) != 1:
        raise ValueError("layer columns are not lists of one length")
    # The constructor's TypeError rejects columns that do not sum to ints.
    # Activity materializes in sorted-unit order, as the simulator emits
    # it, no matter how the payload was ordered: power sums fold floats in
    # iteration order, so a cache hit and a fresh run must agree on it.
    activity = data["activity"]
    return SimulationResult(
        design=data["design"],
        network=data["network"],
        batch=data["batch"],
        frequency_ghz=data["frequency_ghz"],
        columns=layers,
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
    #: Torn segment tails of dead writers this cache handle cut back.
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


#: Subdirectory of a cache root holding the append-only segment files.
SEGMENTS_DIR = "segments"

#: Longest header line a scan looks for; real ones are under 200 bytes.
_HEADER_MAX = 256

#: Bytes a segment scan reads at a time; the scan keeps no more than this.
_SCAN_CHUNK = 1 << 16

#: Most segment descriptors one cache handle keeps open.
_MAX_FDS = 32

#: Where a record's entry document sits: (segment name, offset, length,
#: sha256 digest).  The (segment, offset) pair also names the record in a
#: tombstone.
_Entry = Tuple[str, int, int, bytes]


def _scan_segment(fd: int, start: int, size: int,
                  ) -> Tuple[List[Tuple[str, int, int, bytes]],
                             List[Tuple[str, str, int]], int]:
    """Parse the whole records and tombstones in ``[start, size)`` of a segment.

    Returns ``(records, tombstones, end)``: records as ``(key, offset,
    length, sha256 digest)`` of their entry documents, tombstones as
    ``(key, segment, offset)``, and the offset just past the last whole
    frame.  The scan stops at the first torn or malformed frame.
    """
    records: List[Tuple[str, int, int, bytes]] = []
    tombstones: List[Tuple[str, str, int]] = []
    chunk, base, pos = b"", start, start
    while pos < size:
        if pos + _HEADER_MAX > base + len(chunk) and base + len(chunk) < size:
            chunk, base = os.pread(fd, _SCAN_CHUNK, pos), pos
        at = pos - base
        newline = chunk.find(b"\n", at, at + _HEADER_MAX)
        if newline < 0:
            break
        fields = chunk[at:newline].decode("ascii", "replace").split(" ")
        if len(fields) == 4 and fields[0] == "-" and fields[3].isdigit():
            tombstones.append((fields[1], fields[2], int(fields[3])))
            pos = base + newline + 1
            continue
        if len(fields) != 3 or not fields[1].isdigit() or len(fields[2]) != 64:
            break
        body = base + newline + 1
        end = body + int(fields[1]) + 1
        if end > size:
            break
        if end - 1 >= base + len(chunk):
            chunk, base = os.pread(fd, _SCAN_CHUNK, end - 1), end - 1
        if chunk[end - 1 - base:end - base] != b"\n":
            break
        try:
            sha = bytes.fromhex(fields[2])
        except ValueError:
            break
        records.append((fields[0], body, end - 1 - body, sha))
        pos = end
    return records, tombstones, pos


def _close_fds(fds: Dict[str, int]) -> None:
    for fd in fds.values():
        try:
            os.close(fd)
        except OSError:
            pass
    fds.clear()


class ResultCache:
    """Content-addressed store of simulation / estimation payloads.

    Entries live in append-only segment files, ``root/segments/<pid>-
    <token>.seg``: each handle opens one on its first put and appends
    every entry to it as one framed record, a header line ``<key>
    <length> <sha256>\\n``, the entry document, then ``\\n``.  No index
    is stored: opening a cache scans the segments' headers into an
    in-memory index, and a miss rescans the segments of live writers for
    records written since.

    A record whose sha256, JSON or entry format
    (:data:`CACHE_FORMAT_VERSION`) does not check out is copied to
    ``root/quarantine/<reason>-<key>.json`` the first time it is read,
    and a tombstone line ``- <key> <segment> <offset>\\n``, appended to
    the reader's own segment, keeps every later scan from indexing it
    again, so a damaged entry costs exactly one miss, not one per run
    forever.  A writer killed mid-append leaves a torn last record; scans
    stop before it, and the first handle to look after the writer died
    cuts it off.  Entries of the older one-file-per-entry layout are not
    read.  Threads may share a handle, and processes a directory.
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
        self._segments = os.path.join(str(self.root), SEGMENTS_DIR)
        self._lock = threading.Lock()
        self._index: Dict[str, _Entry] = {}
        self._dead: Set[Tuple[str, int]] = set()
        self._scanned: Dict[str, int] = {}  # segment -> end of its last whole frame
        self._live: Set[str] = set()  # foreign segments whose writer was alive
        self._fds: Dict[str, int] = {}
        self._writer: Optional[str] = None  # this handle's own segment
        self._writer_pid = 0
        self._end = 0
        self._swept = 0
        weakref.finalize(self, _close_fds, self._fds)
        with self._lock:
            self._refresh()

    def close(self) -> None:
        """Close every segment and forget the index; the next lookup
        rescans the segments."""
        with self._lock:
            self._forget()

    # -- segments (every helper here runs with the lock held) ----------
    def _forget(self) -> None:
        _close_fds(self._fds)
        self._writer = None
        self._index.clear()
        self._dead.clear()
        self._scanned.clear()
        self._live.clear()

    def _fd(self, name: str) -> int:
        fd = self._fds.get(name)
        if fd is None:
            fd = os.open(os.path.join(self._segments, name), os.O_RDONLY)
            if len(self._fds) >= _MAX_FDS:
                victim = next(n for n in self._fds if n != self._writer)
                os.close(self._fds.pop(victim))
            self._fds[name] = fd
        return fd

    def _refresh(self) -> None:
        """Index the records written since the last look.

        Stats only new segments and those of live writers other than this
        handle.  A dead writer's segment is cut back to its last whole
        record.
        """
        try:
            names = os.listdir(self._segments)
        except FileNotFoundError:
            return
        records: List[Tuple[str, _Entry]] = []
        tombstones: List[Tuple[str, str, int]] = []
        for name in names:
            if (not name.endswith(".seg") or name == self._writer
                    or (name in self._scanned and name not in self._live)):
                continue
            try:
                alive = _pid_alive(int(name.split("-", 1)[0]))
            except ValueError:
                continue  # not a segment
            try:
                fd = self._fd(name)
                size = os.fstat(fd).st_size
                start = self._scanned.get(name, 0)
                found, dead, end = _scan_segment(fd, start, size)
                if end < size and not alive:
                    os.truncate(os.path.join(self._segments, name), end)
                    self._swept += 1
                    obs.counter("jobs.cache.tmp_swept").inc()
            except OSError:
                continue  # deleted under us, or unreadable: look again next miss
            records.extend((key, (name, offset, length, sha))
                           for key, offset, length, sha in found)
            tombstones.extend(dead)
            self._scanned[name] = end
            if alive:
                self._live.add(name)
            else:
                self._live.discard(name)
        for key, segment, offset in tombstones:
            self._dead.add((segment, offset))
            entry = self._index.get(key)
            if entry is not None and entry[:2] == (segment, offset):
                del self._index[key]
        for key, entry in records:
            if entry[:2] not in self._dead:
                self._index[key] = entry

    def _append(self, frame: bytes) -> Tuple[str, int]:
        """Append ``frame`` to this handle's segment in one write; returns
        (segment, offset).  A failed write is cut back, and the next append
        opens a fresh segment."""
        if self._writer is None or self._writer_pid != os.getpid():
            os.makedirs(self._segments, exist_ok=True)
            name = f"{os.getpid()}-{os.urandom(8).hex()}.seg"
            fd = os.open(os.path.join(self._segments, name),
                         os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644)
            self._fds[name] = fd
            self._writer, self._writer_pid, self._end = name, os.getpid(), 0
        name, offset = self._writer, self._end
        fd = self._fds[name]
        try:
            written = os.write(fd, frame)
            if written != len(frame):
                raise OSError(f"short write: {written} of {len(frame)} bytes")
        except OSError:
            try:
                os.ftruncate(fd, offset)
            except OSError:
                pass
            self._writer = None
            raise
        self._end = offset + len(frame)
        return name, offset

    # -- entries -------------------------------------------------------
    def _read(self, key: str) -> Tuple[Any, str]:
        """``(document, "")`` for a record that checks out, ``(None,
        reason)`` for a damaged one, ``(None, "")`` on a miss."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                self._refresh()
                entry = self._index.get(key)
                if entry is None:
                    return None, ""
            name, offset, length, sha = entry
            try:
                raw = os.pread(self._fd(name), length, offset)
            except FileNotFoundError:  # the segment was cleared away
                del self._index[key]
                return None, ""
            except OSError:
                return None, "unreadable"
        if len(raw) != length or hashlib.sha256(raw).digest() != sha:
            return None, "corrupt"
        try:
            document = json.loads(raw)
        except ValueError:  # not UTF-8, or not JSON
            return None, "corrupt"
        if not isinstance(document, dict):
            return None, "wrong-schema"
        return document, ""

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or None on miss (quarantining bad entries)."""
        document, reason = self._read(key)
        if document is None:
            if reason:
                self.quarantine(key, reason=reason)
            return None
        payload = document.get("payload")
        if document.get("schema") != CACHE_FORMAT_VERSION or not isinstance(payload, dict):
            self.quarantine(key, reason="wrong-schema")
            return None
        return payload

    def document(self, key: str) -> Optional[Dict[str, Any]]:
        """The whole entry document at ``key`` if its record checks out
        (sha256, JSON object), else None; never quarantines."""
        return self._read(key)[0]

    def put(self, key: str, payload: Dict[str, Any], kind: str = "simulate") -> None:
        self.put_document(key, {
            "schema": CACHE_FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "created_unix": time.time(),
            "payload": payload,
        })

    def put_document(self, key: str, document: Any) -> None:
        """Append ``document`` (as sorted-key JSON) as the record for
        ``key``; a record it supersedes gets a tombstone in the same write."""
        raw = json.dumps(document, sort_keys=True).encode("utf-8")
        sha = hashlib.sha256(raw)
        header = f"{key} {len(raw)} {sha.hexdigest()}\n".encode("ascii")
        with self._lock:
            old = self._index.get(key)
            frame = header + raw + b"\n"
            if old is not None:
                frame += f"- {key} {old[0]} {old[1]}\n".encode("ascii")
            try:
                name, offset = self._append(frame)
            except OSError as error:
                raise CacheError(
                    f"failed to write cache entry {key[:12]}…: {error}",
                    code="cache.write_failed",
                    hint="check free space and permissions on the cache directory",
                    path=self._segments,
                ) from error
            self._index[key] = (name, offset + len(header), len(raw), sha.digest())
            if old is not None:
                self._dead.add((old[0], old[1]))

    def __contains__(self, key: str) -> bool:
        if key in self._index:
            return True
        with self._lock:
            self._refresh()
            return key in self._index

    def keys(self) -> List[str]:
        """Every indexed key, sorted."""
        with self._lock:
            self._refresh()
            return sorted(self._index)

    def locate(self, key: str) -> Optional[Tuple[Path, int, int]]:
        """Where the record for ``key`` keeps its entry document:
        ``(segment path, byte offset, length)``, or None."""
        with self._lock:
            self._refresh()
            entry = self._index.get(key)
        if entry is None:
            return None
        return Path(self._segments, entry[0]), entry[1], entry[2]

    def quarantine(self, key: str, reason: str = "corrupt") -> Optional[Path]:
        """Copy a damaged record under ``quarantine/`` and tombstone it;
        returns the copy's path."""
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is None:
                return None
            name, offset, length, _ = entry
            self._dead.add((name, offset))
            try:
                self._append(f"- {key} {name} {offset}\n".encode("ascii"))
            except OSError:
                pass  # this handle has forgotten it; another scan re-finds it
            try:
                raw = os.pread(self._fd(name), length, offset)
            except OSError:
                return None
        destination = self.root / QUARANTINE_DIR / f"{reason}-{key}.json"
        try:
            destination.parent.mkdir(exist_ok=True)
            destination.write_bytes(raw)
        except OSError:
            return None
        obs.counter("jobs.cache.quarantined").inc()
        return destination

    def _quarantined(self) -> List[Path]:
        pen = self.root / QUARANTINE_DIR
        if not pen.is_dir():
            return []
        return sorted(p for p in pen.iterdir() if p.is_file())

    def stats(self) -> CacheStats:
        """Entries and bytes of the live records, by kind; a record that
        fails a check counts as ``corrupt``."""
        by_kind: Dict[str, int] = {}
        total_bytes = 0
        for key in self.keys():
            entry = self._index.get(key)
            document, reason = self._read(key)
            if entry is None or (document is None and not reason):
                continue  # cleared away since the listing
            kind = "corrupt" if document is None else str(document.get("kind", "?"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
            total_bytes += entry[2]
        return CacheStats(entries=sum(by_kind.values()), bytes=total_bytes,
                          by_kind=by_kind, quarantined=len(self._quarantined()),
                          tmp_swept=self._swept)

    def clear(self) -> int:
        """Delete every entry (quarantined and old per-file ones included)
        and any ``checkpoints/`` journals older versions left; returns how
        many entries."""
        removed = len(self.keys())
        with self._lock:
            self._forget()
        shutil.rmtree(self._segments, ignore_errors=True)
        for path in self._quarantined():
            path.unlink()
            removed += 1
        # The one-file-per-entry layout: <key[:2]>/<key>.json and tmp files.
        for path in sorted(self.root.glob("??/*")):
            if path.suffix == ".json" or ".tmp." in path.name:
                removed += path.suffix == ".json"
                path.unlink()
        for bucket in sorted(self.root.glob("??")):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        shutil.rmtree(self.root / "checkpoints", ignore_errors=True)
        return removed


# -- task execution (top-level so it pickles into worker processes) --------

#: Per-process memo of whole architecture estimates, one per design, for
#: the tasks a process runs.  The estimator already estimates each
#: distinct unit once, but even an all-hit estimate_npu rebuilds the
#: design's units and its clock (tens of microseconds); a design's tasks
#: (one per network) take this dict lookup instead.  Keyed by the
#: canonical texts that estimate_key hashes: the same content, without
#: re-hashing it on every task.
_WORKER_ESTIMATES: Dict[Tuple[str, str], NPUEstimate] = {}


def _estimate_for(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    memo_key = (config_text(config), library_text(library))
    cached = _WORKER_ESTIMATES.get(memo_key)
    if cached is None:
        cached = _WORKER_ESTIMATES[memo_key] = estimate_npu(config, library)
    return cached


def _execute(task: SimTask, charges: Optional[DesignCharges] = None,
             ) -> Tuple[SimulationResult, float]:
    """Run one task in this process; returns (result, wall seconds).

    ``charges`` is the task's part of a joint pass (:func:`_charge_group`);
    its share of that pass counts toward the task's seconds.
    """
    start = time.perf_counter()
    if task.is_cmos:
        run = simulate_cmos(task.config, task.network, batch=task.batch)
    else:
        library = task.resolved_library()
        run = simulate(
            task.config, task.network, batch=task.batch,
            estimate=_estimate_for(task.config, library), charges=charges,
        )
    seconds = time.perf_counter() - start
    return run, seconds if charges is None else seconds + charges.seconds


#: Most design points charged in one array pass.  Time per point levels
#: off from about 16 points and grows again past 64, while the pass's
#: temporaries keep growing (docs/PERFORMANCE.md section 7).  A serial run
#: charges a group when its first task comes up, so this also bounds the
#: work a killed run loses.
GROUP_LIMIT = 64


def _group_leaders(tasks: Sequence[SimTask], indices: Sequence[int],
                   ) -> Dict[int, List[int]]:
    """The SFQ tasks among ``indices`` that share a network, in groups.

    Tasks group by network content, in ``indices`` order, at most
    :data:`GROUP_LIMIT` to a group; each group of two or more is keyed by
    its first index.  A lone task is in no group.
    """
    by_network: Dict[str, List[int]] = {}
    for index in indices:
        if not tasks[index].is_cmos:
            by_network.setdefault(workload_text(tasks[index].network), []).append(index)
    leaders: Dict[int, List[int]] = {}
    for members in by_network.values():
        for start in range(0, len(members), GROUP_LIMIT):
            chunk = members[start:start + GROUP_LIMIT]
            if len(chunk) > 1:
                leaders[chunk[0]] = chunk
    return leaders


def _charge_group(tasks: Sequence[SimTask], group: Sequence[int],
                  ) -> Dict[int, DesignCharges]:
    """Charge one group's tasks in one :func:`charge_designs` pass.

    Returns each task's charges by index; empty when the pass raised
    anything, and then each task runs on its own under the retry policy
    and raises its own error.
    """
    members = [tasks[index] for index in group]
    try:
        charges = charge_designs(
            [task.config for task in members], members[0].network,
            [task.batch for task in members],
            [_estimate_for(task.config, task.resolved_library()) for task in members])
    except Exception:
        obs.counter("jobs.sim.group_fallbacks").inc()
        return {}
    return dict(zip(group, charges))


@dataclass(frozen=True)
class WorkerObsSpec:
    """What observability each pool worker should collect.

    Built by the parent from its own live obs state (is tracing on? is a
    hotspot profiler running?) and pickled along with every submitted
    task; None when the parent collects nothing.  Workers run a private
    obs session per task and return what it collected with the result.
    """

    metrics: bool = False
    tracing: bool = False
    hotspot: bool = False


def _execute_task(task: SimTask,
                  chaos: Optional[ChaosInjector] = None,
                  charges: Optional[DesignCharges] = None,
                  ) -> Tuple[SimulationResult, float]:
    """Optional chaos, then the simulation, in this process."""
    if chaos is not None:
        chaos.fire(task.key())
    return _execute(task, charges)


def _execute_remote(task: SimTask,
                    chaos: Optional[ChaosInjector] = None,
                    obs_spec: Optional[WorkerObsSpec] = None,
                    ) -> Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]:
    """The unit submitted to pool workers: ``(payload, seconds,
    telemetry)``, the result crossing the process boundary as its
    serialized payload.

    ``telemetry`` is None when ``obs_spec`` is.  Otherwise the task runs
    under a private obs session, reset before and after, so the telemetry
    ``{pid, counters, spans, profile}`` holds exactly this task's
    counters, spans and raw ``pstats`` table (None without a profiler),
    even when the worker process is reused for many tasks.  A failed
    attempt raises and returns none.
    """
    if obs_spec is None:
        run, seconds = _execute_task(task, chaos)
        return result_to_dict(run), seconds, None
    from repro.obs.hotspot import HotspotProfiler
    from repro.obs.tracing import serialize_spans

    obs.disable()
    obs.reset()
    obs.enable(metrics=obs_spec.metrics, tracing=obs_spec.tracing)
    profiler = None
    if obs_spec.hotspot:
        try:
            profiler = HotspotProfiler().start()
        except ConfigError:
            profiler = None  # another profiler runs here: collect nothing
    try:
        run, seconds = _execute_task(task, chaos)
        counters = obs.metrics().snapshot()["counters"] if obs_spec.metrics else {}
        spans = serialize_spans(obs.tracer()) if obs_spec.tracing else []
    finally:
        if profiler is not None:
            profiler.stop()
        obs.disable()
        obs.reset()
    return result_to_dict(run), seconds, {
        "pid": os.getpid(),
        "counters": counters,
        "spans": spans,
        "profile": profiler.stats_table() if profiler is not None else None,
    }


def _fold_telemetry(telemetry: Dict[str, Any], pids: Set[int]) -> None:
    """Fold one finished task's worker telemetry into the parent obs
    state: counters under ``jobs.worker.`` (apart from the parent's own),
    spans into a per-PID lane of the Chrome trace, the profile into the
    active profiler.  ``pids`` collects the workers seen so far."""
    from repro.obs import hotspot

    pid = telemetry["pid"]
    for name, value in telemetry["counters"].items():
        obs.counter(f"jobs.worker.{name}").add(value)
    if telemetry["spans"]:
        obs.tracer().absorb_serialized(telemetry["spans"], pid=pid)
    if telemetry["profile"] is not None:
        hotspot.absorb(telemetry["profile"])
    pids.add(pid)
    obs.counter("jobs.worker.tasks").inc()
    obs.gauge("jobs.worker.pids").set(len(pids))


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
    * completed tasks are written to the cache *immediately*, and every
      run reads the cache first, so a killed run resumes from where it
      died: its finished tasks are cache hits.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout_s: Optional[float] = None,
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
        try:
            for index, key in enumerate(keys):
                result = self._cached(key, result_from_dict)
                if result is None:
                    pending.append(index)
                    self._emit("queued", key)
                    continue
                results[index] = result
                cached[index] = True
                self._emit("cached", key)
            hits = len(tasks) - len(pending)

            task_seconds = 0.0
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    task_seconds = self._run_parallel(tasks, keys, results, pending)
                else:
                    task_seconds = self._run_serial(
                        tasks, keys, results, [(index, 0) for index in pending])
        finally:
            # Close the live line even when the sweep raises, so the
            # error message starts on a fresh line.
            if self.progress is not None:
                self.progress.done()

        elapsed = time.perf_counter() - started
        self._account(len(tasks), hits, len(pending), task_seconds, elapsed)
        return RunResults(results, cached)

    def run_one(self, task: SimTask) -> SimulationResult:
        return self.run([task])[0]

    # -- cache interaction --------------------------------------------
    def _cached(self, key: str, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """The entry at ``key`` decoded once by ``decode`` (a result or an
        estimate), or None on a miss or a payload it cannot decode, which
        is quarantined as poison."""
        if self.cache is None:
            return None
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except Exception:
            # Well-formed JSON, wrong shape: poison, not a result.
            self.cache.quarantine(key, reason="poisoned-payload")
            return None

    def _finish_task(self, index: int, key: str, task: SimTask,
                     result: SimulationResult,
                     results: List[Optional[SimulationResult]],
                     payload: Optional[Dict[str, Any]] = None) -> None:
        """Record one completed task: result slot, cache.

        ``payload`` is the serialized result when it already exists (a
        pool worker shipped it); otherwise it is encoded here, and only
        when there is a cache to write it to.
        """
        results[index] = result
        if self.cache is not None:
            kind = "simulate_cmos" if task.is_cmos else "simulate"
            self.cache.put(key, payload if payload is not None else result_to_dict(result),
                           kind=kind)

    # -- serial execution (also the degraded path) --------------------
    def _run_serial(self, tasks: Sequence[SimTask], keys: List[str],
                    results: List[Optional[SimulationResult]],
                    pending: Sequence[Tuple[int, int]]) -> float:
        """Run ``(index, failures so far)`` tasks in-process, in order.

        SFQ tasks that share a network are charged together
        (:func:`_group_leaders`), when the group's first task comes up.
        Each task then fires its own chaos under the retry policy, builds
        its own result, emits its own events and is cached on its own, as
        if run alone.
        """
        leaders = _group_leaders(tasks, [index for index, _ in pending])
        charged: Dict[int, DesignCharges] = {}
        total = 0.0
        for index, failures in pending:
            self._emit("started", keys[index], attempt=failures)
            if index in leaders:
                charged.update(_charge_group(tasks, leaders[index]))
            result, seconds = self._execute_with_retry(
                tasks[index], keys[index], failures, charged.pop(index, None))
            total += seconds
            self._finish_task(index, keys[index], tasks[index], result, results)
            self._emit("finished", keys[index])
        return total

    def _execute_with_retry(self, task: SimTask, key: str, failures: int = 0,
                            charges: Optional[DesignCharges] = None,
                            ) -> Tuple[SimulationResult, float]:
        """In-process execution under the retry policy; ``charges`` is the
        task's part of its group's joint pass, if it has one."""
        while True:
            try:
                return _execute_task(task, self.chaos, charges=charges)
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
        worker_pids: Set[int] = set()
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=workers)
        pool_deaths = 0
        inflight: Dict[Future, Tuple[int, int, Optional[float]]] = {}
        try:
            while remaining:
                if pool is None:
                    # Degraded: finish the sweep in-process, deterministically.
                    total_seconds += self._run_serial(tasks, keys, results, queue)
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
                        payload, seconds, telemetry = future.result()
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
                        if telemetry is not None:
                            _fold_telemetry(telemetry, worker_pids)
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
        return total_seconds

    # -- worker observability ------------------------------------------
    @staticmethod
    def _worker_obs_spec() -> Optional[WorkerObsSpec]:
        """A spec mirroring the parent's live obs state, or None when off
        (the common case), which keeps the worker path allocation-free."""
        from repro.obs import hotspot

        spec = WorkerObsSpec(metrics=obs.metrics().enabled,
                             tracing=obs.tracer().enabled,
                             hotspot=hotspot.active_profiler() is not None)
        return spec if spec.metrics or spec.tracing or spec.hotspot else None

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
        estimate = self._cached(key, estimate_from_dict)
        served = estimate is not None
        if served:
            obs.counter("jobs.estimate_cache.hits").inc()
        else:
            obs.counter("jobs.estimate_cache.misses").inc()
            estimate = estimate_npu(config, library)
            # Units in sorted-name order, as estimate_from_dict makes them.
            estimate.units = {name: estimate.units[name] for name in sorted(estimate.units)}
            if self.cache is not None:
                self.cache.put(key, estimate_to_dict(estimate), kind="estimate")
        self._estimates[key] = estimate
        return estimate, served

    # -- accounting ---------------------------------------------------
    def _account(self, tasks: int, hits: int, executed: int,
                 task_seconds: float, elapsed: float) -> None:
        self.stats.tasks += tasks
        self.stats.hits += hits
        self.stats.misses += executed
        self.stats.executed += executed
        self.stats.task_seconds += task_seconds
        self.stats.elapsed_seconds += elapsed
        obs.counter("jobs.tasks").add(tasks)
        obs.counter("jobs.cache.hits").add(hits)
        obs.counter("jobs.cache.misses").add(executed)
        obs.counter("jobs.sim.executed").add(executed)
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
#: Installed runners, innermost last; each thread and asyncio task has its own.
_ACTIVE: ContextVar[Tuple[JobRunner, ...]] = ContextVar("repro_jobs_active", default=())


def get_runner() -> JobRunner:
    """This thread's innermost installed runner, or the shared serial default."""
    active = _ACTIVE.get()
    return active[-1] if active else _DEFAULT_RUNNER


@contextmanager
def use_runner(runner: JobRunner) -> Iterator[JobRunner]:
    """Install ``runner`` as this thread's ambient runner for the enclosed block."""
    token = _ACTIVE.set(_ACTIVE.get() + (runner,))
    try:
        yield runner
    finally:
        _ACTIVE.reset(token)


@contextmanager
def session(jobs: int = 1, cache_dir: Optional[Union[str, Path]] = None,
            cache: Optional[ResultCache] = None,
            retry: Optional[RetryPolicy] = None,
            timeout_s: Optional[float] = None,
            chaos: Optional[ChaosInjector] = None,
            progress: Optional[ProgressReporter] = None) -> Iterator[JobRunner]:
    """Build a runner from knobs and install it (the CLI's entry point)."""
    owned = None
    if cache is None and cache_dir is not None:
        cache = owned = ResultCache(cache_dir)
    runner = JobRunner(jobs=jobs, cache=cache, retry=retry, timeout_s=timeout_s,
                       chaos=chaos, progress=progress)
    try:
        with use_runner(runner):
            yield runner
    finally:
        if owned is not None:
            owned.close()
