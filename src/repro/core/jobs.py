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

The payload codec runs only at a boundary.  A cache hit is decoded once
from its record's bytes; a pool worker ships the same bytes, decoded once
in the parent and written as they are; a serial miss keeps the simulator's
own result, or its slice of a charge pass, and is encoded only to be
written to the cache.  The codec round-trips every field exactly and
activity materializes in sorted-unit order on every path, so serial,
parallel, warm-cache, and failure-recovered runs are bitwise-identical
(proven by ``tests/test_resilience.py`` under injected crashes, hangs,
SIGKILLs, and corrupted cache entries).

In-process runs charge their pending SFQ tasks in as few (points x
layers) array passes as they can
(:func:`repro.simulator.engine.charge_designs`): the tasks are grouped by
network, and whole groups are packed into passes of at most
:data:`GROUP_LIMIT` points (:func:`_packed_passes`), each design's estimate
resolved once, when the pass's first task comes up; a pass of one task is
charged by that task's own ``simulate`` call.  Each task keeps its slice of
the pass, and its result is built only when read: by the caller, or at once
for a tracer or metrics; a cache encodes the slice as it is.  Chaos,
retries, events and cache writes stay per task, in task order.

Keys are computed once per object, and only when read: configs, networks
and cell libraries keep their canonical JSON text (:mod:`repro.canonical`),
a :class:`SimTask` keeps its key, and sweeps dedupe on the texts a key
hashes (:func:`task_content`, :func:`estimate_content`).  So a run
hashes a task or an estimate request only for a reader of its key: a
cache, a chaos injector, a progress reporter, an error message naming the
task, or a plan result's provenance.

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
import struct
import threading
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

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
from repro.estimator.arch_level import UNIT_MEMO_SIZE, NPUEstimate, estimate_npu
from repro.estimator.uarch_level import UnitEstimate
from repro.simulator.engine import DesignCharges, charge_designs, simulate
from repro.simulator.kernel import EXACT_LIMIT, column_totals
from repro.simulator.results import LAYER_FIELDS, ActivityTrace, RunRates, SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.layers import check_batch
from repro.workloads.models import Network

#: Bump whenever the simulator or the estimator changes meaning: every
#: key changes, so old cache entries become unreachable, never silently
#: wrong.  It hashes into every key (and so into plan hashes).
CACHE_SCHEMA_VERSION = 1

#: Bump whenever the on-disk entry layout changes (4: a simulate entry is
#: a fixed binary layout, no JSON): keys stay the same, and an entry
#: written in another layout is quarantined as ``wrong-schema`` on first
#: read, costing one miss.  Written as a simulate record's header format
#: and as each JSON entry document's ``"schema"``.
CACHE_FORMAT_VERSION = 4

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
    """The cache-relevant content of a design config (JSON-able).

    Every config field is a scalar, so the fields are read directly: the
    same document ``dataclasses.asdict`` builds, without its deep copy.
    """
    document = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
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
    worker processes), so each task is hashed at most once, by whichever
    reader asks first.
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

    @property
    def kind(self) -> str:
        """The cache entry kind of this task's result."""
        return "simulate_cmos" if self.is_cmos else "simulate"

    def resolved_library(self) -> Optional[CellLibrary]:
        if self.is_cmos:
            return None
        return self.library or library_for(Technology.RSFQ)

    def key(self) -> str:
        """Content-addressed cache key of this task: the hash of its
        :func:`task_content`."""
        if self._key is None:
            # The sorted-key document {batch, config, kind, library,
            # schema, workload}, spliced from the kept sub-texts; the
            # batch is an exact int, whose JSON text is its str().
            kind, config, workload, library, batch = task_content(
                self.is_cmos, config_text(self.config), workload_text(self.network),
                library_text(self.resolved_library()), self.batch)
            object.__setattr__(self, "_key", _sha256(
                f'{{"batch":{batch},"config":{config},"kind":"{kind}",'
                f'"library":{library},"schema":{CACHE_SCHEMA_VERSION},'
                f'"workload":{workload}}}'))
        return self._key


def task_content(cmos: bool, config: str, workload: str, library: str, batch: int,
                 ) -> Tuple[str, str, str, str, int]:
    """What a task's key hashes: its kind (a CMOS baseline's or an SFQ
    design's), the kept texts of its config, network and cell library
    (:meth:`SimTask.resolved_library`; a CMOS task has none) and its batch.
    Tasks of equal content have equal keys, so sweeps dedupe on this
    without hashing."""
    return ("simulate_cmos" if cmos else "simulate", config, workload,
            "null" if cmos else library, batch)


def _task_key(task: SimTask) -> str:
    """The key ``task`` keeps, computed here only if nobody has read it yet."""
    return task._key or task.key()


def estimate_content(config: NPUConfig, library: CellLibrary) -> Tuple[str, str]:
    """What :func:`estimate_key` hashes: the config's and library's kept texts."""
    return config_text(config), library_text(library)


def estimate_key(config: NPUConfig, library: CellLibrary) -> str:
    """Cache key of one architecture-level estimation."""
    # The sorted-key document {config, kind, library, schema}.
    config_json, library_json = estimate_content(config, library)
    return _sha256(
        f'{{"config":{config_json},"kind":"estimate",'
        f'"library":{library_json},"schema":{CACHE_SCHEMA_VERSION}}}')


# -- payload codecs --------------------------------------------------------
#
# These codecs round-trip the result records exactly (float64s, int64s,
# and Python's json preserves an estimate's ints and floats), which is what
# makes warm-cache runs bitwise-identical to cold ones.  A simulate result
# is a format-4 record, decoded with no JSON: the _HEAD header, the kind,
# design and network names, the sorted activity units comma-joined, their
# float64 values, the layer names NUL-joined, then the int64 charges, one
# row per BLOCK_FIELDS field (docs/ROBUSTNESS.md draws the layout).

#: The layer fields a simulate record's block holds, in block order.
BLOCK_FIELDS = list(LAYER_FIELDS[1:])

#: The header: magic (no JSON text starts with it), format, batch,
#: frequency_ghz, created_unix, the five texts' byte lengths, the unit and
#: layer counts; and the block's entries, little-endian int64s.
_HEAD, _MAGIC, _INT64 = struct.Struct("<4siqddIIIIIII"), b"\x93NPU", np.dtype("<i8")


def _record(schema: int, kind: str, created_unix: float, design: str, network: str,
            batch: int, frequency_ghz: float, activity: Dict[str, float],
            names: Sequence[str], block: bytes) -> bytes:
    """A format-4 record body, its header's format ``schema``."""
    units = sorted(activity)
    texts = [text.encode("utf-8") for text in
             (kind, design, network, ",".join(units), "\0".join(names))]
    return b"".join((
        _HEAD.pack(_MAGIC, schema, batch, frequency_ghz, created_unix, *map(len, texts),
                   len(units), len(names)),
        *texts[:4], np.array([activity[unit] for unit in units], "<f8").tobytes(),
        texts[4], block))


def result_to_dict(run: Union[SimulationResult, "_Charged"], kind: str = "simulate") -> bytes:
    """``run``, a result or a task's slice of a charge pass, as the body of
    a ``kind`` cache record created now."""
    if type(run) is _Charged:  # the slice as it is, as its result would encode
        task = run.task
        design, network, batch = task.config.name, task.network.name, task.batch
        activity, names = run.charges.activity, task.network.layer_table.names
        charges = run.charges.charges
    else:
        design, network, batch = run.design, run.network, run.batch
        activity, state = run.activity.effective_cycles, vars(run)
        if "_charges" in state:  # a charge-pass or decoded run: its block as it is
            names, charges = state["_names"], state["_charges"]
        else:  # a run built from lists, or one whose lists were read
            columns = run.columns
            names = columns["name"]
            charges = np.array([columns[name] for name in BLOCK_FIELDS], dtype=np.int64)
    return _record(CACHE_FORMAT_VERSION, kind, time.time(), design, network, batch,
                   run.frequency_ghz, activity, names,
                   charges.astype("<i8", copy=False).tobytes())


def result_from_dict(record: bytes) -> SimulationResult:
    """The result in a format-4 record body (a hit's or a pool worker's)."""
    (_, _, batch, frequency_ghz, _, kind_bytes, design_bytes, network_bytes, units_bytes,
     names_bytes, units, layers) = _HEAD.unpack_from(record)
    network_at = (design_at := _HEAD.size + kind_bytes) + design_bytes
    values_at = (units_at := network_at + network_bytes) + units_bytes
    block_at = (names_at := values_at + 8 * units) + names_bytes
    count = len(BLOCK_FIELDS) * layers
    unit_names = _split(record[units_at:values_at], ",")
    layer_names = _split(record[names_at:block_at], "\0") if layers else ()
    if (len(unit_names), len(layer_names), block_at + 8 * count) != (units, layers, len(record)):
        raise ValueError("record sections do not match its header")
    charges = np.ndarray((len(BLOCK_FIELDS), layers), _INT64, record, block_at)
    # Negative values view as uint64s past the limit: one reduction bounds
    # both ends, and below the limit the int64 totals cannot wrap.
    if np.maximum.reduce(charges.view(np.uint64), axis=None) >= EXACT_LIMIT:
        raise ValueError("layer charges outside [0, 2**53)")
    return SimulationResult.from_charges(
        record[design_at:network_at].decode("utf-8"),
        record[network_at:units_at].decode("utf-8"), batch, frequency_ghz,
        layer_names, charges, column_totals(charges), ActivityTrace(dict(
            zip(unit_names, struct.unpack_from(f"<{units}d", record, values_at)))))


@lru_cache(maxsize=UNIT_MEMO_SIZE)
def _split(field: bytes, separator: str) -> Tuple[str, ...]:
    """A record's unit list or layer names, split once per distinct field.
    Activity materializes in sorted-unit order, as the simulator emits it
    (power sums fold floats in iteration order): other orders are refused."""
    names = tuple(field.decode("utf-8").split(separator)) if field else ()
    if separator == "," and list(names) != sorted(set(names)):
        raise ValueError("activity units out of sorted order")
    return names


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


def _record_document(key: str, record: Any) -> Optional[Dict[str, Any]]:
    """The entry document of a record :meth:`ResultCache._read` returned
    (see :meth:`ResultCache.document`)."""
    if type(record) is not bytes:
        return record
    head = _HEAD.unpack_from(record)
    at = list(accumulate((*head[5:9], 8 * head[10], head[9]), initial=_HEAD.size))
    kind, design, network, units, _, names = (  # _: the activity values
        record[start:stop].decode("utf-8", "replace") for start, stop in zip(at, at[1:]))
    return {"schema": head[1], "kind": kind, "key": key, "created_unix": head[4], "payload": {
        "design": design, "network": network, "batch": head[2], "frequency_ghz": head[3],
        "activity": dict(zip(units.split(",") if units else (),
                             struct.unpack_from(f"<{head[10]}d", record, at[4]))),
        "names": names.split("\0") if head[11] else [], "block": record[at[-1]:]}}


class ResultCache:
    """Content-addressed store of simulation / estimation payloads.

    Entries live in append-only segment files, ``root/segments/<pid>-
    <token>.seg``: each handle opens one on its first put and appends
    every entry to it as one framed record, a header line ``<key>
    <length> <sha256>\\n``, the entry body, then ``\\n``.  A simulate
    entry's body is its format-4 record (:func:`result_to_dict`), any
    other's the entry document as sorted-key JSON.  No
    index is stored: opening a cache scans the segments' headers into an
    in-memory index, and a miss rescans the segments of live writers for
    records written since; inside :meth:`one_rescan`, only a thread's first
    miss does.

    A record whose sha256, JSON or section lengths (the header's lengths
    and counts, the block ``8 x fields x layers`` bytes) do not check out
    is ``corrupt``; one in another entry format (:data:`CACHE_FORMAT_VERSION`)
    is ``wrong-schema``.  Either record's raw body is copied to
    ``root/quarantine/<reason>-<key>.entry`` the first time it is read,
    and a tombstone line ``- <key> <segment> <offset>\\n``, appended to
    the reader's own segment, keeps every later scan from indexing it
    again, so a damaged entry costs exactly one miss, not one per run
    forever.  A writer killed mid-append leaves a torn last record; scans
    stop before it, and the first handle to look after the writer died
    cuts it off.  Entries of the older one-file-per-entry layout are not
    read.  Threads may share a handle, and processes a directory, which
    the first write creates.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
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
        self._local = threading.local()  # .rescanned: see one_rescan
        weakref.finalize(self, _close_fds, self._fds)
        with self._lock:
            self._refresh()

    def close(self) -> None:
        """Close every segment and forget the index; the next lookup
        rescans the segments."""
        with self._lock:
            self._forget()

    @contextmanager
    def one_rescan(self) -> Iterator[None]:
        """Within the block, this thread's first miss rescans the segments
        and later misses do not: a run looks all its keys up at once, and a
        record another writer appends during that is a miss either way.
        This handle's own writes are indexed as they are made."""
        outer = getattr(self._local, "rescanned", None)
        self._local.rescanned = False
        try:
            yield
        finally:
            self._local.rescanned = outer

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
        except OSError:  # nothing written yet, or no directory at all
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
        """``(record, "")`` for a record that checks out, a simulate record
        as its format-4 body and any other as its JSON document; ``(None,
        reason)`` for a damaged one, ``(None, "")`` on a miss."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                rescanned = getattr(self._local, "rescanned", None)
                if rescanned:
                    return None, ""
                self._refresh()
                if rescanned is False:
                    self._local.rescanned = True
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
        if raw[:4] == _MAGIC and length >= _HEAD.size:  # shorter: not UTF-8, corrupt
            head = _HEAD.unpack_from(raw)
            if head[1] != CACHE_FORMAT_VERSION:
                return None, "wrong-schema"
            size = sum(head[5:10]) + 8 * (head[10] + len(BLOCK_FIELDS) * head[11])
            return (raw, "") if _HEAD.size + size == length else (None, "corrupt")
        text, _, block = raw.partition(b"\n")  # a JSON text has no newline
        try:  # json.loads(bytes) would first guess their encoding
            document = json.loads(text.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            return None, "corrupt"
        if not isinstance(document, dict) or block:  # block: format 3's JSON header
            return None, "wrong-schema"
        return document, ""

    def get(self, key: str) -> Any:
        """The stored payload, a simulate record as its format-4 body
        (bytes), or None on a miss (quarantining bad entries)."""
        record, reason = self._read(key)
        if type(record) is dict:
            payload = record.get("payload")
            if record.get("schema") == CACHE_FORMAT_VERSION and isinstance(payload, dict):
                return payload
            record, reason = None, "wrong-schema"
        if reason:
            self.quarantine(key, reason=reason)
        return record

    def document(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry document at ``key`` if its record checks out, else
        None; never quarantines.  A format-4 record's holds its header's
        ``schema``, ``kind`` and ``created_unix`` and a payload of the rest
        (its block as bytes), which :meth:`put_document` writes back."""
        return _record_document(key, self._read(key)[0])

    def put(self, key: str, payload: Any, kind: str = "simulate") -> None:
        """Append ``payload``, a record body (:func:`result_to_dict`) or a
        JSON-able ``kind`` payload, as the record for ``key``."""
        self.put_document(key, payload if type(payload) is bytes else {
            "schema": CACHE_FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "created_unix": time.time(),
            "payload": payload,
        })

    def put_document(self, key: str, document: Any) -> None:
        """Append ``document`` as the record for ``key``: bytes as they are,
        a payload with a ``"block"`` as a format-4 record, else sorted-key
        JSON.  A record it supersedes gets a tombstone in the same write."""
        payload = document.get("payload") if isinstance(document, dict) else None
        if type(document) is bytes:
            raw = document
        elif isinstance(payload, dict) and "block" in payload:
            raw = _record(document["schema"], document["kind"], document["created_unix"],
                          **payload)
        else:
            raw = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
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
        destination = self.root / QUARANTINE_DIR / f"{reason}-{key}.entry"
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
            record, reason = self._read(key)
            if entry is None or (record is None and not reason):
                continue  # cleared away since the listing
            document = _record_document(key, record)
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
#: (one per network) take this dict lookup instead, and so does a design
#: the runner estimated first (:meth:`JobRunner.lookup_estimate` records
#: its estimates here).  Tasks read only an estimate's frequency.  Keyed by
#: :func:`estimate_content`, without hashing it.  It holds at most
#: ``UNIT_MEMO_SIZE`` designs, the oldest evicted first, so a long-lived
#: process does not keep every design it has seen.
_WORKER_ESTIMATES: Dict[Tuple[str, str], NPUEstimate] = {}
_WORKER_ESTIMATES_LOCK = threading.Lock()


def _remember(memo: Dict[Any, Any], key: Any, value: Any) -> None:
    """Add ``key`` to a memo of at most ``UNIT_MEMO_SIZE`` entries, evicting the oldest."""
    with _WORKER_ESTIMATES_LOCK:
        if len(memo) >= UNIT_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value


def _estimate_for(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    content = estimate_content(config, library)
    cached = _WORKER_ESTIMATES.get(content)
    if cached is None:
        cached = estimate_npu(config, library)
        _remember(_WORKER_ESTIMATES, content, cached)
    return cached


def _execute(task: SimTask) -> Tuple[SimulationResult, float]:
    """Run one task alone in this process; returns (result, wall seconds)."""
    start = time.perf_counter()
    if task.is_cmos:
        run = simulate_cmos(task.config, task.network, batch=task.batch)
    else:
        run = simulate(task.config, task.network, batch=task.batch,
                       estimate=_estimate_for(task.config, task.resolved_library()))
    return run, time.perf_counter() - start


class _Charged(RunRates):
    """A task's slice of its group's charge pass: the totals a sweep ranks
    by, and its :class:`SimulationResult`, built by :meth:`build` only when
    something reads it."""

    __slots__ = ("task", "estimate", "charges")

    def __init__(self, task: SimTask, estimate: NPUEstimate, charges: DesignCharges) -> None:
        self.task, self.estimate, self.charges = task, estimate, charges

    batch = property(lambda self: self.task.batch)
    frequency_ghz = property(lambda self: self.estimate.frequency_ghz)
    total_cycles = property(lambda self: self.charges.totals[-2])
    total_macs = property(lambda self: self.charges.totals[-1])

    def build(self) -> SimulationResult:
        return simulate(self.task.config, self.task.network, batch=self.task.batch,
                        estimate=self.estimate, charges=self.charges)


#: Most design points charged in one array pass.  Time per point levels
#: off from about 16 points and grows again past 64, while the pass's
#: temporaries keep growing (docs/PERFORMANCE.md section 7).  A serial run
#: charges a pass when its first task comes up, so this also bounds the
#: work a killed run loses.
GROUP_LIMIT = 64


def _packed_passes(groups: Iterable[List[int]]) -> List[List[List[int]]]:
    """The charge passes over ``groups``, each one network's task indexes
    in task order, as lists of pieces: a group is cut into pieces of
    :data:`GROUP_LIMIT` tasks (the last piece holds the rest), and each
    piece joins the first pass it fits whole, in group order, or opens a
    new one.  So a pass holds at most :data:`GROUP_LIMIT` tasks, and a
    full group is a pass of its own."""
    passes: List[List[List[int]]] = []
    for group in groups:
        for start in range(0, len(group), GROUP_LIMIT):
            piece = group[start:start + GROUP_LIMIT]
            home = next((each for each in passes
                         if sum(map(len, each)) + len(piece) <= GROUP_LIMIT), None)
            if home is None:
                passes.append([piece])
            else:
                home.append(piece)
    return passes


def _charge_pass(tasks: Sequence[SimTask], pieces: Sequence[Sequence[int]],
                 ) -> Dict[int, Optional[_Charged]]:
    """Each task of one charge pass, by index, with its slice of one
    :func:`charge_designs` pass and its design's estimate, resolved once.
    A pass of one task is charged by its task's own ``simulate`` call, and
    a pass that raised anything leaves each task to run alone under the
    retry policy and raise its own error: their tasks map to None."""
    members = [index for piece in pieces for index in piece]
    if len(members) > 1:
        points = [tasks[index] for index in members]
        # A piece's tasks share a network: the pass takes its first task's.
        networks = (points[0].network if len(pieces) == 1 else
                    [tasks[piece[0]].network for piece in pieces for _ in piece])
        try:
            estimates = [_estimate_for(task.config, task.resolved_library())
                         for task in points]
            charges = charge_designs([task.config for task in points], networks,
                                     [task.batch for task in points], estimates)
            return {index: _Charged(*part) for index, part in
                    zip(members, zip(points, estimates, charges))}
        except Exception:
            obs.counter("jobs.sim.group_fallbacks").inc()
    return dict.fromkeys(members)


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
                  charged: Optional[_Charged] = None,
                  ) -> Tuple[Union[SimulationResult, _Charged], float]:
    """Optional chaos, then the task's slice of its group's pass, or else the simulation."""
    if chaos is not None:
        chaos.fire(_task_key(task))
    if charged is not None:
        return charged, charged.charges.seconds
    return _execute(task)


def _execute_remote(task: SimTask,
                    chaos: Optional[ChaosInjector] = None,
                    obs_spec: Optional[WorkerObsSpec] = None,
                    ) -> Tuple[bytes, float, Optional[Dict[str, Any]]]:
    """The unit submitted to pool workers: ``(record, seconds,
    telemetry)``, the result crossing the process boundary as the body of
    its cache record (:func:`result_to_dict`).

    ``telemetry`` is None when ``obs_spec`` is.  Otherwise the task runs
    under a private obs session, reset before and after, so the telemetry
    ``{pid, counters, spans, profile}`` holds exactly this task's
    counters, spans and raw ``pstats`` table (None without a profiler),
    even when the worker process is reused for many tasks.  A failed
    attempt raises and returns none.
    """
    if obs_spec is None:
        run, seconds = _execute_task(task, chaos)
        return result_to_dict(run, task.kind), seconds, None
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
    return result_to_dict(run, task.kind), seconds, {
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
        #: By :func:`estimate_content`, at most ``UNIT_MEMO_SIZE`` of them.
        self._estimates: Dict[Tuple[str, str], NPUEstimate] = {}

    def _emit(self, kind: str, task: Optional[SimTask] = None, attempt: int = 0) -> None:
        """Forward one lifecycle event, keyed by ``task``'s key, to the
        progress reporter, if any.

        Results never depend on this: the reporter writes only to its
        own stream (stderr) and to the obs registries, so a sweep is
        bitwise-identical with progress on or off.
        """
        if self.progress is not None:
            self.progress.emit(kind, key=None if task is None else _task_key(task),
                               attempt=attempt)

    # -- simulations --------------------------------------------------
    def run(self, tasks: Sequence[SimTask]) -> "RunResults":
        """Run every task (cache-first), preserving task order.

        A task is hashed only if its key is read: by the cache, the chaos
        injector, the progress reporter or an error naming the task.  A
        result charged in a group pass is built when first read.
        """
        started = time.perf_counter()
        if self.progress is not None:
            self.progress.begin(len(tasks))
        results: List[Any] = [None] * len(tasks)
        cached = [False] * len(tasks)
        pending: List[int] = []
        try:
            with nullcontext() if self.cache is None else self.cache.one_rescan():
                for index, task in enumerate(tasks):
                    result = (None if self.cache is None
                              else self._cached(_task_key(task), result_from_dict))
                    if result is None:
                        pending.append(index)
                        self._emit("queued", task)
                        continue
                    results[index] = result
                    cached[index] = True
                    self._emit("cached", task)
            hits = len(tasks) - len(pending)

            task_seconds = 0.0
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    task_seconds = self._run_parallel(tasks, results, pending)
                else:
                    task_seconds = self._run_serial(
                        tasks, results, [(index, 0) for index in pending])
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
    def _cached(self, key: str, decode: Callable[[Any], Any]) -> Any:
        """The entry at ``key`` decoded once by ``decode`` (a result or an
        estimate), or None on a miss or a payload it cannot decode, which
        is quarantined as poison.  Only called on a runner with a cache."""
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except Exception:
            # A record that checks out but does not decode: poison.
            self.cache.quarantine(key, reason="poisoned-payload")
            return None

    def _finish_task(self, index: int, task: SimTask, result: Any, results: List[Any],
                     record: Optional[bytes] = None) -> None:
        """Record one completed task: result slot, cache.

        ``record`` is the encoded result when it already exists (a pool
        worker shipped it); otherwise it is encoded here, and only when
        there is a cache to write it to.
        """
        results[index] = result
        if self.cache is not None:
            self.cache.put(_task_key(task),
                           record if record is not None else result_to_dict(result, task.kind))

    # -- serial execution (also the degraded path) --------------------
    def _run_serial(self, tasks: Sequence[SimTask], results: List[Any],
                    pending: Sequence[Tuple[int, int]]) -> float:
        """Run ``(index, failures so far)`` tasks in-process, in order.

        The pending SFQ tasks are grouped by network and the groups packed
        into passes of at most :data:`GROUP_LIMIT` tasks
        (:func:`_packed_passes`); a pass is charged when its first task
        comes up (:func:`_charge_pass`).  Each task then fires its own chaos
        under the retry policy, emits its own events and is cached on its
        own, as if run alone.  Its slice of the pass is built into its
        result at once only for a reader that needs it now: a tracer or
        metrics (its spans and ``sim.*`` counts, in task order).
        """
        groups: Dict[str, List[int]] = {}
        for index, _ in pending:
            if not tasks[index].is_cmos:
                groups.setdefault(workload_text(tasks[index].network), []).append(index)
        passes = {index: pieces for pieces in _packed_passes(groups.values())
                  for piece in pieces for index in piece}
        charged: Dict[int, Optional[_Charged]] = {}
        build = obs.metrics().enabled or obs.tracer().enabled
        total = 0.0
        for index, failures in pending:
            task = tasks[index]
            self._emit("started", task, attempt=failures)
            if index in passes and index not in charged:
                charged.update(_charge_pass(tasks, passes[index]))
            result, seconds = self._execute_with_retry(task, failures, charged.pop(index, None))
            if build and type(result) is _Charged:
                result = result.build()
            total += seconds
            self._finish_task(index, task, result, results)
            self._emit("finished", task)
        return total

    def _execute_with_retry(self, task: SimTask, failures: int = 0,
                            charged: Optional[_Charged] = None,
                            ) -> Tuple[Union[SimulationResult, _Charged], float]:
        """In-process execution under the retry policy; ``charged`` is the
        task's slice of its group's pass, if it has one."""
        while True:
            try:
                return _execute_task(task, self.chaos, charged)
            except ReproError:
                raise  # deterministic: retrying cannot change the outcome
            except Exception as error:
                failures += 1
                self._retry_or_raise(task, failures, error)

    # -- parallel execution -------------------------------------------
    def _run_parallel(self, tasks: Sequence[SimTask],
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
                    total_seconds += self._run_serial(tasks, results, queue)
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
                    self._emit("started", tasks[index], attempt=failures)

                done, _ = wait(set(inflight), timeout=self._wait_timeout(inflight),
                               return_when=FIRST_COMPLETED)
                fatal: Optional[WorkerError] = None
                for future in done:
                    index, failures, _ = inflight.pop(future)
                    try:
                        record, seconds, telemetry = future.result()
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
                        self._retry_or_raise(tasks[index], failures, error)
                        queue.append((index, failures))
                    else:
                        total_seconds += seconds
                        self._finish_task(index, tasks[index], result_from_dict(record),
                                          results, record=record)
                        if telemetry is not None:
                            _fold_telemetry(telemetry, worker_pids)
                        self._emit("finished", tasks[index])
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
                        self._emit("timeout", tasks[index], attempt=failures)
                        if failures > self.retry.max_retries:
                            key = _task_key(tasks[index])
                            fatal = WorkerError(
                                f"task {key[:12]}… exceeded the "
                                f"{self.timeout_s:g}s timeout {failures} times",
                                code="worker.timeout",
                                hint="raise --task-timeout or investigate the hang",
                                task=key, attempts=failures,
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

    def _retry_or_raise(self, task: SimTask, failures: int, error: Exception) -> None:
        """Count a retry of ``task`` and back off, or raise once its
        ``failures`` exceed the retry budget."""
        if failures > self.retry.max_retries:
            key = _task_key(task)
            raise WorkerError(
                f"task {key[:12]}… failed after {failures} attempts: {error}",
                code="worker.retries_exhausted",
                hint="transient failures exhausted the retry budget; see --retries",
                task=key, attempts=failures,
            ) from error
        self.stats.retries += 1
        obs.counter("jobs.retries").inc()
        self._emit("retried", task)
        time.sleep(self.retry.delay_s(failures))

    # -- estimates ----------------------------------------------------
    def estimate(self, config: NPUConfig, library: Optional[CellLibrary] = None) -> NPUEstimate:
        """Architecture-level estimate, memoized in-process and on disk."""
        return self.lookup_estimate(config, library)[0]

    def lookup_estimate(self, config: NPUConfig, library: Optional[CellLibrary] = None,
                        ) -> Tuple[NPUEstimate, bool]:
        """:meth:`estimate` plus whether it was served without computing
        (from this runner's memo or the on-disk cache)."""
        library = library or library_for(Technology.RSFQ)
        content = estimate_content(config, library)
        cached = self._estimates.get(content)
        if cached is not None:
            return cached, True
        # Only the on-disk cache reads the key.
        key = None if self.cache is None else estimate_key(config, library)
        estimate = None if key is None else self._cached(key, estimate_from_dict)
        served = estimate is not None
        if served:
            obs.counter("jobs.estimate_cache.hits").inc()
        else:
            obs.counter("jobs.estimate_cache.misses").inc()
            estimate = estimate_npu(config, library)
            # Units in sorted-name order, as estimate_from_dict makes them.
            estimate.units = {name: estimate.units[name] for name in sorted(estimate.units)}
            if key is not None:
                self.cache.put(key, estimate_to_dict(estimate), kind="estimate")
        _remember(self._estimates, content, estimate)
        if content not in _WORKER_ESTIMATES:
            # The charge passes read only its (bitwise equal) frequency.
            _remember(_WORKER_ESTIMATES, content, estimate)
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


class BuiltOnRead(Sequence):
    """A sequence whose item ``i`` is ``build(i)``, made on first read and kept."""

    def __init__(self, size: int, build: Callable[[int], Any]) -> None:
        self._items: List[Any] = [_UNBUILT] * size
        self._build = build

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._items)))]
        item = self._items[index]
        if item is _UNBUILT:
            item = self._items[index] = self._build(index % len(self._items))
        return item

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


#: An item :class:`BuiltOnRead` has not built yet.
_UNBUILT = object()


class RunResults(BuiltOnRead):
    """:meth:`JobRunner.run`'s results in task order, plus ``cached[i]``:
    whether the cache served task ``i`` (False: it was simulated).

    A result charged in a group pass is built on first read; until then
    :meth:`value` answers its totals' metrics from the pass.
    """

    def __init__(self, results: Sequence[Any], cached: Sequence[bool]) -> None:
        slots = list(results)
        super().__init__(len(slots), lambda index: (
            slots[index].build() if type(slots[index]) is _Charged else slots[index]))
        self._slots = slots
        self.cached = list(cached)

    def value(self, index: int, metric: str) -> Any:
        """Result ``index``'s ``metric``, None if it has none; ``batch``,
        ``frequency_ghz``, ``total_cycles``, ``total_macs`` and their rates
        (``mac_per_s``, ...) without building the result."""
        try:
            return getattr(self._slots[index], metric)
        except AttributeError:
            return getattr(self[index], metric, None)


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
