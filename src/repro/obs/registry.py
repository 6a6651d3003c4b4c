"""``repro.obs.registry`` — a persistent, queryable registry of runs.

PRs 1–2 made a single run observable (metrics, spans, manifests);
nothing persisted *across* runs.  The registry closes that gap: every
CLI invocation appends one schema-versioned JSON entry — run manifest,
metrics snapshot (when observability was on), executed plan hashes,
exit code, wall time — under ``~/.supernpu/runs/`` (overridable with
``--runs-dir`` or ``SUPERNPU_RUNS_DIR``; disable with ``--no-registry``
or ``SUPERNPU_NO_REGISTRY=1``).  ``supernpu runs list|show|diff``
queries the history, so "did this PR change the evaluate numbers /
wall time / cache behavior" is answerable from the recorded trajectory
instead of memory.

Entries are one file each (``<run_id>.json``), written atomically, and
reads are damage-tolerant: an unreadable or wrong-schema entry is
skipped and counted, never fatal — the registry is an observability
surface and must not take down the command it observes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CacheError, ConfigError

#: Bump when the entry layout changes meaning; foreign versions are
#: skipped on read (counted as corrupt), never misinterpreted.
REGISTRY_SCHEMA_VERSION = 1

DEFAULT_RUNS_DIR = "~/.supernpu/runs"
RUNS_DIR_ENV = "SUPERNPU_RUNS_DIR"
NO_REGISTRY_ENV = "SUPERNPU_NO_REGISTRY"


def default_runs_dir() -> Path:
    """The active runs directory: ``$SUPERNPU_RUNS_DIR`` or ``~/.supernpu/runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR).expanduser()


def registry_disabled() -> bool:
    """True when ``SUPERNPU_NO_REGISTRY`` is set to a truthy value."""
    return os.environ.get(NO_REGISTRY_ENV, "") not in ("", "0", "false", "no")


@dataclass
class RunEntry:
    """One recorded invocation."""

    run_id: str
    command: str
    argv: List[str] = field(default_factory=list)
    exit_code: Optional[int] = None
    wall_time_s: Optional[float] = None
    created_unix: float = 0.0
    manifest: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    plans: List[Dict[str, str]] = field(default_factory=list)
    hotspot: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REGISTRY_SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": list(self.argv),
            "exit_code": self.exit_code,
            "wall_time_s": self.wall_time_s,
            "created_unix": self.created_unix,
            "manifest": self.manifest,
            "metrics": self.metrics,
            "plans": list(self.plans),
            "hotspot": self.hotspot,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunEntry":
        if not isinstance(data, dict) or data.get("schema") != REGISTRY_SCHEMA_VERSION:
            raise ValueError("not a registry entry (wrong schema)")
        return cls(
            run_id=data["run_id"],
            command=data["command"],
            argv=list(data.get("argv") or []),
            exit_code=data.get("exit_code"),
            wall_time_s=data.get("wall_time_s"),
            created_unix=data.get("created_unix", 0.0),
            manifest=data.get("manifest"),
            metrics=data.get("metrics"),
            plans=list(data.get("plans") or []),
            hotspot=data.get("hotspot"),
        )

    @property
    def counters(self) -> Dict[str, float]:
        """This run's recorded metric counters ({} when obs was off)."""
        if not self.metrics:
            return {}
        return dict(self.metrics.get("counters") or {})

    def describe(self) -> str:
        """A terminal-friendly multi-line rendering of the entry."""
        rows: List[Tuple[str, str]] = [
            ("run", self.run_id),
            ("command", " ".join(self.argv) if self.argv else self.command),
            ("exit code", "?" if self.exit_code is None else str(self.exit_code)),
        ]
        if self.wall_time_s is not None:
            rows.append(("wall time", f"{self.wall_time_s:.3f} s"))
        rows.append(("recorded", time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(self.created_unix))))
        for manifest_key in ("design", "workload", "batch", "technology",
                             "plan", "plan_hash"):
            value = (self.manifest or {}).get(manifest_key)
            if value is not None:
                rows.append((manifest_key, str(value)))
        if self.plans:
            rows.append(("plans", ", ".join(
                f"{p['name']} ({p['hash'][:12]})" for p in self.plans)))
        if self.hotspot:
            top = self.hotspot.get("top") or []
            label = (f"{top[0]['function']} ({top[0]['file']}:{top[0]['line']}, "
                     f"{top[0]['self_s'] * 1e3:.3f} ms self)") if top else "-"
            rows.append(("hotspot", f"{self.hotspot.get('functions')} functions, "
                                    f"top: {label}"))
        lines = [f"  {k:12s}: {v}" for k, v in rows]
        counters = self.counters
        if counters:
            lines.append("  counters    :")
            for name in sorted(counters):
                lines.append(f"    {name:32s} {counters[name]:>16,}")
        return "\n".join(lines)


def _new_run_id(sequence: int = 0) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"{stamp}-{os.getpid()}-{os.urandom(3).hex()}"
    return base if sequence == 0 else f"{base}-{sequence}"


class RunRegistry:
    """Append-only store of :class:`RunEntry` files in one directory."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_runs_dir()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(
                f"cannot create runs directory {self.root}: {error}",
                code="registry.unwritable",
                hint="pick a writable --runs-dir (or set SUPERNPU_RUNS_DIR)",
                path=str(self.root),
            ) from error

    def path_for(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    # -- writing -------------------------------------------------------
    def _reserve_run_id(self) -> Tuple[str, Path]:
        """Atomically allocate a run id nobody else holds.

        Creating the entry file with ``O_CREAT | O_EXCL`` is the
        allocation: the filesystem arbitrates between concurrent
        writers (the serve daemon records one entry per request, many
        in the same second from the same pid), so two racing
        ``append()`` calls can never agree on a name and overwrite
        each other.  Collisions retry with a sequence suffix.
        """
        for sequence in range(64):
            run_id = _new_run_id(sequence)
            path = self.path_for(run_id)
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError as error:
                raise CacheError(
                    f"cannot reserve run entry {run_id}: {error}",
                    code="registry.write_failed", path=str(path),
                ) from error
            os.close(handle)
            return run_id, path
        raise CacheError(
            "could not allocate a unique run id after 64 attempts",
            code="registry.write_failed", path=str(self.root),
        )

    def append(self, command: str,
               argv: Optional[Sequence[str]] = None,
               exit_code: Optional[int] = None,
               wall_time_s: Optional[float] = None,
               manifest: Optional[Dict[str, Any]] = None,
               metrics: Optional[Dict[str, Any]] = None,
               plans: Optional[Sequence[Dict[str, str]]] = None,
               hotspot: Optional[Dict[str, Any]] = None) -> RunEntry:
        """Record one invocation; returns the written entry."""
        run_id, path = self._reserve_run_id()
        entry = RunEntry(
            run_id=run_id,
            command=command,
            argv=list(argv or []),
            exit_code=exit_code,
            wall_time_s=wall_time_s,
            created_unix=time.time(),
            manifest=manifest,
            metrics=metrics,
            plans=list(plans or []),
            hotspot=hotspot,
        )
        # The reservation holds the name; content still lands through
        # tmp + replace so a reader never observes a torn entry.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(entry.to_dict(), sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError as error:
            for leftover in (tmp, path):
                try:
                    leftover.unlink()
                except OSError:
                    pass
            raise CacheError(
                f"failed to record run {entry.run_id}: {error}",
                code="registry.write_failed",
                hint="check free space and permissions on the runs directory",
                path=str(path),
            ) from error
        return entry

    # -- reading -------------------------------------------------------
    def entries(self, limit: Optional[int] = None,
                command: Optional[str] = None) -> Tuple[List[RunEntry], int]:
        """(newest-first entries, skipped-corrupt count).

        ``command`` filters to entries whose command name or full argv
        contains the substring (case-insensitive) — applied *before*
        ``limit``, so "the last 5 evaluate runs" composes naturally.
        Damaged files — torn writes, truncated JSON, foreign schemas —
        are skipped and counted, so one bad entry never blocks history.
        """
        loaded: List[RunEntry] = []
        corrupt = 0
        for path in self.root.glob("*.json"):
            try:
                loaded.append(RunEntry.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))))
            except (OSError, ValueError, KeyError, TypeError):
                corrupt += 1
        if command:
            needle = command.lower()
            loaded = [
                e for e in loaded
                if needle in e.command.lower()
                or needle in " ".join(e.argv).lower()
            ]
        loaded.sort(key=lambda e: (e.created_unix, e.run_id), reverse=True)
        if limit is not None:
            loaded = loaded[:limit]
        return loaded, corrupt

    def get(self, run_id: str) -> RunEntry:
        """One entry by exact id or unique prefix (``ConfigError`` otherwise)."""
        path = self.path_for(run_id)
        if path.is_file():
            try:
                return RunEntry.from_dict(
                    json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError, KeyError, TypeError) as error:
                raise ConfigError(
                    f"run entry {run_id} is unreadable: {error}",
                    code="registry.corrupt_entry", run_id=run_id,
                ) from error
        entries, _ = self.entries()
        matches = [e for e in entries if e.run_id.startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ConfigError(
                f"no recorded run matches {run_id!r}",
                code="registry.unknown_run",
                hint="see 'supernpu runs list'", run_id=run_id,
            )
        raise ConfigError(
            f"{len(matches)} recorded runs match {run_id!r}; be more specific",
            code="registry.ambiguous_run",
            hint="; ".join(e.run_id for e in matches[:5]), run_id=run_id,
        )

    # -- comparison ----------------------------------------------------
    def diff(self, a: str, b: str) -> Dict[str, Any]:
        """Structured difference between two recorded runs.

        Covers identity fields (command/design/workload/plan), wall
        time, and every metric counter present in either run.
        """
        first, second = self.get(a), self.get(b)
        fields: Dict[str, Dict[str, Any]] = {}
        for name in ("command", "exit_code"):
            va, vb = getattr(first, name), getattr(second, name)
            if va != vb:
                fields[name] = {"a": va, "b": vb}
        for name in ("design", "workload", "batch", "technology",
                     "plan", "plan_hash", "package_version"):
            va = (first.manifest or {}).get(name)
            vb = (second.manifest or {}).get(name)
            if va != vb:
                fields[name] = {"a": va, "b": vb}
        counters: Dict[str, Dict[str, float]] = {}
        ca, cb = first.counters, second.counters
        for name in sorted(set(ca) | set(cb)):
            va, vb = ca.get(name, 0), cb.get(name, 0)
            if va != vb:
                counters[name] = {"a": va, "b": vb, "delta": vb - va}
        wall = None
        if first.wall_time_s is not None and second.wall_time_s is not None:
            wall = second.wall_time_s - first.wall_time_s
        return {
            "a": first.run_id,
            "b": second.run_id,
            "fields": fields,
            "counters": counters,
            "wall_time_delta_s": wall,
        }


def record_invocation(command: str,
                      argv: Sequence[str],
                      exit_code: Optional[int],
                      wall_time_s: float,
                      runs_dir: Optional[Union[str, Path]] = None,
                      manifest: Optional[Dict[str, Any]] = None,
                      metrics: Optional[Dict[str, Any]] = None,
                      hotspot: Optional[Dict[str, Any]] = None,
                      ) -> Optional[RunEntry]:
    """Best-effort append of one CLI invocation (never raises).

    The registry observes commands; a full disk or read-only home
    directory must not turn a successful ``supernpu evaluate`` into a
    failure, so every error here is swallowed and ``None`` returned.
    The entry's plans are the manifest's ``plans``.
    """
    if registry_disabled():
        return None
    try:
        registry = RunRegistry(runs_dir)
        return registry.append(
            command=command,
            argv=argv,
            exit_code=exit_code,
            wall_time_s=wall_time_s,
            manifest=manifest,
            metrics=metrics,
            plans=(manifest or {}).get("plans"),
            hotspot=hotspot,
        )
    except Exception:
        return None
