"""Host-time hotspot profiling (``repro.obs.hotspot``).

The rest of ``repro.obs`` attributes *simulated* cycles (timeline,
bottleneck, roofline) and wall time per traced span.  This module
closes the remaining gap: which **Python functions** burn the host's
wall clock, so the inner loops of the cycle model and the solvers can be
located before a rewrite and re-checked afterwards.

Collection is stdlib ``cProfile``: deterministic per-function call
counts, self and cumulative wall time, and caller→callee edges.  A
:class:`HotspotProfile` is built from the ``pstats`` table.  It ranks
functions in a top-N terminal report, exports the edges as two-frame
collapsed stacks (``flamegraph.pl`` format), and joins with the
cycle-domain attribution of ``repro.simulator.attribution``, so each
simulated phase (compute / preparation / dram) maps to the host frames
that model it.  Pool workers return their raw ``pstats`` table with each
task's result and the parent folds it in (see ``repro.core.jobs``).

``cProfile`` and ``pstats`` are imported only when a profiler starts,
so importing ``repro`` does not pay for them.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "FrameKey",
    "FunctionStat",
    "HotspotProfile",
    "HotspotProfiler",
    "active_profiler",
    "absorb",
    "classify_frame",
    "group_phase_fractions",
    "join_with_phases",
]

# (function name, file path, first line of the function)
FrameKey = Tuple[str, str, int]

# (caller, callee)
Edge = Tuple[FrameKey, FrameKey]


def _frame_label(key: FrameKey) -> str:
    name, filename, lineno = key
    return f"{name} ({_short_path(filename)}:{lineno})"


def _short_path(path: str) -> str:
    """Trim a file path to its interesting tail (``repro/...`` when possible)."""
    norm = path.replace("\\", "/")
    for marker in ("/repro/", "/tests/", "/benchmarks/", "/examples/"):
        idx = norm.rfind(marker)
        if idx >= 0:
            return norm[idx + 1:]
    parts = norm.rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else norm


# -- cycle-domain join ---------------------------------------------------

# File basename (within repro/) → simulated phase group.  The groups match
# the compute/preparation/dram partition used by `supernpu bottleneck`.
_PHASE_BY_FILE = {
    "simulator/memory.py": "dram",
    "simulator/mapping.py": "preparation",
    "uarch/buffers.py": "preparation",
    "simulator/engine.py": "compute",
    "simulator/kernel.py": "compute",
    "simulator/trace.py": "compute",
    "uarch/pe.py": "compute",
    "uarch/mac.py": "compute",
    "jsim/solver.py": "compute",
    "jsim/netlist.py": "compute",
}

# Phases reported by repro.simulator.attribution → the three bound groups.
_PHASE_GROUPS = {
    "compute": ("compute",),
    "preparation": ("weight_load", "ifmap_prep", "psum_move", "activation_transfer"),
    "dram": ("dram_stall",),
}


def classify_frame(key: FrameKey) -> Tuple[str, Optional[str]]:
    """Return ``(domain, phase_group)`` for a frame.

    ``domain`` is the ``repro`` subpackage (``simulator``, ``jsim``,
    ``estimator``, ...) or ``"other"``; ``phase_group`` is one of
    ``compute`` / ``preparation`` / ``dram`` when the file models a
    simulated phase, else ``None``.
    """
    norm = key[1].replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx < 0:
        return "other", None
    tail = norm[idx + len("/repro/"):]
    domain = tail.split("/", 1)[0] if "/" in tail else "repro"
    return domain, _PHASE_BY_FILE.get(tail)


def group_phase_fractions(summary_fractions: Dict[str, float]) -> Dict[str, float]:
    """Collapse attribution phase fractions into compute/preparation/dram."""
    return {group: sum(summary_fractions.get(phase, 0.0) for phase in phases)
            for group, phases in _PHASE_GROUPS.items()}


def join_with_phases(profile: "HotspotProfile",
                     summary_fractions: Dict[str, float],
                     top_frames: int = 3) -> List[Dict[str, Any]]:
    """Join host self-time with simulated-cycle phase fractions.

    One row per bound group (compute / preparation / dram) plus an
    ``unattributed`` row: the fraction of *simulated* cycles the phase
    accounts for, the *host* self-seconds spent in frames that model it,
    and the hottest such frames.  This is the evidence trail for "which
    loop deserves vectorizing": a phase that dominates simulated cycles
    but burns little host time is already cheap to model; one that
    dominates both is the target.
    """
    grouped = group_phase_fractions(summary_fractions)
    by_phase: Dict[Optional[str], List[FunctionStat]] = {}
    for stat in profile.function_stats():  # hottest first
        by_phase.setdefault(classify_frame(stat.key)[1], []).append(stat)
    return [
        {
            "phase": group or "unattributed",
            "cycle_fraction": grouped.get(group, 0.0),
            "host_self_s": sum(stat.self_s for stat in by_phase.get(group, [])),
            "frames": [stat.label for stat in by_phase.get(group, [])[:top_frames]],
        }
        for group in ("compute", "preparation", "dram", None)
    ]


# -- profile data model --------------------------------------------------

@dataclass
class FunctionStat:
    """Aggregated per-function host time."""

    key: FrameKey
    self_s: float = 0.0
    cum_s: float = 0.0
    calls: int = 0

    @property
    def label(self) -> str:
        return _frame_label(self.key)


#: This module's source path, used to keep profiler-internal frames out
#: of collected profiles.
_OWN_FILE = __file__

#: ``Profile.disable`` is recorded as the last call of every profile.
_DISABLE_BUILTIN = "<method 'disable' of '_lsprof.Profiler' objects>"


def _is_profiler_frame(key: FrameKey) -> bool:
    return key[1] == _OWN_FILE or key[0] == _DISABLE_BUILTIN


class HotspotProfile:
    """Per-function host time and caller→callee edges of one profiled run.

    ``edges`` maps ``(caller, callee)`` to the callee's self seconds
    while called from that caller.  Everything else (rankings, collapsed
    stacks, reports) is derived.
    """

    def __init__(self, functions: Iterable[FunctionStat] = (),
                 edges: Optional[Dict[Edge, float]] = None,
                 duration_s: float = 0.0) -> None:
        self.functions: Dict[FrameKey, FunctionStat] = {
            stat.key: stat for stat in functions}
        self.edges: Dict[Edge, float] = dict(edges or {})
        self.duration_s = duration_s

    @classmethod
    def from_stats(cls, stats: Dict[Any, Any],
                   duration_s: float = 0.0) -> "HotspotProfile":
        """Build from a ``pstats.Stats.stats`` table, minus profiler frames.

        The table maps ``(file, line, name)`` to ``(primitive calls,
        calls, self s, cum s, callers)``; each caller entry holds the
        same four numbers for that one edge.
        """
        functions = []
        edges: Dict[Edge, float] = {}
        for (filename, line, name), (_, calls, self_s, cum_s, callers) in stats.items():
            key = (name, filename, line)
            if _is_profiler_frame(key):
                continue
            functions.append(FunctionStat(key, self_s, cum_s, calls))
            for (caller_file, caller_line, caller_name), edge in callers.items():
                caller = (caller_name, caller_file, caller_line)
                if not _is_profiler_frame(caller):
                    edges[(caller, key)] = edge[2]
        return cls(functions, edges, duration_s)

    # -- derived views --------------------------------------------------
    @property
    def calls(self) -> Dict[FrameKey, int]:
        """Exact call count per function."""
        return {key: stat.calls for key, stat in self.functions.items()}

    def function_stats(self) -> List[FunctionStat]:
        """Per-function self/cumulative time, sorted by self-time desc."""
        return sorted(self.functions.values(),
                      key=lambda s: (-s.self_s, -s.cum_s, s.key))

    def total_seconds(self) -> float:
        return sum(stat.self_s for stat in self.functions.values())

    def collapsed(self) -> str:
        """Collapsed-stack export, one ``caller;callee value`` line per edge.

        ``cProfile`` records caller→callee edges, not whole stacks, so a
        flamegraph built from this is two frames deep; a function with no
        profiled caller is one frame on its own.  Values are integer
        microseconds of the callee's self-time under that caller; lines
        are sorted so the output is deterministic for a fixed profile.
        """
        lines = [f"{_frame_label(caller)};{_frame_label(callee)} {round(seconds * 1e6)}"
                 for (caller, callee), seconds in self.edges.items()]
        called = {callee for _, callee in self.edges}
        lines.extend(f"{stat.label} {round(stat.self_s * 1e6)}"
                     for key, stat in self.functions.items() if key not in called)
        return "\n".join(sorted(lines))

    def summary(self, top_n: int = 5) -> Dict[str, Any]:
        """Compact summary for RunRegistry entries and BENCH documents."""
        stats = self.function_stats()
        return {
            "duration_s": round(self.duration_s, 6),
            "calls": sum(stat.calls for stat in stats),
            "functions": len(stats),
            "top": [
                {
                    "function": stat.key[0],
                    "file": _short_path(stat.key[1]),
                    "line": stat.key[2],
                    "self_s": round(stat.self_s, 6),
                    "cum_s": round(stat.cum_s, 6),
                    "calls": stat.calls,
                }
                for stat in stats[:top_n]
            ],
        }

    # -- reporting ------------------------------------------------------
    def report(self, top_n: int = 10,
               phase_fractions: Optional[Dict[str, float]] = None) -> str:
        """Human-readable top-N hotspot table (stderr-destined)."""
        stats = self.function_stats()
        total = sum(stat.self_s for stat in stats)
        calls = sum(stat.calls for stat in stats)
        lines = [f"hotspot: {len(stats)} functions, {calls:,} calls over "
                 f"{self.duration_s * 1e3:.1f} ms host time",
                 f"{'self ms':>10s} {'self %':>7s} {'cum ms':>10s} {'calls':>8s}  function"]

        def row(stat: FunctionStat) -> str:
            share = 100.0 * stat.self_s / total if total else 0.0
            return (f"{stat.self_s * 1e3:>10.3f} {share:>6.1f}% "
                    f"{stat.cum_s * 1e3:>10.3f} {stat.calls:>8d}  {stat.label}")

        lines.extend(row(stat) for stat in stats[:top_n])
        if not stats:
            lines.append("(no calls recorded)")
        # Stdlib/harness frames (argparse, dataclasses.asdict, ...) often
        # crowd the global ranking on short commands; a framework-only
        # sub-ranking keeps the simulator's inner loops visible.
        repro_stats = [stat for stat in stats
                       if classify_frame(stat.key)[0] != "other"]
        if repro_stats and repro_stats[:5] != stats[:5]:
            lines.append("")
            lines.append("top repro frames (framework code only):")
            lines.extend(row(stat) for stat in repro_stats[:5])
        if phase_fractions is not None:
            lines.append("")
            lines.append("cycle-domain join (simulated fraction vs host self time):")
            lines.append(f"{'phase':<14s} {'sim %':>7s} {'host ms':>10s}  hottest frames")
            for entry in join_with_phases(self, phase_fractions):
                frames = "; ".join(entry["frames"]) if entry["frames"] else "-"
                lines.append(
                    f"{entry['phase']:<14s} {100.0 * entry['cycle_fraction']:>6.1f}% "
                    f"{entry['host_self_s'] * 1e3:>10.3f}  {frames}"
                )
        return "\n".join(lines)


# -- the profiler --------------------------------------------------------

class HotspotProfiler:
    """Start/stop wrapper around one ``cProfile`` run.

    Usable as a context manager::

        with HotspotProfiler() as profiler:
            run_workload()
        print(profiler.profile.report(), file=sys.stderr)

    While running, the profiler registers itself as the process-ambient
    profiler (:func:`active_profiler`) so `repro.core.jobs` can forward
    the request to pool workers and :func:`absorb` their stats back.
    Only one profiler may run at a time: starting a second one, or one
    while another tool profiles the thread, raises :class:`ConfigError`.
    """

    def __init__(self) -> None:
        self.profile = HotspotProfile()
        self._running: Any = None  # the cProfile.Profile while running
        self._stats: Any = None  # pstats.Stats: workers' while running, all after
        self._started_at = 0.0

    def start(self) -> "HotspotProfiler":
        if self._running is not None:
            return self
        import cProfile
        import pstats

        running = cProfile.Profile()
        try:
            if _active is not None or sys.getprofile() is not None:
                raise ValueError("a profile hook is installed")
            # Python 3.12+ raises ValueError itself when another
            # sys.monitoring profiler holds the slot.
            running.enable()
        except ValueError as error:
            raise ConfigError(
                "another profiler is already running in this process",
                code="hotspot.nested",
                hint="stop the other profiler first",
            ) from error
        self._running = running
        self._stats = pstats.Stats()
        self._started_at = time.perf_counter()
        _set_active(self)
        return self

    def stop(self) -> HotspotProfile:
        if self._running is None:
            return self.profile
        self._running.disable()
        duration = time.perf_counter() - self._started_at
        _set_active(None)
        try:
            self._stats.add(self._running)
        except TypeError:
            pass  # pstats refuses an empty profile
        self._running = None
        self.profile = HotspotProfile.from_stats(self._stats.stats, duration)
        return self.profile

    def stats_table(self) -> Dict[Any, Any]:
        """The stopped profile's raw ``pstats`` table, a picklable dict."""
        return self._stats.stats

    def __enter__(self) -> "HotspotProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# -- process-ambient profiler -------------------------------------------

_active: Optional[HotspotProfiler] = None


def _set_active(profiler: Optional[HotspotProfiler]) -> None:
    global _active
    _active = profiler


def _forget_after_fork() -> None:
    """A forked child must not keep feeding its parent's profiler copy."""
    if _active is not None:
        _active._running.disable()
        _set_active(None)


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_after_fork)


def active_profiler() -> Optional[HotspotProfiler]:
    """The profiler currently running in this process, if any."""
    return _active


def absorb(table: Dict[Any, Any]) -> bool:
    """Fold a worker's :meth:`HotspotProfiler.stats_table` into the
    active profiler.

    Returns False (and drops the data) when no profiler is running or
    the table is malformed — worker stats are best-effort.
    """
    if _active is None:
        return False
    import pstats

    # pstats reports bad data on its stream: keep stdout clean.
    stats = pstats.Stats(stream=sys.stderr)
    stats.stats = table
    try:
        stats.get_top_level_stats()
    except (ValueError, TypeError, AttributeError):
        return False
    _active._stats.add(stats)
    return True
