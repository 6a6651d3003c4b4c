"""Host-time hotspot profiling (``repro.obs.hotspot``).

The rest of ``repro.obs`` attributes *simulated* cycles (timeline,
bottleneck, roofline) and *end-to-end* wall time (bench).  This module
closes the remaining gap: which **Python frames** burn the host's wall
clock, so the RK4 / cycle-model inner loops named by ROADMAP item 2 can
be located before a numpy rewrite and re-checked afterwards.

Two stdlib-only collection modes, one data model:

* ``sampling`` — a daemon thread walks ``sys._current_frames()`` at a
  configurable rate (default ~97 Hz; a prime, so it does not alias with
  common periodic work).  Near-zero overhead, statistically accurate for
  runs lasting tens of milliseconds or more.
* ``tracing`` — a deterministic ``sys.setprofile`` hook recording exact
  per-function call counts and self/cumulative wall time.  Higher
  overhead, but the *set of frames and call counts* is bitwise-stable
  across runs of a fixed workload, which makes it testable and the right
  mode for sub-millisecond commands.

Both feed a :class:`HotspotProfile`: per-stack sample weights that
aggregate into per-function self/cumulative time, export as collapsed
stacks (``flamegraph.pl`` format), render as a top-N terminal report,
serialize to/from JSON (so pool workers can ship samples to the parent
in a sidecar, see ``repro.core.jobs``), and join with the cycle-domain
attribution of ``repro.simulator.attribution`` so each simulated phase
(compute / preparation / dram) maps to the host frames that model it.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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

# Stack root→leaf, as frame keys.
StackKey = Tuple[FrameKey, ...]

MODES = ("sampling", "tracing")

DEFAULT_SAMPLE_HZ = 97.0
DEFAULT_MAX_DEPTH = 64

PROFILE_SCHEMA_VERSION = 1


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
    grouped = {}
    for group, phases in _PHASE_GROUPS.items():
        grouped[group] = sum(summary_fractions.get(phase, 0.0) for phase in phases)
    return grouped


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
    by_phase: Dict[Optional[str], Dict[FrameKey, float]] = {}
    for stat in profile.function_stats():
        _, phase = classify_frame(stat.key)
        by_phase.setdefault(phase, {})[stat.key] = stat.self_s
    rows: List[Dict[str, Any]] = []
    for group in ("compute", "preparation", "dram"):
        frames = by_phase.get(group, {})
        hottest = sorted(frames.items(), key=lambda kv: (-kv[1], kv[0]))[:top_frames]
        rows.append({
            "phase": group,
            "cycle_fraction": grouped.get(group, 0.0),
            "host_self_s": sum(frames.values()),
            "frames": [_frame_label(key) for key, _ in hottest],
        })
    other = by_phase.get(None, {})
    rows.append({
        "phase": "unattributed",
        "cycle_fraction": 0.0,
        "host_self_s": sum(other.values()),
        "frames": [
            _frame_label(key)
            for key, _ in sorted(other.items(), key=lambda kv: (-kv[1], kv[0]))[:top_frames]
        ],
    })
    return rows


# -- profile data model --------------------------------------------------

@dataclass
class FunctionStat:
    """Aggregated per-function host time."""

    key: FrameKey
    self_s: float = 0.0
    cum_s: float = 0.0
    calls: int = 0
    samples: int = 0

    @property
    def label(self) -> str:
        return _frame_label(self.key)


class HotspotProfile:
    """Aggregated stack samples with export, merge and serialization.

    The core storage is ``stack_seconds`` / ``stack_counts``: for every
    observed root→leaf stack, the summed self-time attributed to its leaf
    and the number of samples (sampling) or returns (tracing) observed.
    Everything else — per-function stats, collapsed stacks, reports — is
    derived.
    """

    def __init__(self, mode: str = "sampling", interval_s: float = 0.0) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown hotspot mode {mode!r}; expected one of {MODES}")
        self.mode = mode
        self.interval_s = interval_s
        self.duration_s = 0.0
        self.samples = 0
        self.stack_seconds: Dict[StackKey, float] = {}
        self.stack_counts: Dict[StackKey, int] = {}
        self.calls: Dict[FrameKey, int] = {}
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def add(self, stack: StackKey, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of self-time to ``stack``'s leaf frame."""
        if not stack:
            return
        with self._lock:
            self.stack_seconds[stack] = self.stack_seconds.get(stack, 0.0) + seconds
            self.stack_counts[stack] = self.stack_counts.get(stack, 0) + count

    def add_call(self, key: FrameKey, count: int = 1) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + count

    def merge(self, other: "HotspotProfile") -> None:
        """Fold another profile's samples into this one (worker merge)."""
        with self._lock:
            for stack, seconds in other.stack_seconds.items():
                self.stack_seconds[stack] = self.stack_seconds.get(stack, 0.0) + seconds
            for stack, count in other.stack_counts.items():
                self.stack_counts[stack] = self.stack_counts.get(stack, 0) + count
            for key, count in other.calls.items():
                self.calls[key] = self.calls.get(key, 0) + count
            self.samples += other.samples

    # -- derived views --------------------------------------------------
    def function_stats(self) -> List[FunctionStat]:
        """Per-function self/cumulative time, sorted by self-time desc.

        Self time sums the leaf attributions; cumulative time counts each
        stack once per *distinct function on it* (so recursion does not
        double-count).
        """
        with self._lock:
            stacks = dict(self.stack_seconds)
            counts = dict(self.stack_counts)
            calls = dict(self.calls)
        stats: Dict[FrameKey, FunctionStat] = {}
        for stack, seconds in stacks.items():
            leaf = stack[-1]
            stat = stats.setdefault(leaf, FunctionStat(leaf))
            stat.self_s += seconds
            stat.samples += counts.get(stack, 0)
            for key in set(stack):
                stats.setdefault(key, FunctionStat(key)).cum_s += seconds
        for key, count in calls.items():
            stats.setdefault(key, FunctionStat(key)).calls = count
        return sorted(stats.values(), key=lambda s: (-s.self_s, -s.cum_s, s.key))

    def top(self, n: int = 10) -> List[FunctionStat]:
        return self.function_stats()[:n]

    def total_seconds(self) -> float:
        with self._lock:
            return sum(self.stack_seconds.values())

    def collapsed(self) -> str:
        """Collapsed-stack export, one ``a;b;c value`` line per stack.

        Directly consumable by ``flamegraph.pl`` / speedscope.  Values
        are integer microseconds of leaf self-time; stacks are sorted
        lexically so the output is deterministic for a fixed profile.
        """
        with self._lock:
            stacks = dict(self.stack_seconds)
        lines = []
        for stack in sorted(stacks):
            frames = ";".join(
                f"{name} {_short_path(filename)}:{lineno}"
                for name, filename, lineno in stack
            )
            micros = int(round(stacks[stack] * 1e6))
            lines.append(f"{frames} {micros}")
        return "\n".join(lines)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema_version": PROFILE_SCHEMA_VERSION,
                "mode": self.mode,
                "interval_s": self.interval_s,
                "duration_s": self.duration_s,
                "samples": self.samples,
                "stacks": [
                    {
                        "frames": [list(frame) for frame in stack],
                        "seconds": seconds,
                        "count": self.stack_counts.get(stack, 0),
                    }
                    for stack, seconds in sorted(self.stack_seconds.items())
                ],
                "calls": [
                    {"frame": list(key), "count": count}
                    for key, count in sorted(self.calls.items())
                ],
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HotspotProfile":
        profile = cls(mode=data.get("mode", "sampling"),
                      interval_s=data.get("interval_s", 0.0))
        profile.duration_s = data.get("duration_s", 0.0)
        profile.samples = data.get("samples", 0)
        for entry in data.get("stacks", []):
            stack = tuple(
                (str(frame[0]), str(frame[1]), int(frame[2]))
                for frame in entry["frames"]
            )
            profile.stack_seconds[stack] = float(entry.get("seconds", 0.0))
            profile.stack_counts[stack] = int(entry.get("count", 0))
        for entry in data.get("calls", []):
            frame = entry["frame"]
            profile.calls[(str(frame[0]), str(frame[1]), int(frame[2]))] = int(entry["count"])
        return profile

    def summary(self, top_n: int = 5) -> Dict[str, Any]:
        """Compact summary for RunRegistry entries and BENCH documents."""
        stats = self.function_stats()
        return {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 6),
            "samples": self.samples,
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
        header = (f"hotspot [{self.mode}]: {len(stats)} functions, "
                  f"{self.samples} samples over {self.duration_s * 1e3:.1f} ms host time")
        lines = [header,
                 f"{'self ms':>10s} {'self %':>7s} {'cum ms':>10s} {'calls':>8s}  function"]
        for stat in stats[:top_n]:
            share = 100.0 * stat.self_s / total if total else 0.0
            calls = str(stat.calls) if stat.calls else "-"
            lines.append(
                f"{stat.self_s * 1e3:>10.3f} {share:>6.1f}% {stat.cum_s * 1e3:>10.3f} "
                f"{calls:>8s}  {stat.label}"
            )
        if len(stats) == 0:
            lines.append("(no samples collected — try --hotspot-mode tracing "
                         "or a longer workload)")
        # Stdlib/harness frames (argparse, dataclasses.asdict, ...) often
        # crowd the global ranking on short commands; a framework-only
        # sub-ranking keeps the simulator's inner loops visible.
        repro_stats = [stat for stat in stats
                       if classify_frame(stat.key)[0] != "other"]
        if repro_stats and repro_stats[:5] != stats[:5]:
            lines.append("")
            lines.append("top repro frames (framework code only):")
            for stat in repro_stats[:5]:
                share = 100.0 * stat.self_s / total if total else 0.0
                calls = str(stat.calls) if stat.calls else "-"
                lines.append(
                    f"{stat.self_s * 1e3:>10.3f} {share:>6.1f}% "
                    f"{stat.cum_s * 1e3:>10.3f} {calls:>8s}  {stat.label}"
                )
        if phase_fractions is not None:
            lines.append("")
            lines.append("cycle-domain join (simulated fraction vs host self time):")
            lines.append(f"{'phase':<14s} {'sim %':>7s} {'host ms':>10s}  hottest frames")
            for row in join_with_phases(self, phase_fractions):
                frames = "; ".join(row["frames"]) if row["frames"] else "-"
                lines.append(
                    f"{row['phase']:<14s} {100.0 * row['cycle_fraction']:>6.1f}% "
                    f"{row['host_self_s'] * 1e3:>10.3f}  {frames}"
                )
        return "\n".join(lines)


# -- collectors ----------------------------------------------------------

#: This module's source path, used to keep profiler-internal frames out
#: of collected profiles.
_OWN_FILE = __file__


def _extract_stack(frame: Any, max_depth: int) -> StackKey:
    """Walk ``frame.f_back`` links into a root→leaf tuple of frame keys."""
    frames: List[FrameKey] = []
    while frame is not None and len(frames) < max_depth:
        code = frame.f_code
        frames.append((code.co_name, code.co_filename, code.co_firstlineno))
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class _SamplerThread(threading.Thread):
    """Daemon thread attributing one interval of wall time per sample."""

    def __init__(self, profile: HotspotProfile, interval_s: float, max_depth: int) -> None:
        super().__init__(name="hotspot-sampler", daemon=True)
        self._profile = profile
        self._interval_s = interval_s
        self._max_depth = max_depth
        # NB: threading.Thread has a private _stop() method; don't shadow it.
        self._stop_event = threading.Event()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)

    def run(self) -> None:
        own = self.ident
        while not self._stop_event.wait(self._interval_s):
            frames = sys._current_frames()
            for thread_id, frame in frames.items():
                if thread_id == own:
                    continue
                stack = _extract_stack(frame, self._max_depth)
                if stack:
                    self._profile.add(stack, self._interval_s, 1)
            self._profile.samples += 1


class _TracingCollector:
    """Deterministic ``sys.setprofile`` collector for the calling thread."""

    def __init__(self, profile: HotspotProfile, max_depth: int) -> None:
        self._profile = profile
        self._max_depth = max_depth
        # Each entry: [frame key, entry perf_counter, accumulated child seconds]
        self._stack: List[List[Any]] = []

    def install(self) -> None:
        sys.setprofile(self._dispatch)

    def uninstall(self) -> None:
        sys.setprofile(None)
        # Frames still open when profiling stops get credited up to now.
        now = time.perf_counter()
        while self._stack:
            self._close_top(now)

    def _dispatch(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            key = (code.co_name, code.co_filename, code.co_firstlineno)
            if len(self._stack) < self._max_depth:
                self._stack.append([key, time.perf_counter(), 0.0])
        elif event == "return":
            # Returns from frames entered before install() find an empty
            # stack; ignore them.
            if self._stack:
                self._close_top(time.perf_counter())

    def _close_top(self, now: float) -> None:
        key, started, child_s = self._stack.pop()
        elapsed = now - started
        if self._stack:
            self._stack[-1][2] += elapsed
        if key[1] == _OWN_FILE:
            # The profiler's own teardown frames (stop/uninstall) are
            # mid-flight when the hook is removed; keep them out of the
            # profile so a fixed workload's frame set stays stable.
            return
        self_s = max(0.0, elapsed - child_s)
        path = tuple(entry[0] for entry in self._stack
                     if entry[0][1] != _OWN_FILE) + (key,)
        self._profile.add(path, self_s, 1)
        self._profile.add_call(key, 1)


class HotspotProfiler:
    """Start/stop wrapper around one collection run.

    Usable as a context manager::

        with HotspotProfiler(mode="tracing") as profiler:
            run_workload()
        print(profiler.profile.report(), file=sys.stderr)

    While running, the profiler registers itself as the process-ambient
    profiler (:func:`active_profiler`) so `repro.core.jobs` can forward
    the request to pool workers and :func:`absorb` their samples back.
    """

    def __init__(self, mode: str = "sampling",
                 sample_hz: float = DEFAULT_SAMPLE_HZ,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown hotspot mode {mode!r}; expected one of {MODES}")
        if sample_hz <= 0:
            raise ValueError(f"sample_hz must be positive, got {sample_hz}")
        self.mode = mode
        self.sample_hz = sample_hz
        self.max_depth = max_depth
        interval = 1.0 / sample_hz if mode == "sampling" else 0.0
        self.profile = HotspotProfile(mode=mode, interval_s=interval)
        self._sampler: Optional[_SamplerThread] = None
        self._tracer: Optional[_TracingCollector] = None
        self._started_at: Optional[float] = None

    def start(self) -> "HotspotProfiler":
        if self._started_at is not None:
            return self
        self._started_at = time.perf_counter()
        if self.mode == "sampling":
            self._sampler = _SamplerThread(self.profile, self.profile.interval_s,
                                           self.max_depth)
            self._sampler.start()
        else:
            self._tracer = _TracingCollector(self.profile, self.max_depth)
            self._tracer.install()
        _set_active(self)
        return self

    def stop(self) -> HotspotProfile:
        if self._started_at is None:
            return self.profile
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        if self._tracer is not None:
            self._tracer.uninstall()
            self._tracer = None
        self.profile.duration_s += time.perf_counter() - self._started_at
        self._started_at = None
        _set_active(None)
        return self.profile

    def __enter__(self) -> "HotspotProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# -- process-ambient profiler -------------------------------------------

_active: Optional[HotspotProfiler] = None


def _set_active(profiler: Optional[HotspotProfiler]) -> None:
    global _active
    _active = profiler


def active_profiler() -> Optional[HotspotProfiler]:
    """The profiler currently running in this process, if any."""
    return _active


def absorb(data: Dict[str, Any]) -> bool:
    """Merge a serialized worker profile into the active profiler.

    Returns False (and drops the data) when no profiler is running —
    worker sidecars are best-effort.
    """
    profiler = _active
    if profiler is None:
        return False
    profiler.profile.merge(HotspotProfile.from_dict(data))
    return True
