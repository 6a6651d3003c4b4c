"""One workload in one fresh interpreter: set up, measure, check, report.

``run.py`` starts this script.  It imports ``repro`` from the checkout's
``src/``, builds the workload's inputs, runs the untimed warm-up op and
prints ``ready`` followed by the host-speed probes taken at its start and
at that point; that line ends the set-up ``run.py`` times.  With
``--setup-only`` it exits there.  Otherwise it runs ops in a closed loop
for ``--seconds``, checks every output, and prints one JSON line.

With ``--trace 1`` the ops alternate between traced and untraced: the
traced ones give the per-layer split, and the pair gives the tracer's own
overhead.  The traced run also writes a Chrome trace of its first op.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

import hostspeed
from tracer import Target, Tracer, layer_table

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "out"

#: Percentiles a latency report may show; one is shown only when at
#: least ``TAIL_SAMPLES`` measured ops lie beyond it (the median always).
PERCENTILES = (50, 90, 99, 99.9)
TAIL_SAMPLES = 10

#: Traced ops per run at most.  A fixed count makes ``single_point``'s
#: per-op call counts, which depend on the requests traced, repeat
#: exactly; a sweep run never reaches it.
TRACED_OPS = 400

JOBS, PLAN, ENGINE = "repro.core.jobs", "repro.core.plan", "repro.simulator.engine"


def _count_points(counts: Counter, args: tuple, lowered: Any) -> None:
    counts["plan_points"] += len(lowered.points)
    counts["plan_unique"] += len(lowered.sim_tasks())


def _count_tasks(counts: Counter, args: tuple, result: Any) -> None:
    counts["tasks"] += len(args[1])


def _count_hit(counts: Counter, args: tuple, payload: Any) -> None:
    counts["cache_hits"] += payload is not None


#: Each layer's entry points, at the binding their callers look up.
TARGETS = (
    Target("plan.lower", PLAN, "lower", _count_points),
    Target("plan.execute", PLAN, "execute"),
    Target("plan.execute", "repro.core.search", "execute"),
    Target("jobs.run", JOBS, "JobRunner.run", _count_tasks),
    Target("jobs.key", JOBS, "SimTask.key"),
    Target("jobs.key", JOBS, "estimate_key"),
    Target("jobs.key", PLAN, "estimate_key"),
    *(Target("jobs.signature", module, name) for module in (JOBS, PLAN)
      for name in ("config_signature", "workload_signature", "library_fingerprint")),
    Target("jobs.cache.get", JOBS, "ResultCache.get", _count_hit),
    Target("jobs.cache.put", JOBS, "ResultCache.put"),
    Target("jobs.codec.encode", JOBS, "result_to_dict"),
    Target("jobs.codec.encode", JOBS, "estimate_to_dict"),
    Target("jobs.codec.decode", JOBS, "result_from_dict"),
    Target("jobs.codec.decode", JOBS, "estimate_from_dict"),
    Target("estimator", JOBS, "estimate_npu"),
    Target("simulator.simulate", JOBS, "simulate"),
    Target("simulator.layer", ENGINE, "simulate_layer"),
    Target("simulator.mapping", ENGINE, "map_layer"),
    Target("baselines", JOBS, "simulate_cmos"),
    Target("api", "repro.api", "simulate"),
)

#: Units of the end-to-end metrics a workload process measures itself
#: (``run.py`` adds ``setup_s``).
E2E_UNITS = {"points_per_s": "points/s", "latency_p50_ms": "ms", "peak_rss_mb": "MiB"}

#: Units of the per-layer metrics, by name suffix or full name.
LAYER_UNITS = {
    "calls": "calls/op",
    "self_ms": "ms/op",
    "share": "fraction",
    "jobs.key.calls_per_task": "calls/task",
    "jobs.codec.decode.calls_per_task": "calls/task",
    "jobs.cache.hit_ratio": "fraction",
    "plan.unique_ratio": "fraction",
    "simulator.us_per_layer": "us",
    "trace.overhead": "ratio",
}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reportable_percentiles(samples: int) -> List[float]:
    """The median, plus each percentile with ``TAIL_SAMPLES`` ops beyond it."""
    return [q for q in PERCENTILES
            if q == 50 or round(samples * (100 - q) / 100, 6) >= TAIL_SAMPLES]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def e2e_metrics(op_ns: Sequence[float], points: int) -> Dict[str, float]:
    """End-to-end metrics from a run's untraced op times (reference-speed ns)."""
    p50_ms = median(op_ns) / 1e6
    return {
        "points_per_s": points / (p50_ms / 1e3),
        "latency_p50_ms": p50_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer: Tracer, untraced_ns: Sequence[int],
                  traced_ns: Sequence[int]) -> Dict[str, float]:
    """Per-layer calls, self time and share per op, plus the layer ratios."""
    metrics = {f"{layer}.{key}": value
               for layer, row in layer_table(tracer).items()
               for key, value in row.items()}
    calls, counts = tracer.calls, tracer.counts
    metrics.update({
        "jobs.key.calls_per_task": _ratio(calls["jobs.key"], counts["tasks"]),
        "jobs.codec.decode.calls_per_task":
            _ratio(calls["jobs.codec.decode"], counts["tasks"]),
        "jobs.cache.hit_ratio": _ratio(counts["cache_hits"], calls["jobs.cache.get"]),
        "plan.unique_ratio": _ratio(counts["plan_unique"], counts["plan_points"]),
        "simulator.us_per_layer":
            _ratio(tracer.total_ns["simulator.simulate"] / 1e3, calls["simulator.layer"]),
        "trace.overhead": median(traced_ns) / median(untraced_ns),
    })
    return metrics


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


@dataclass
class Samples:
    """One run's op timings: ``untraced`` and ``traced`` at reference host
    speed, ``wall`` the unscaled untraced ones, ``scales`` one per block."""

    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    wall: List[int] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced) + sum(self.failures.values())


def measure(workload: Any, seconds: float, tracer: Optional[Tracer] = None) -> Samples:
    """Closed loop of checked ops for ``seconds``, in probe-bracketed blocks.

    Each block of ``workload.ops_per_probe`` ops is followed by a garbage
    collection and a host-speed probe, which with the probe before it
    scales the block's op times.  With a tracer every other op is traced,
    up to ``TRACED_OPS``, and at least one op of each kind runs.
    """
    samples = Samples()
    minimum = 1 if tracer is None else 2
    deadline = perf_counter() + seconds
    attempted = 0
    before = hostspeed.probe_ns()
    while attempted < minimum or perf_counter() < deadline:
        block: List[Tuple[int, bool]] = []
        for _ in range(workload.ops_per_probe):
            use_tracer = (tracer is not None and attempted % 2 == 0
                          and tracer.ops < TRACED_OPS)
            attempted += 1
            try:
                output, elapsed = _timed_op(workload, tracer if use_tracer else None)
                workload.check(output)
            except Exception as error:  # one failed op must not end the run
                if not samples.failures:
                    traceback.print_exc(file=sys.stderr)
                samples.failures[f"{type(error).__name__}: {error}"] += 1
                continue
            block.append((elapsed, use_tracer))
        gc.collect()
        after = hostspeed.probe_ns()
        scale = hostspeed.scale(before, after)
        before = after
        samples.scales.append(scale)
        for elapsed, was_traced in block:
            (samples.traced if was_traced else samples.untraced).append(elapsed * scale)
            if not was_traced:
                samples.wall.append(elapsed)
    return samples


def _timed_op(workload: Any, tracer: Optional[Tracer]) -> Tuple[Any, int]:
    if tracer is None:
        start = perf_counter_ns()
        output = workload.op()
        return output, perf_counter_ns() - start
    with tracer.installed():
        start = perf_counter_ns()
        with tracer.op():
            output = workload.op()
        elapsed = perf_counter_ns() - start
    return output, elapsed


def run(workload: Any, seconds: float, trace: bool, chrome_path: Path) -> Dict[str, Any]:
    """Measure a set-up workload and build this run's result document."""
    tracer = Tracer(TARGETS) if trace else None
    samples = measure(workload, seconds, tracer)
    untraced, traced = samples.untraced, samples.traced
    problems = [f"{count}x {message}" for message, count in samples.failures.items()]
    try:
        info = workload.finish()
    except Exception as error:  # a failed run-level check is reported, not raised
        info = {}
        problems.append(f"{type(error).__name__}: {error}")
    if not untraced or (trace and not traced):
        raise SystemExit(f"{workload.name}: no op succeeded: {problems}")
    if tracer is None:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in e2e_metrics(untraced, workload.points).items()}
    else:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer_metrics(tracer, untraced, traced).items()}
        tracer.write_chrome(str(chrome_path))
        info["absent_layers"] = tracer.absent
        info["chrome_trace"] = str(chrome_path)
    info["wall_p50_ms"] = median(samples.wall) / 1e6
    info["host_scale_p50"] = median(samples.scales)
    return {
        "correct": not problems,
        "attempted": samples.attempted,
        "failed": sum(samples.failures.values()),
        "metrics": metrics,
        "samples": len(untraced),
        "traced_samples": len(traced),
        "latency_ms": {str(q): percentile(untraced, q) / 1e6
                       for q in reportable_percentiles(len(untraced))},
        "digest": workload.digest,
        "problems": problems,
        "info": info,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe_before = hostspeed.probe_ns()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}")
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        workload.check(workload.op())  # the untimed warm-up op
        print("ready", probe_before, hostspeed.probe_ns(), flush=True)
        if args.setup_only:
            return 0
        chrome = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        print(json.dumps(run(workload, args.seconds, bool(args.trace), chrome)), flush=True)
        return 0
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
