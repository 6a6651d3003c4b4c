"""End-to-end benchmark of the SuperNPU reproduction's sweep and request paths.

    python3 benchmarks/e2e/run.py --seed 0                       # all workloads
    python3 benchmarks/e2e/run.py --workload dse_search --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload warm_rerun --seed 0 --trace 1

Each workload runs in fresh single-process interpreters (``worker.py``):
``SETUP_STARTS`` of them set up, and the median of their start-to-ready
times is ``setup_s``; the last one goes on to measure for ``--seconds``.
Every timing is scaled to a reference host speed by ``hostspeed``'s probe;
the report also shows the unscaled wall-clock medians.
A human-readable report goes to stdout, and the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or per-layer metrics with ``--trace 1``).
Without ``--workload`` every workload runs in turn and the last line holds
all their results.  The full results, with digests, sample counts and
unscaled wall times, are also written under ``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("dse_search", "paper_figures", "warm_rerun", "single_point")
DEFAULT_SECONDS = 20
#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_STARTS = 3
#: Wall-clock budget of one workload, all its interpreters included.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed or ran out of time; there is no result."""


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up ``name`` in fresh interpreters, measure it once, return its result."""
    deadline = perf_counter() + BUDGET_S
    base = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    # PYTHONHASHSEED pins string hashing, and with it hash-table layout and
    # set order, for steadier timing; no output depends on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    starts = 1 if trace else SETUP_STARTS
    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    for start in range(starts):
        measuring = start == starts - 1
        began = perf_counter()
        process = subprocess.Popen(base + ([] if measuring else ["--setup-only"]),
                                   cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), process.kill)
        watchdog.start()
        try:
            ready = process.stdout.readline()
            wall_s = perf_counter() - began
            output = process.stdout.read()
            process.wait()
        finally:
            watchdog.cancel()
            process.kill()
            process.wait()
            process.stdout.close()
        fields = ready.split()
        if process.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise BenchError(f"{name}: workload process exited with {process.returncode}")
        # The set-up's own two probes are not set-up work.
        before, after = int(fields[1]), int(fields[2])
        setup_wall_s.append(wall_s - (before + after) / 1e9)
        setup_s.append(setup_wall_s[-1] * hostspeed.scale(before, after))
    lines = output.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: workload process printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": median(setup_s), "unit": "s"}
        result["setup_samples_s"] = setup_s
        result["info"]["setup_wall_s"] = median(setup_wall_s)
    return result


def report(name: str, seed: int, result: Dict[str, Any]) -> str:
    """Human-readable lines: every metric with its unit and sample count."""
    samples = result["samples"]
    lines = [f"{name}  seed={seed}  ops={result['attempted']} "
             f"failed={result['failed']}  correct={result['correct']}  "
             f"digest={result['digest'][:16]}"]
    for metric, entry in result["metrics"].items():
        if metric == "setup_s":
            basis = f"median of {len(result['setup_samples_s'])} fresh starts"
        elif metric == "peak_rss_mb":
            basis = "measuring process"
        elif metric in ("points_per_s", "latency_p50_ms"):
            basis = f"median of {samples} ops"
        else:
            basis = f"over {result['traced_samples']} traced ops"
        lines.append(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']:<10} {basis}")
    tails = "  ".join(f"p{q}={value:.4g}" for q, value in result["latency_ms"].items())
    lines.append(f"  op latency ms at reference host speed, {samples} ops: {tails}")
    for key, value in result["info"].items():
        lines.append(f"  {key}: {value}")
    for problem in result["problems"]:
        lines.append(f"  PROBLEM {problem}")
    return "\n".join(lines)


def _contract(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from an outside-in trace")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(report(name, args.seed, results[name]), flush=True)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    document = {"seed": args.seed, "trace": args.trace, "workloads": results}
    OUT.mkdir(exist_ok=True)
    (OUT / f"e2e_{args.workload or 'all'}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(document, indent=2), encoding="utf-8")
    if args.workload:
        print(json.dumps(_contract(results[args.workload])))
    else:
        print(json.dumps({name: _contract(result) for name, result in results.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
