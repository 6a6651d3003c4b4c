"""Measure the benchmark's own noise: repeated runs per workload, one seed each.

    python3 benchmarks/e2e/calibrate.py --seeds 0-9 --out benchmarks/e2e/baseline.json

Runs ``run.py --workload W --seed S`` for every workload and seed, then
records for each end-to-end metric its min, median and max, and its
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the bound ``BENCHMARK.json`` allows.  A metric other than ``setup_s``
whose spread exceeds a third of its bound is flagged.  It also reports
whether every run was correct and the distinct result digests of each
workload: one for a sweep workload, whose output does not depend on the
seed, and one per seed for ``single_point``, whose requests do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: Optional[int]) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    document = json.loads((HERE / "out" / f"e2e_{workload}_seed{seed}_trace0.json")
                          .read_text(encoding="utf-8"))
    return document["workloads"][workload]


def summarize(results: Dict[str, List[Dict[str, Any]]],
              bounds: Dict[str, float]) -> Dict[str, Any]:
    """Per workload and metric: min / median / max / spread / bound, plus checks."""
    summary: Dict[str, Any] = {}
    for workload, runs in results.items():
        metrics = {}
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {
                "min": min(values), "median": statistics.median(values),
                "max": max(values), "spread": spread(values), "bound": bound,
                "flagged": metric != "setup_s" and spread(values) > bound / 3,
            }
        digests = sorted({run["digest"] for run in runs})
        summary[workload] = {
            "runs": len(runs),
            "all_correct": all(run["correct"] and not run["failed"] for run in runs),
            "digests": digests,
            "metrics": metrics,
        }
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                        help="e.g. 0-9 or 0,3,5 (default 0-9)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    results: Dict[str, List[Dict[str, Any]]] = {}
    for workload in args.workloads.split(","):
        results[workload] = [run_once(workload, seed, args.seconds) for seed in args.seeds]
    summary = summarize(results, bounds)
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, correct={entry['all_correct']}, "
              f"{len(entry['digests'])} distinct digest(s)")
        for metric, row in entry["metrics"].items():
            flag = "  FLAGGED" if row["flagged"] else ""
            print(f"  {metric:<16} median {row['median']:<12.6g} min {row['min']:<12.6g} "
                  f"max {row['max']:<12.6g} spread {row['spread']:7.2%} "
                  f"bound {row['bound']:.0%}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "workloads": summary},
                                       indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
