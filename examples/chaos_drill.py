"""Chaos drill: prove the execution layer recovers from injected failures.

Runs the same four-point batch sweep four times and demands bitwise-equal
results every time:

1. a clean serial baseline;
2. under SIGKILLed workers — the process pool dies twice and the runner
   degrades to serial execution;
3. interrupted mid-sweep and resumed from the result cache, which holds
   every task that finished, executing only the remaining tasks;
4. against a cache with a poisoned entry, which is quarantined and
   re-simulated.

This is the CI chaos smoke step (see ``docs/ROBUSTNESS.md``); run it
locally with ``PYTHONPATH=src python examples/chaos_drill.py``.
"""

import sys
import tempfile
from pathlib import Path

from repro import api, obs
from repro.core.chaos import ANY_TASK, ChaosInjector, FaultSpec, corrupt_cache_entry
from repro.core.jobs import JobRunner, ResultCache, SimTask
from repro.core.resilience import NO_RETRY, RetryPolicy
from repro.errors import WorkerError

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, jitter=0.0)


def main() -> int:
    obs.enable()
    design = api.design("supernpu")
    network = api.workload("mobilenet")
    tasks = [SimTask(design, network, batch=b) for b in (1, 2, 4, 8)]

    print("chaos drill: SuperNPU x MobileNet, batches 1/2/4/8")
    print("== phase 1: clean serial baseline")
    clean = JobRunner(jobs=1).run(tasks)
    for run in clean:
        print(f"   batch {run.batch}: {run.total_cycles:,} cycles")

    with tempfile.TemporaryDirectory(prefix="chaos-drill-") as scratch:
        scratch = Path(scratch)

        print("== phase 2: SIGKILLed workers -> degrade to serial")
        chaos = ChaosInjector(scratch / "sigkill",
                              {ANY_TASK: FaultSpec("sigkill", times=3)})
        runner = JobRunner(jobs=2, chaos=chaos, retry=FAST_RETRY)
        assert runner.run(tasks) == clean, "degraded results differ!"
        assert runner.stats.degraded == 1, "the pool should have died twice"
        print(f"   {runner.stats.describe()}")

        print("== phase 3: interrupted sweep resumes from the cache")
        cache = ResultCache(scratch / "cache")
        chaos = ChaosInjector(scratch / "fatal",
                              {tasks[-1].key(): FaultSpec("exception", times=9)})
        try:
            JobRunner(jobs=1, cache=cache, chaos=chaos, retry=NO_RETRY).run(tasks)
            raise AssertionError("the injected fault should have interrupted the sweep")
        except WorkerError as error:
            print(f"   interrupted as planned: {error.code}")
        resumed = JobRunner(jobs=1, cache=cache)
        assert resumed.run(tasks) == clean, "resumed results differ!"
        assert resumed.stats.executed == 1, "resume must only run remaining tasks"
        assert resumed.stats.hits == 3, "the finished tasks must be cache hits"
        print(f"   {resumed.stats.describe()}")

        print("== phase 4: poisoned cache entry is quarantined")
        corrupt_cache_entry(cache, tasks[0].key(), "poisoned_payload")
        repaired = JobRunner(jobs=1, cache=cache)
        assert repaired.run(tasks) == clean, "post-quarantine results differ!"
        stats = cache.stats()
        assert stats.quarantined == 1, "the poisoned entry should be quarantined"
        print(f"   {repaired.stats.describe()}; quarantined {stats.quarantined}")

    counters = obs.metrics().snapshot()["counters"]
    print("== resilience counters")
    for name in ("jobs.retries", "jobs.pool_restarts", "jobs.degraded",
                 "jobs.cache.quarantined"):
        print(f"   {name:24s}: {counters.get(name, 0)}")
    print("chaos drill passed: all recovery paths reproduce the clean run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
