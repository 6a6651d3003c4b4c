"""The daemon chaos drill as a test: survive and stay bitwise-identical.

:func:`repro.serve.drill.run_chaos_drill` boots an in-thread daemon
under worker SIGKILLs, a hung handler, mid-load cache corruption, tight
quotas, and a dribbling slow client — and raises ``DrillFailure`` the
moment any surviving response diverges from a clean single-client run
or any shed arrives unstructured.  The test simply runs it and checks
the report's evidence; the drill owns the assertions.
"""

import pytest

from repro.core.jobs import ResultCache
from repro.serve.drill import DRILL_REQUESTS, DrillFailure, clean_baseline, run_chaos_drill
from repro.serve.engine import ServeEngine, request_key


def test_clean_baseline_is_reproducible():
    """The golden run itself must be stable, or the drill proves nothing."""
    first = clean_baseline()
    second = clean_baseline()
    assert first == second
    assert set(first) == {request_key(e, p) for e, p in DRILL_REQUESTS}


def test_chaos_drill_survives_with_bitwise_identical_responses(tmp_path):
    report = run_chaos_drill(tmp_path)
    # Every 200 was checked against the clean run inside the drill; the
    # report's counts are the evidence that the checks actually ran.
    assert report.responses_200 == report.matched
    assert report.responses_200 >= len(DRILL_REQUESTS)
    assert report.shed_429 >= 1  # the greedy client was quota-shed
    assert report.deadline_504 == 1  # the hung handler shed exactly once
    assert report.slow_408 == 1
    assert ResultCache(tmp_path / "cache").stats().tmp_swept == 0  # no torn tail left


def test_drill_failure_is_loud(tmp_path):
    """A diverging body must abort the drill, not be absorbed."""
    golden = clean_baseline()
    endpoint, params = DRILL_REQUESTS[0]
    engine = ServeEngine(cache_dir=None)
    body, _ = engine.handle(endpoint, dict(params))
    assert golden[request_key(endpoint, params)] == body
    with pytest.raises(DrillFailure):
        from repro.serve.drill import _match_or_die, DrillReport
        _match_or_die(DrillReport(), golden, endpoint, params,
                      body + " ", "tampered")
