"""The serving layer: protocol, admission, coalescing, daemon lifecycle.

Unit tests pin the deterministic pieces (token buckets under injected
clocks, envelope rendering, the admission ladder's order); the
integration tests boot a real in-thread daemon and hold it to the
contract from docs/ROBUSTNESS.md — identical requests get bitwise-
identical bodies, sheds are structured 429/503/504/408 with
``Retry-After``, and SIGTERM-equivalent shutdown drains cleanly.
"""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.core.chaos import ChaosInjector, FaultSpec
from repro.core.jobs import ResultCache
from repro.errors import (
    CacheError,
    ConfigError,
    SimulationError,
    WorkloadError,
)
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import ServeClient
from repro.serve.coalesce import SingleFlight
from repro.serve.daemon import EvalDaemon, ServeConfig, daemon_in_thread
from repro.serve.engine import ENDPOINTS, ServeEngine, request_key
from repro.serve.protocol import (
    ProtocolError,
    error_envelope,
    render_response,
    split_response,
    status_for_error,
    success_envelope,
)


# -- token buckets (injected clock: no sleeping, no flakes) ---------------

def test_token_bucket_burst_then_starves():
    bucket = TokenBucket(rate_per_s=2.0, burst=3, now=0.0)
    assert all(bucket.take(now=0.0) for _ in range(3))
    assert not bucket.take(now=0.0)
    # At 2 tokens/s, half a second grows one token back.
    assert bucket.retry_after_s(now=0.0) == pytest.approx(0.5)
    assert bucket.take(now=0.5)
    assert not bucket.take(now=0.5)


def test_token_bucket_refill_caps_at_burst():
    bucket = TokenBucket(rate_per_s=100.0, burst=2, now=0.0)
    assert bucket.take(now=0.0) and bucket.take(now=0.0)
    # A long idle period refills to the cap, not beyond it.
    assert bucket.take(now=60.0) and bucket.take(now=60.0)
    assert not bucket.take(now=60.0)


def test_token_bucket_validation():
    with pytest.raises(ConfigError):
        TokenBucket(rate_per_s=0.0, burst=1)
    with pytest.raises(ConfigError):
        TokenBucket(rate_per_s=1.0, burst=0)


@pytest.mark.parametrize("field, value, flag", [
    ("quota_rate_per_s", 0.0, "--quota-rps"),
    ("quota_rate_per_s", -1.0, "--quota-rps"),
    ("quota_burst", 0, "--quota-burst"),
    ("deadline_s", 0.0, "--deadline"),
    ("read_timeout_s", 0.0, "--header-timeout"),
    ("drain_timeout_s", -1.0, "--drain-timeout"),
])
def test_bad_admission_and_deadline_settings_fail_at_startup(field, value, flag,
                                                             capsys):
    """A setting every request would trip over is refused before binding."""
    with pytest.raises(ConfigError):
        EvalDaemon(ServeConfig(**{field: value}))
    assert main(["serve", flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "listening" not in captured.err


# -- the admission ladder -------------------------------------------------

def test_admission_ladder_order_and_release():
    admission = AdmissionController(max_inflight=2, quota_rate_per_s=1000.0,
                                    quota_burst=1000)
    assert admission.admit("a").admitted
    assert admission.admit("a").admitted
    overloaded = admission.admit("b")  # bound is shared across clients
    assert not overloaded.admitted
    assert overloaded.status == 503 and overloaded.code == "serve.overloaded"
    admission.release()
    assert admission.admit("b").admitted

    admission.draining = True  # draining outranks a free slot
    admission.release()
    drained = admission.admit("a")
    assert drained.status == 503 and drained.code == "serve.draining"
    assert drained.retry_after_s > 0


def test_admission_quota_is_per_client():
    admission = AdmissionController(max_inflight=100, quota_rate_per_s=0.001,
                                    quota_burst=1)
    assert admission.admit("greedy").admitted
    shed = admission.admit("greedy")
    assert shed.status == 429 and shed.code == "serve.quota"
    assert shed.retry_after_s > 0
    assert admission.admit("polite").admitted  # separate bucket, unharmed


# -- single flight --------------------------------------------------------

def test_single_flight_coalesces_until_forgotten():
    async def scenario():
        flights = SingleFlight()
        first, lead1 = flights.join("k1")
        second, lead2 = flights.join("k1")
        other, lead3 = flights.join("k2")
        assert lead1 and not lead2 and lead3
        assert first is second and other is not first
        assert flights.coalesced_total == 1 and len(flights) == 2
        first.set_result("done")
        flights.forget("k1")
        fresh, lead4 = flights.join("k1")  # post-completion: a new flight
        assert lead4 and fresh is not first
        fresh.set_result("done")

    asyncio.run(scenario())


# -- protocol: envelopes and the error mapping ----------------------------

def test_envelopes_are_canonical_and_stable():
    body = success_envelope("estimate", {"b": 1, "a": 2})
    assert body == '{"data":{"a":2,"b":1},"endpoint":"estimate","ok":true}'
    error = json.loads(error_envelope("serve.quota", "slow down", hint="wait"))
    assert error["ok"] is False
    assert error["error"] == {"code": "serve.quota", "message": "slow down",
                              "hint": "wait"}


def test_status_for_error_mirrors_exit_codes():
    assert status_for_error(ConfigError("bad")) == 400
    assert status_for_error(WorkloadError("bad")) == 400
    assert status_for_error(SimulationError("broke")) == 500
    assert status_for_error(CacheError("broke")) == 500
    assert status_for_error(RuntimeError("other")) == 500
    assert status_for_error(ProtocolError("slow", status=408)) == 408


def test_render_and_split_round_trip():
    raw = render_response(429, error_envelope("serve.quota", "wait"),
                          {"Retry-After": "0.500"})
    status, headers, body = split_response(raw)
    assert status == 429
    assert headers["retry-after"] == "0.500"
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == "serve.quota"


def test_request_key_is_order_insensitive_content_hash():
    a = request_key("estimate", {"design": "SuperNPU", "technology": "rsfq"})
    b = request_key("estimate", {"technology": "rsfq", "design": "SuperNPU"})
    c = request_key("estimate", {"design": "Baseline", "technology": "rsfq"})
    d = request_key("simulate", {"design": "SuperNPU", "technology": "rsfq"})
    assert a == b
    assert len({a, c, d}) == 3


# -- the engine: determinism and parameter hygiene ------------------------

def test_engine_bodies_are_bitwise_identical_cold_and_warm(tmp_path):
    """The core contract: cache temperature must not leak into bodies."""
    engine = ServeEngine(cache_dir=tmp_path / "cache", jobs=1)
    uncached = ServeEngine(cache_dir=None, jobs=1)
    for endpoint, params in (
            ("estimate", {"design": "SuperNPU"}),
            ("simulate", {"design": "Baseline", "workload": "mobilenet",
                          "batch": 2}),
            ("evaluate", {"designs": ["SuperNPU"], "workloads": ["mobilenet"]}),
    ):
        cold, _ = engine.handle(endpoint, dict(params))
        warm, _ = engine.handle(endpoint, dict(params))
        clean, _ = uncached.handle(endpoint, dict(params))
        assert cold == warm == clean, f"{endpoint} body drifted with cache heat"


def test_engine_rejects_unknown_endpoint_and_params(tmp_path):
    engine = ServeEngine(cache_dir=tmp_path / "cache")
    with pytest.raises(ConfigError) as excinfo:
        engine.handle("meditate", {})
    assert excinfo.value.code == "serve.unknown_endpoint"
    with pytest.raises(ConfigError) as excinfo:
        engine.handle("estimate", {"design": "SuperNPU", "librarry": "rsfq"})
    assert excinfo.value.code == "serve.bad_params"
    for batch in (-1, 0, 2.5, 2.0, True, "2"):
        with pytest.raises(WorkloadError) as excinfo:
            engine.handle("simulate", {"batch": batch})
        assert excinfo.value.code == "workload.invalid_batch"
    for params in ({"designs": "SuperNPU"}, {"workloads": {"a": 1}}):
        with pytest.raises(ConfigError) as excinfo:
            engine.handle("evaluate", params)
        assert excinfo.value.code == "serve.bad_params"
    for params in ({}, {"plan": ""}, {"plan": 3}):
        with pytest.raises(ConfigError) as excinfo:
            engine.handle("plan/run", params)
        assert excinfo.value.code == "serve.bad_params"
    assert "plan/run" in ENDPOINTS


# -- the front ends agree ---------------------------------------------------

def _cli_json_data(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)["data"]


def test_serve_bodies_match_the_cli_and_the_core_calls(capsys):
    """One computation, one record: for every shared verb, serve's wire
    ``data`` is what the CLI's ``--json`` envelope prints."""
    engine = ServeEngine(cache_dir=None, jobs=1)
    for endpoint, params, argv in (
            ("estimate", {"design": "Baseline", "technology": "ersfq"},
             ["estimate", "baseline", "--technology", "ersfq"]),
            ("simulate", {"design": "Baseline", "workload": "mobilenet",
                          "batch": 2, "technology": "ersfq"},
             ["simulate", "baseline", "mobilenet", "--batch", "2",
              "--technology", "ersfq"]),
            ("evaluate", {}, ["evaluate"]),
            ("plan/run", {"plan": "cooling_sensitivity"},
             ["plan", "run", "cooling_sensitivity"]),
    ):
        body, _ = engine.handle(endpoint, params)
        assert json.loads(body)["data"] == _cli_json_data(capsys, argv), endpoint


def test_plan_run_cache_temperature_rides_in_headers(tmp_path):
    engine = ServeEngine(cache_dir=tmp_path / "cache", jobs=1)
    cold, cold_meta = engine.handle("plan/run", {"plan": "cooling_sensitivity"})
    warm, warm_meta = engine.handle("plan/run", {"plan": "cooling_sensitivity"})
    assert cold == warm
    total = str(json.loads(cold)["data"]["points_total"])
    assert (cold_meta["X-Points-Cached"], cold_meta["X-Points-Executed"]) == ("0", total)
    assert (warm_meta["X-Points-Cached"], warm_meta["X-Points-Executed"]) == (total, "0")


# -- the daemon, end to end -----------------------------------------------

def test_daemon_serves_identical_bodies_and_structured_errors(tmp_path):
    config = ServeConfig(cache_dir=tmp_path / "cache", jobs=1,
                         quota_rate_per_s=1000.0, quota_burst=1000)
    with daemon_in_thread(config) as daemon:
        client = ServeClient(port=daemon.port, client_id="t")

        health = client.health()
        assert health.ok and health.data["status"] == "ok"

        first = client.post("estimate", {"design": "SuperNPU"})
        second = client.post("estimate", {"design": "SuperNPU"})
        assert first.status == second.status == 200
        assert first.body == second.body  # cold vs warm, byte for byte
        assert first.headers["x-request-id"] != second.headers["x-request-id"]

        bad = client.post("estimate", {"design": "MegaNPU9000"})
        assert bad.status == 400 and bad.error_code  # taxonomy, not a 500

        missing = client.request("GET", "/v1/estimate")
        assert missing.status == 405
        nowhere = client.request("POST", "/v1/nothing", body={})
        assert nowhere.status == 404 and nowhere.error_code == "serve.not_found"

        stats = client.stats()
        assert stats.ok
        assert stats.data["serve"]["serve.responses_200"] >= 2
    assert ResultCache(tmp_path / "cache").stats().tmp_swept == 0  # no torn tail left


def test_daemon_quota_shed_carries_retry_after(tmp_path):
    config = ServeConfig(cache_dir=tmp_path / "cache",
                         quota_rate_per_s=0.5, quota_burst=2)
    with daemon_in_thread(config) as daemon:
        greedy = ServeClient(port=daemon.port, client_id="greedy")
        statuses = [greedy.post("estimate", {"design": "SuperNPU"}).status
                    for _ in range(4)]
        assert statuses.count(200) == 2
        shed = greedy.post("estimate", {"design": "SuperNPU"})
        assert shed.status == 429 and shed.error_code == "serve.quota"
        assert float(shed.headers["retry-after"]) > 0
        # A different client's bucket is untouched.
        polite = ServeClient(port=daemon.port, client_id="polite")
        assert polite.post("estimate", {"design": "SuperNPU"}).ok


def test_daemon_deadline_sheds_waiter_but_finishes_the_work(tmp_path):
    handler_chaos = ChaosInjector(
        tmp_path / "chaos",
        {"evaluate": FaultSpec("hung_handler", times=1, hang_seconds=1.0)})
    config = ServeConfig(cache_dir=tmp_path / "cache",
                         quota_rate_per_s=1000.0, quota_burst=1000,
                         handler_chaos=handler_chaos)
    with daemon_in_thread(config) as daemon:
        client = ServeClient(port=daemon.port, client_id="t")
        params = {"designs": ["SuperNPU"], "workloads": ["mobilenet"]}
        shed = client.post("evaluate", params, deadline_s=0.2)
        assert shed.status == 504 and shed.error_code == "serve.deadline"
        assert "retry-after" in shed.headers
        # The leader computation survived the waiter; the retry is served
        # (warm, since the hung handler still wrote through to the cache)
        # and matches a clean engine's body exactly.
        retry = client.post("evaluate", params)
        assert retry.status == 200
        clean, _ = ServeEngine(cache_dir=None).handle("evaluate", dict(params))
        assert retry.body == clean


def test_daemon_sheds_slow_clients_and_drains_on_shutdown(tmp_path):
    config = ServeConfig(cache_dir=tmp_path / "cache",
                         read_timeout_s=0.3,
                         port_file=tmp_path / "daemon.port")
    with daemon_in_thread(config) as daemon:
        client = ServeClient(port=daemon.port, client_id="t")
        assert int((tmp_path / "daemon.port").read_text()) == daemon.port
        slow = client.request("GET", "/health", slow_chunk=1,
                              slow_delay_s=0.15, timeout_s=10.0)
        assert slow.status == 408 and slow.error_code == "serve.slow_client"
        assert client.health().ok  # one bad client never wedges the daemon

        daemon.trigger_shutdown()
        for _ in range(100):
            if daemon.admission.draining:
                break
            time.sleep(0.01)
        assert daemon.admission.draining
    assert not (tmp_path / "daemon.port").exists()  # removed by the drain
