"""Span tracer tests: nesting, Chrome export, summary table, no-op path."""

import json

from repro.obs.tracing import Tracer, _NOOP_SPAN


def make_tracer():
    return Tracer(enabled=True)


def test_spans_nest():
    tracer = make_tracer()
    with tracer.span("outer"):
        with tracer.span("inner", layer="conv1"):
            pass
        with tracer.span("inner", layer="conv2"):
            pass
    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert outer.name == "outer"
    assert [c.attrs["layer"] for c in outer.children] == ["conv1", "conv2"]
    assert outer.end_s is not None
    assert all(c.duration_s <= outer.duration_s for c in outer.children)


def test_annotate_adds_attrs():
    tracer = make_tracer()
    with tracer.span("s", a=1) as span:
        span.annotate(b=2)
    assert tracer.roots[0].attrs == {"a": 1, "b": 2}


def test_disabled_tracer_records_nothing():
    tracer = Tracer()  # disabled by default
    with tracer.span("s", key="value"):
        pass
    assert tracer.roots == []
    assert tracer.span("again") is _NOOP_SPAN


def test_chrome_trace_export():
    tracer = make_tracer()
    with tracer.span("simulate", design="SuperNPU"):
        with tracer.span("simulate/layer", layer="conv1"):
            pass
    trace = tracer.to_chrome_trace(metadata={"command": "profile"})
    events = trace["traceEvents"]
    assert [e["name"] for e in events] == ["simulate", "simulate/layer"]
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert {"pid", "tid", "args"} <= set(event)
    # The child starts no earlier and ends no later than its parent.
    parent, child = events
    assert child["ts"] >= parent["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
    assert trace["metadata"] == {"command": "profile"}
    assert events[0]["args"] == {"design": "SuperNPU"}
    # The JSON form round-trips.
    assert json.loads(tracer.to_chrome_trace_json())["traceEvents"]


def test_reset():
    tracer = make_tracer()
    with tracer.span("s"):
        pass
    tracer.reset()
    assert tracer.roots == [] and tracer.enabled


def test_exception_unwinds_stack():
    tracer = make_tracer()
    try:
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer._stack == []
    assert tracer.roots[0].end_s is not None
    with tracer.span("next"):
        pass
    assert [r.name for r in tracer.roots] == ["outer", "next"]


def test_simulate_produces_nested_layer_spans(obs_enabled, supernpu_config,
                                              tiny_network):
    from repro.simulator.engine import simulate

    simulate(supernpu_config, tiny_network, batch=1)
    roots = obs_enabled.tracer().roots
    sim_root = next(r for r in roots if r.name == "simulate")
    layer_spans = [c for c in sim_root.children if c.name == "simulate/layer"]
    assert [c.attrs["layer"] for c in layer_spans] == [
        l.name for l in tiny_network.layers
    ]
    assert all("cycles" in c.attrs for c in layer_spans)
    # estimate_npu ran inside simulate(), so its span nests under it.
    estimate_spans = [c for c in sim_root.children if c.name == "estimate"]
    assert estimate_spans and estimate_spans[0].children


def test_estimate_unit_spans(obs_enabled, baseline_config, rsfq):
    from repro.estimator.arch_level import estimate_npu

    estimate_npu(baseline_config, rsfq)
    root = obs_enabled.tracer().roots[0]
    assert root.name == "estimate"
    units = {c.attrs["unit"] for c in root.children if c.name == "estimate/unit"}
    assert {"pe_array", "ifmap_buffer", "output_buffer"} <= units
