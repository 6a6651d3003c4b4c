"""Golden equivalence: vectorized hot paths vs their scalar references.

Three vectorized kernels replaced per-step / per-cycle Python loops, and
each keeps its original implementation alive as a golden reference:

* ``TransientSolver`` (batched RK4 array-program) vs
  ``ScalarReferenceSolver`` (the original per-step scatter/gather loop) —
  equal within ``RK4_ATOL``: the incidence-folded matmuls regroup the
  same floating-point sums, so bitwise identity is not expected, but the
  divergence is pure rounding (measured worst case ~6e-15 over 1200
  steps; the bound below leaves many orders of magnitude of margin while
  still catching any real math change).
* ``TransientSolver.run_batch`` vs a loop of scalar ``run()`` calls —
  **bitwise** identical: the stage operators are applied with ``einsum``,
  whose per-row reduction order does not depend on the batch size.
* ``SystolicArray.run`` / ``OSSystolicArray.run`` (skew-cancelled integer
  matmul) vs ``run_stepped`` (cycle-accurate emulation) — **bitwise**
  identical including int64 wraparound, because integer addition is
  associative.

The fast-path guards at the end make every scalar reference raise and
run the default entry points on full-size inputs, so a default that
quietly falls back to a scalar path fails here rather than only running
slower.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.functional.dau import aligned_streams
from repro.functional.os_systolic import OSSystolicArray, conv2d_os
from repro.functional.reference import conv2d_reference
from repro.functional.systolic import SystolicArray, conv2d_systolic
from repro.jsim import (
    Circuit,
    CurrentSource,
    Inductor,
    JosephsonJunction,
    Resistor,
    ScalarReferenceSolver,
    TransientSolver,
    build_jtl,
    drive_jtl,
    gaussian_pulse,
    pulse_train,
    ramped_bias,
    reference_run,
    switch_count,
)
from repro.jsim import solver as solver_module

#: Documented tolerance for vectorized-vs-scalar RK4 (see module docstring).
RK4_ATOL = 1e-9


def _random_circuit(seed: int, nodes: int = 6) -> Circuit:
    """A seeded random Josephson circuit exercising every element kind.

    Every node carries a junction so the mass matrix stays dominated by
    real junction capacitance (pure-parasitic nodes would be stiff for
    the fixed step and explode identically in both solvers — a vacuous
    comparison).
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit()
    ids = [circuit.node() for _ in range(nodes)]
    for node in ids:
        circuit.add_junction(
            JosephsonJunction(node, 0, critical_current_ua=float(rng.uniform(80, 250)))
        )
        circuit.add_source(
            CurrentSource(node, ramped_bias(float(rng.uniform(50, 150)), 20.0))
        )
    for a, b in zip(ids, ids[1:]):
        circuit.add_inductor(Inductor(a, b, float(rng.uniform(2, 12))))
    for _ in range(nodes // 2):
        a, b = rng.choice(ids, size=2, replace=False)
        circuit.add_resistor(Resistor(int(a), int(b), float(rng.uniform(1.0, 8.0))))
    circuit.add_source(
        CurrentSource(ids[0], gaussian_pulse(float(rng.uniform(5, 15)), 300.0))
    )
    circuit.add_source(
        CurrentSource(ids[-1], pulse_train(20.0, 8.0, 3, amplitude_ua=250.0))
    )
    return circuit


# -- RK4: vectorized vs scalar reference -----------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_solver_matches_scalar_reference(seed):
    circuit = _random_circuit(seed)
    fast = TransientSolver(circuit).run(30.0)
    golden = reference_run(circuit, 30.0)
    np.testing.assert_array_equal(fast.time_ps, golden.time_ps)
    np.testing.assert_allclose(fast.phases, golden.phases, atol=RK4_ATOL, rtol=0)
    np.testing.assert_allclose(fast.rates, golden.rates, atol=RK4_ATOL, rtol=0)


def test_jtl_pulse_propagation_matches_reference():
    jtl = build_jtl(6)
    drive_jtl(jtl, 25.0)
    fast = TransientSolver(jtl.circuit).run(60.0)
    golden = reference_run(jtl.circuit, 60.0)
    np.testing.assert_allclose(fast.phases, golden.phases, atol=RK4_ATOL, rtol=0)
    # The physics, not just the numbers: the pulse traverses either way.
    last = jtl.nodes[-1]
    assert switch_count(fast, last) == switch_count(golden, last) >= 1


def test_scalar_reference_respects_initial_phases_and_sampling():
    circuit = _random_circuit(3)
    initial = np.zeros(circuit.num_nodes)
    initial[1:] = np.linspace(0.1, 0.5, circuit.num_nodes - 1)
    fast = TransientSolver(circuit).run(12.0, sample_every=4, initial_phases=initial)
    golden = reference_run(circuit, 12.0, sample_every=4, initial_phases=initial)
    np.testing.assert_array_equal(fast.time_ps, golden.time_ps)
    np.testing.assert_allclose(fast.phases, golden.phases, atol=RK4_ATOL, rtol=0)


# -- run_batch vs looped run: bitwise ---------------------------------------

def test_run_batch_bitwise_identical_to_looped_runs():
    circuit = _random_circuit(4)
    solver = TransientSolver(circuit)
    rng = np.random.default_rng(7)
    initial = np.zeros((3, circuit.num_nodes))
    initial[:, 1:] = rng.uniform(-0.3, 0.3, size=(3, circuit.num_nodes - 1))
    batched = solver.run_batch(20.0, initial_phases=initial)
    assert batched.batch == len(batched) == 3
    for i in range(3):
        solo = solver.run(20.0, initial_phases=initial[i])
        member = batched.member(i)
        np.testing.assert_array_equal(member.time_ps, solo.time_ps)
        np.testing.assert_array_equal(member.phases, solo.phases)
        np.testing.assert_array_equal(member.rates, solo.rates)


def test_run_batch_shared_sources_members_identical():
    circuit = _random_circuit(5)
    solver = TransientSolver(circuit)
    batched = solver.run_batch(15.0, batch=4)
    solo = solver.run(15.0)
    for member in batched:
        np.testing.assert_array_equal(member.phases, solo.phases)
        np.testing.assert_array_equal(member.rates, solo.rates)


def test_run_batch_per_member_sources_bitwise():
    circuit = _random_circuit(6)
    solver = TransientSolver(circuit)
    base = list(circuit.sources)
    variants = [
        None,  # keep the circuit's own sources
        base + [CurrentSource(1, gaussian_pulse(8.0, 280.0))],
        base + [CurrentSource(2, pulse_train(5.0, 6.0, 2))],
    ]
    batched = solver.run_batch(18.0, sources=variants)
    for i, member_sources in enumerate(variants):
        circuit.sources = base if member_sources is None else list(member_sources)
        try:
            solo = solver.run(18.0)
        finally:
            circuit.sources = base
        np.testing.assert_array_equal(batched.member(i).phases, solo.phases)
        np.testing.assert_array_equal(batched.member(i).rates, solo.rates)


def test_run_batch_sampling_decimates_exactly():
    circuit = _random_circuit(8)
    solver = TransientSolver(circuit)
    dense = solver.run_batch(10.0, batch=2)
    sparse = solver.run_batch(10.0, sample_every=3, batch=2)
    steps = int(round(10.0 / solver.step_ps))
    assert sparse.phases.shape[1] == steps // 3 + 1
    np.testing.assert_array_equal(sparse.time_ps, dense.time_ps[::3])
    np.testing.assert_array_equal(sparse.phases, dense.phases[:, ::3])
    np.testing.assert_array_equal(sparse.rates, dense.rates[:, ::3])


def test_run_batch_validates_inconsistent_sizes():
    circuit = _random_circuit(9)
    solver = TransientSolver(circuit)
    with pytest.raises(ValueError, match="inconsistent batch sizes"):
        solver.run_batch(
            5.0,
            batch=3,
            initial_phases=np.zeros((2, circuit.num_nodes)),
        )
    with pytest.raises(ValueError, match="batch must be >= 1"):
        solver.run_batch(5.0, batch=0)


# -- systolic arrays: matmul vs cycle-stepped, bitwise ----------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_ws_systolic_run_bitwise_equals_stepped(seed):
    rng = np.random.default_rng(seed)
    array = SystolicArray(5, 4)
    weights = rng.integers(-128, 128, size=(5, 4))
    streams = rng.integers(-128, 128, size=(4, 9))  # fewer streams than rows
    array.load_weights(weights)
    stepped = array.run_stepped(streams)
    array.load_weights(weights)
    fast = array.run(streams)
    assert fast.dtype == stepped.dtype == np.int64
    np.testing.assert_array_equal(fast, stepped)


def test_ws_systolic_bitwise_under_int64_wraparound():
    # Products near 2**62 force wrapping partial sums; integer addition is
    # associative, so the matmul and the stepped grid wrap identically.
    array = SystolicArray(3, 2)
    weights = np.full((3, 2), 2 ** 31, dtype=np.int64)
    streams = np.full((3, 4), 2 ** 31, dtype=np.int64)
    array.load_weights(weights)
    stepped = array.run_stepped(streams)
    array.load_weights(weights)
    with np.errstate(over="ignore"):
        fast = array.run(streams)
    np.testing.assert_array_equal(fast, stepped)


@pytest.mark.parametrize("seed", [0, 1])
def test_os_systolic_run_bitwise_equals_stepped(seed):
    rng = np.random.default_rng(seed)
    array = OSSystolicArray(4, 5)
    x_streams = rng.integers(-128, 128, size=(3, 11))
    w_streams = rng.integers(-128, 128, size=(5, 11))
    stepped = array.run_stepped(x_streams, w_streams)
    fast = array.run(x_streams, w_streams)
    assert fast.dtype == stepped.dtype == np.int64
    np.testing.assert_array_equal(fast, stepped)


# -- DAU gather vs per-index loop -------------------------------------------

def _aligned_streams_loop(ifmap, reduction_indices, kernel_h, kernel_w,
                          stride, padding):
    """Scalar semantics of aligned_streams, written as the obvious loop."""
    channels, height, width = ifmap.shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    streams = np.zeros((len(reduction_indices), out_h * out_w),
                       dtype=ifmap.dtype)
    for row, index in enumerate(reduction_indices):
        channel, rest = divmod(index, kernel_h * kernel_w)
        r, s = divmod(rest, kernel_w)
        k = 0
        for oy in range(out_h):
            for ox in range(out_w):
                y = oy * stride - padding + r
                x = ox * stride - padding + s
                if 0 <= y < height and 0 <= x < width:
                    streams[row, k] = ifmap[channel, y, x]
                k += 1
    return streams


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_aligned_streams_matches_loop_reference(stride, padding):
    rng = np.random.default_rng(11)
    ifmap = rng.integers(-50, 50, size=(3, 7, 8))
    kernel_h, kernel_w = 3, 2
    indices = list(range(3 * kernel_h * kernel_w))
    fast = aligned_streams(ifmap, indices, kernel_h, kernel_w, stride, padding)
    golden = _aligned_streams_loop(ifmap, indices, kernel_h, kernel_w,
                                   stride, padding)
    np.testing.assert_array_equal(fast, golden)


# -- stimuli: array evaluation equals the scalar closure --------------------

@pytest.mark.parametrize("factory", [
    lambda: gaussian_pulse(10.0, 300.0, sigma_ps=1.5),
    lambda: pulse_train(5.0, 7.0, 3, amplitude_ua=200.0),
    lambda: ramped_bias(120.0, ramp_ps=20.0),
])
def test_stimuli_array_contract(factory):
    waveform = factory()
    times = np.linspace(0.0, 40.0, 37)
    vector = waveform(times)
    assert isinstance(vector, np.ndarray) and vector.shape == times.shape
    scalars = np.array([waveform(float(t)) for t in times])
    np.testing.assert_array_equal(vector, scalars)
    assert isinstance(waveform(3.0), float)


# -- fast-path guards: the defaults never take a scalar path ----------------

_RNG = np.random.default_rng(2020)
_IFMAP = _RNG.integers(-8, 8, size=(8, 14, 14))
_WEIGHTS = _RNG.integers(-8, 8, size=(16, 8, 3, 3))
_TILE_WEIGHTS = _RNG.integers(-8, 8, size=(32, 32))
_TILE_STREAMS = _RNG.integers(-8, 8, size=(32, 64))
_OS_X = _RNG.integers(-8, 8, size=(32, 72))
_OS_W = _RNG.integers(-8, 8, size=(32, 72))

#: One pulse through a 16-stage JTL, long enough to reach the far end.
JTL_STAGES = 16
JTL_DURATION_PS = 75.0
JTL_BATCH = 16


class ScalarPathTaken(AssertionError):
    """A default entry point reached a scalar reference."""


@pytest.fixture
def scalar_paths_raise(monkeypatch):
    def refuse(*args, **kwargs):
        raise ScalarPathTaken("a default entry point took a scalar reference path")

    monkeypatch.setattr(SystolicArray, "step", refuse)
    monkeypatch.setattr(OSSystolicArray, "step", refuse)
    monkeypatch.setattr(ScalarReferenceSolver, "__init__", refuse)
    monkeypatch.setattr(solver_module, "reference_run", refuse)


def test_guards_make_every_scalar_reference_raise(scalar_paths_raise):
    circuit = build_jtl(2).circuit
    ws = SystolicArray(2, 2)
    ws.load_weights(np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ScalarPathTaken):
        ws.run_stepped(np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ScalarPathTaken):
        OSSystolicArray(2, 2).run_stepped(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ScalarPathTaken):
        ScalarReferenceSolver(circuit)
    with pytest.raises(ScalarPathTaken):
        solver_module.reference_run(circuit, 1.0)


def test_systolic_defaults_stay_on_the_matmul(scalar_paths_raise):
    ws = SystolicArray(32, 32)
    ws.load_weights(_TILE_WEIGHTS)
    np.testing.assert_array_equal(ws.run(_TILE_STREAMS), _TILE_WEIGHTS.T @ _TILE_STREAMS)
    np.testing.assert_array_equal(OSSystolicArray(32, 32).run(_OS_X, _OS_W), _OS_X @ _OS_W.T)
    reference = conv2d_reference(_IFMAP, _WEIGHTS, stride=1, padding=1)
    np.testing.assert_array_equal(conv2d_systolic(_IFMAP, _WEIGHTS, 32, 32, 1, 1), reference)
    np.testing.assert_array_equal(conv2d_os(_IFMAP, _WEIGHTS, 32, 32, 1, 1), reference)


def test_transient_solver_defaults_stay_vectorized(scalar_paths_raise):
    jtl = build_jtl(JTL_STAGES)
    drive_jtl(jtl, 25.0)
    solver = TransientSolver(jtl.circuit)
    single = solver.run(JTL_DURATION_PS)
    assert switch_count(single, jtl.nodes[-1]) >= 1
    batched = solver.run_batch(JTL_DURATION_PS, batch=JTL_BATCH)
    assert batched.batch == JTL_BATCH
    assert switch_count(batched.member(JTL_BATCH - 1), jtl.nodes[-1]) >= 1
    np.testing.assert_array_equal(batched.member(0).phases, single.phases)
