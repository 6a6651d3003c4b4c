"""Fixed-step transient solver for Josephson circuits.

Integrates the second-order node-phase system

    M * ddtheta = I_src(t) - I_josephson(theta) - I_L(theta) - I_R(dtheta)

with classic RK4 at a fixed step (default 0.05 ps, a small fraction of the
junction plasma period).

The hot path is a batched array-program: element incidence matrices are
folded with the inverse mass matrix once per solver, so each RK4 stage is
a handful of dense matmuls plus one ``sin`` — no per-element scatters, no
per-step Python source evaluation (sources are tabulated over the
half-step time grid up front).  :meth:`TransientSolver.run_batch`
integrates any number of independent initial states / stimulus sets as
one stacked ``(batch, nodes)`` system; :meth:`TransientSolver.run` is the
batch-of-one wrapper.

:class:`ScalarReferenceSolver` preserves the original per-step scalar
implementation verbatim as the golden reference the vectorized kernel is
tested against (see ``tests/test_golden_vectorized.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs

from repro.device.constants import PHI0_BAR_MV_PS as _PHIBAR
from repro.jsim.elements import CurrentSource
from repro.jsim.netlist import Circuit


@dataclass
class TransientResult:
    """Sampled waveforms of one transient run."""

    time_ps: np.ndarray
    phases: np.ndarray  # shape (steps, nodes) including ground column 0
    rates: np.ndarray  # dtheta/dt, same shape

    def node_phase(self, node: int) -> np.ndarray:
        return self.phases[:, node]

    def node_voltage_mv(self, node: int) -> np.ndarray:
        return _PHIBAR * self.rates[:, node]

    @property
    def voltages_mv(self) -> np.ndarray:
        """Node voltages in mV, same shape as :attr:`rates`."""
        return _PHIBAR * self.rates

    def junction_phase(self, node_plus: int, node_minus: int) -> np.ndarray:
        return self.phases[:, node_plus] - self.phases[:, node_minus]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the ``data`` member of a CLI envelope)."""
        return {
            "nodes": int(self.phases.shape[-1]),
            "samples": int(self.phases.shape[-2]),
            "time_ps": self.time_ps.tolist(),
            "phases": self.phases.tolist(),
            "rates": self.rates.tolist(),
            "voltages_mv": self.voltages_mv.tolist(),
        }


@dataclass
class BatchTransientResult:
    """Sampled waveforms of a batched transient run.

    ``phases`` and ``rates`` are stacked ``(batch, samples, nodes)``;
    all members share one ``time_ps`` axis.
    """

    time_ps: np.ndarray
    phases: np.ndarray  # shape (batch, samples, nodes)
    rates: np.ndarray  # same shape

    @property
    def batch(self) -> int:
        return self.phases.shape[0]

    def __len__(self) -> int:
        return self.batch

    def member(self, index: int) -> TransientResult:
        """One batch member as a scalar :class:`TransientResult` (a view)."""
        return TransientResult(
            time_ps=self.time_ps,
            phases=self.phases[index],
            rates=self.rates[index],
        )

    def __iter__(self):
        return (self.member(i) for i in range(self.batch))

    @property
    def voltages_mv(self) -> np.ndarray:
        """Node voltages in mV, same shape as :attr:`rates`."""
        return _PHIBAR * self.rates

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the ``data`` member of a CLI envelope)."""
        return {
            "batch": int(self.batch),
            "nodes": int(self.phases.shape[-1]),
            "samples": int(self.phases.shape[-2]),
            "time_ps": self.time_ps.tolist(),
            "phases": self.phases.tolist(),
            "rates": self.rates.tolist(),
        }


def _incidence(plus: np.ndarray, minus: np.ndarray, reduced_nodes: int) -> np.ndarray:
    """Signed incidence over non-ground nodes: branch = A @ theta[1:]."""
    a = np.zeros((len(plus), reduced_nodes))
    rows = np.arange(len(plus))
    has_plus = plus > 0
    a[rows[has_plus], plus[has_plus] - 1] += 1.0
    has_minus = minus > 0
    a[rows[has_minus], minus[has_minus] - 1] += -1.0
    return a


def _waveform_samples(source: CurrentSource, times: np.ndarray) -> np.ndarray:
    """Evaluate one source over the time grid, vectorized when possible.

    Waveforms from :mod:`repro.jsim.stimuli` accept arrays directly; plain
    scalar closures (``lambda t: ...``) fall back to a per-time Python
    loop — still once per run instead of four times per step.
    """
    try:
        values = np.asarray(source.current_ua(times), dtype=float)
    except Exception:
        values = None
    if values is not None and values.shape == times.shape:
        return values
    if values is not None and values.ndim == 0:
        # Likely a constant bias that ignores its argument; spot-check
        # before broadcasting so time-dependent scalars stay exact.
        level = float(values)
        if (
            float(source.current_ua(float(times[0]))) == level
            and float(source.current_ua(float(times[-1]))) == level
        ):
            return np.full(times.shape, level)
    return np.array([float(source.current_ua(float(t))) for t in times])


class TransientSolver:
    """RK4 transient analysis of a :class:`~repro.jsim.netlist.Circuit`.

    All element topology is folded into dense operators at construction:

    * ``sin(theta @ A_jj.T) @ sin_gain.T`` — the Josephson supercurrents,
    * ``theta @ K_theta.T`` / ``rate @ K_rate.T`` — the inductor and
      resistive (shunt + explicit R) Laplacians,

    each already multiplied through the inverse mass matrix, so one RK4
    stage costs four matmuls and one ``sin`` regardless of element count.
    """

    def __init__(self, circuit: Circuit, step_ps: float = 0.05) -> None:
        if step_ps <= 0:
            raise ValueError("time step must be positive")
        self.circuit = circuit
        self.step_ps = step_ps
        self._mass_inv = np.linalg.inv(circuit.mass_matrix())
        self._build_operators()

    def _build_operators(self) -> None:
        c = self.circuit
        reduced = c.num_nodes - 1
        minv = self._mass_inv

        jj_plus = np.array([j.node_plus for j in c.junctions], dtype=int)
        jj_minus = np.array([j.node_minus for j in c.junctions], dtype=int)
        jj_ic = np.array([j.critical_current_ua for j in c.junctions])
        jj_g = np.array(
            [1000.0 * _PHIBAR / j.shunt_resistance_ohm for j in c.junctions]
        )
        l_plus = np.array([ind.node_plus for ind in c.inductors], dtype=int)
        l_minus = np.array([ind.node_minus for ind in c.inductors], dtype=int)
        l_g = np.array([1000.0 * _PHIBAR / ind.inductance_ph for ind in c.inductors])
        r_plus = np.array([r.node_plus for r in c.resistors], dtype=int)
        r_minus = np.array([r.node_minus for r in c.resistors], dtype=int)
        r_g = np.array([1000.0 * _PHIBAR / r.resistance_ohm for r in c.resistors])

        a_jj = _incidence(jj_plus, jj_minus, reduced)
        a_l = _incidence(l_plus, l_minus, reduced)
        a_r = _incidence(r_plus, r_minus, reduced)

        self._reduced = reduced
        self._jj_count = len(jj_ic)
        # accel += sin(theta @ A_jj.T) @ sin_gain.T
        self._sin_gain_t = -(minv @ (a_jj.T * jj_ic)).T.copy()
        # Linear Laplacians folded with the inverse mass matrix.
        k_theta = minv @ ((a_l.T * l_g) @ a_l)
        k_rate = minv @ ((a_jj.T * jj_g) @ a_jj + (a_r.T * r_g) @ a_r)
        # One fused stage operator over the stacked state z = [theta, rate]:
        # z @ W = [linear acceleration | junction branch phases].  Applied
        # with einsum (not BLAS gemm) so each batch row reduces in the same
        # fixed order regardless of batch size — this is what makes
        # run_batch bitwise-identical to a loop of scalar runs.
        w_op = np.zeros((2 * reduced, reduced + self._jj_count))
        w_op[:reduced, :reduced] = -k_theta.T
        w_op[reduced:, :reduced] = -k_rate.T
        w_op[:reduced, reduced:] = a_jj.T
        self._w_op = w_op

    def _acceleration_into(
        self,
        state: np.ndarray,
        src: np.ndarray,
        out: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """ddtheta for a stacked (batch, 2*(nodes-1)) stage state."""
        m = self._reduced
        np.einsum("bi,io->bo", state, self._w_op, out=scratch)
        if self._jj_count:
            np.sin(scratch[:, m:], out=scratch[:, m:])
            np.einsum("bj,jm->bm", scratch[:, m:], self._sin_gain_t, out=out)
            out += scratch[:, :m]
        else:
            out[:] = scratch[:, :m]
        out += src

    def _source_accel_table(
        self, times: np.ndarray, sources: Sequence[CurrentSource]
    ) -> np.ndarray:
        """(len(times), nodes-1) acceleration contributed by the sources."""
        n = self.circuit.num_nodes
        injected = np.zeros((times.size, n))
        for source in sources:
            if not 0 <= source.node < n:
                raise ValueError(f"source node {source.node} out of range")
            injected[:, source.node] += _waveform_samples(source, times)
        return injected[:, 1:] @ self._mass_inv.T

    @staticmethod
    def _resolve_batch(
        batch: Optional[int],
        initial_phases: Optional[np.ndarray],
        sources: Optional[Sequence[object]],
    ) -> int:
        sizes = {}
        if batch is not None:
            if batch < 1:
                raise ValueError("batch must be >= 1")
            sizes["batch"] = batch
        if sources is not None:
            sizes["sources"] = len(sources)
        if initial_phases is not None and initial_phases.ndim == 2:
            sizes["initial_phases"] = initial_phases.shape[0]
        if len(set(sizes.values())) > 1:
            raise ValueError(f"inconsistent batch sizes: {sizes}")
        return next(iter(sizes.values()), 1)

    def run_batch(
        self,
        duration_ps: float,
        sample_every: int = 1,
        *,
        batch: Optional[int] = None,
        initial_phases: Optional[np.ndarray] = None,
        sources: Optional[Sequence[Optional[Sequence[CurrentSource]]]] = None,
    ) -> BatchTransientResult:
        """Integrate a batch of independent transients as one stacked system.

        Args:
            duration_ps: integration length (shared by every member).
            sample_every: keep every ``sample_every``-th step.
            batch: explicit batch size (otherwise inferred from
                ``initial_phases`` / ``sources``, default 1).
            initial_phases: ``(nodes,)`` broadcast to all members, or
                ``(batch, nodes)`` per-member initial phases.
            sources: per-member stimulus override — a sequence of
                ``CurrentSource`` lists (``None`` entries keep the
                circuit's own sources).  Omitted: all members share the
                circuit's sources and their table is computed once.

        Returns:
            A :class:`BatchTransientResult`; ``member(i)`` views are
            bitwise-identical to running each member through
            :meth:`run` on its own.
        """
        if duration_ps <= 0:
            raise ValueError("duration must be positive")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        n = self.circuit.num_nodes
        if initial_phases is not None:
            initial_phases = np.asarray(initial_phases, dtype=float)
            if initial_phases.ndim == 1 and initial_phases.shape != (n,):
                raise ValueError(f"initial phases must have shape ({n},)")
            if initial_phases.ndim == 2 and initial_phases.shape[1] != n:
                raise ValueError(
                    f"initial phases must have shape ({n},) or (batch, {n})"
                )
            if initial_phases.ndim > 2:
                raise ValueError("initial phases must be 1-D or 2-D")
        size = self._resolve_batch(batch, initial_phases, sources)

        initial = np.zeros((size, n))
        if initial_phases is not None:
            initial[:] = initial_phases  # broadcasts (n,) or copies (B, n)

        h = self.step_ps
        steps = int(round(duration_ps / h))
        # RK4 needs the sources on the half-step grid: index 2k is time
        # k*h, index 2k+1 is k*h + h/2 (k4 of step k reads index 2k+2).
        whole = np.arange(steps + 1) * h
        grid = np.empty(2 * steps + 2)
        grid[0::2] = whole
        grid[1::2] = whole + 0.5 * h
        if sources is None:
            shared_src = self._source_accel_table(grid, self.circuit.sources)
            src_table = None
        else:
            shared_src = None
            src_table = np.stack(
                [
                    self._source_accel_table(
                        grid,
                        self.circuit.sources if member is None else list(member),
                    )
                    for member in sources
                ]
            )

        n_samples = steps // sample_every + 1
        phases = np.empty((size, n_samples, n))
        rates = np.empty((size, n_samples, n))
        phases[:, :, 0] = initial[:, 0:1]  # ground column never moves
        rates[:, :, 0] = 0.0
        m = self._reduced
        half_h = 0.5 * h
        sixth_h = h / 6.0
        # Stage buffers, allocated once and reused every step: z0 is the
        # live stacked state [theta | rate]; z1..z3 the RK4 stage states;
        # d1..d4 the stage derivatives [rate | accel] (so the update is a
        # single full-width linear combination folded into z0 in place).
        z0 = np.empty((size, 2 * m))
        z0[:, :m] = initial[:, 1:]
        z0[:, m:] = 0.0
        z1, z2, z3, d1, d2, d3, d4, acc = (np.empty_like(z0) for _ in range(8))
        samples = np.empty((n_samples, size, 2 * m))
        scratch = np.empty((size, m + self._jj_count))

        wall_start = time.perf_counter()
        with obs.trace_span(
            "jsim/solver.run",
            duration_ps=duration_ps,
            nodes=n,
            steps=steps,
            batch=size,
        ):
            sample_idx = 0
            for step in range(steps + 1):
                if step % sample_every == 0:
                    samples[sample_idx] = z0
                    sample_idx += 1
                if step == steps:
                    break
                if shared_src is not None:
                    s0 = shared_src[2 * step]
                    s_half = shared_src[2 * step + 1]
                    s1 = shared_src[2 * step + 2]
                else:
                    s0 = src_table[:, 2 * step]
                    s_half = src_table[:, 2 * step + 1]
                    s1 = src_table[:, 2 * step + 2]
                # RK4 on the first-order system; each stage derivative
                # d_i = [k_ix | k_iv] mirrors the scalar reference's
                # (k1x..k4x, k1v..k4v) pairs exactly.
                d1[:, :m] = z0[:, m:]
                self._acceleration_into(z0, s0, d1[:, m:], scratch)
                np.multiply(d1, half_h, out=z1)
                z1 += z0
                d2[:, :m] = z1[:, m:]
                self._acceleration_into(z1, s_half, d2[:, m:], scratch)
                np.multiply(d2, half_h, out=z2)
                z2 += z0
                d3[:, :m] = z2[:, m:]
                self._acceleration_into(z2, s_half, d3[:, m:], scratch)
                np.multiply(d3, h, out=z3)
                z3 += z0
                d4[:, :m] = z3[:, m:]
                self._acceleration_into(z3, s1, d4[:, m:], scratch)
                # z += (h/6) * (d1 + 2*d2 + 2*d3 + d4)
                np.add(d2, d3, out=acc)
                acc *= 2.0
                acc += d1
                acc += d4
                acc *= sixth_h
                z0 += acc
        wall_s = time.perf_counter() - wall_start
        phases[:, :, 1:] = samples[:, :, :m].transpose(1, 0, 2)
        rates[:, :, 1:] = samples[:, :, m:].transpose(1, 0, 2)
        obs.counter("jsim.runs").add(size)
        obs.counter("jsim.steps").add(size * (steps + 1))
        obs.histogram("jsim.run_seconds").observe(wall_s)
        if wall_s > 0:
            # How many picoseconds of circuit time one wall-second buys.
            obs.histogram("jsim.sim_ps_per_wall_s").observe(
                size * duration_ps / wall_s
            )
        return BatchTransientResult(
            time_ps=np.arange(0, steps + 1, sample_every) * h,
            phases=phases,
            rates=rates,
        )

    def run(
        self,
        duration_ps: float,
        sample_every: int = 1,
        initial_phases: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Integrate for ``duration_ps`` and return sampled waveforms.

        Thin wrapper over :meth:`run_batch` with a batch of one.
        """
        if initial_phases is not None:
            initial_phases = np.asarray(initial_phases, dtype=float)
            if initial_phases.shape != (self.circuit.num_nodes,):
                raise ValueError(
                    f"initial phases must have shape ({self.circuit.num_nodes},)"
                )
        return self.run_batch(
            duration_ps, sample_every, initial_phases=initial_phases
        ).member(0)


class ScalarReferenceSolver:
    """The original per-step scalar RK4 implementation, kept verbatim.

    This is the golden reference for the vectorized kernel: per-element
    ``np.add.at`` scatters, per-stage Python source evaluation, and
    list-append sampling.  It emits no obs metrics — it exists for
    equivalence tests, not for production runs.
    """

    def __init__(self, circuit: Circuit, step_ps: float = 0.05) -> None:
        if step_ps <= 0:
            raise ValueError("time step must be positive")
        self.circuit = circuit
        self.step_ps = step_ps
        self._mass_inv = np.linalg.inv(circuit.mass_matrix())
        self._build_tables()

    def _build_tables(self) -> None:
        c = self.circuit
        self._jj_plus = np.array([j.node_plus for j in c.junctions], dtype=int)
        self._jj_minus = np.array([j.node_minus for j in c.junctions], dtype=int)
        self._jj_ic = np.array([j.critical_current_ua for j in c.junctions])
        self._jj_g = np.array(
            [1000.0 * _PHIBAR / j.shunt_resistance_ohm for j in c.junctions]
        )
        self._l_plus = np.array([ind.node_plus for ind in c.inductors], dtype=int)
        self._l_minus = np.array([ind.node_minus for ind in c.inductors], dtype=int)
        self._l_g = np.array(
            [1000.0 * _PHIBAR / ind.inductance_ph for ind in c.inductors]
        )
        self._r_plus = np.array([r.node_plus for r in c.resistors], dtype=int)
        self._r_minus = np.array([r.node_minus for r in c.resistors], dtype=int)
        self._r_g = np.array(
            [1000.0 * _PHIBAR / r.resistance_ohm for r in c.resistors]
        )

    def _net_current(self, theta: np.ndarray, rate: np.ndarray, t: float) -> np.ndarray:
        """Current injected into each non-ground node (uA)."""
        n = self.circuit.num_nodes
        injected = np.zeros(n)
        for source in self.circuit.sources:
            injected[source.node] += source.current_ua(t)
        if len(self._jj_ic):
            branch = theta[self._jj_plus] - theta[self._jj_minus]
            branch_rate = rate[self._jj_plus] - rate[self._jj_minus]
            current = self._jj_ic * np.sin(branch) + self._jj_g * branch_rate
            np.add.at(injected, self._jj_plus, -current)
            np.add.at(injected, self._jj_minus, current)
        if len(self._l_g):
            branch = theta[self._l_plus] - theta[self._l_minus]
            current = self._l_g * branch
            np.add.at(injected, self._l_plus, -current)
            np.add.at(injected, self._l_minus, current)
        if len(self._r_g):
            branch_rate = rate[self._r_plus] - rate[self._r_minus]
            current = self._r_g * branch_rate
            np.add.at(injected, self._r_plus, -current)
            np.add.at(injected, self._r_minus, current)
        return injected[1:]

    def _acceleration(self, theta: np.ndarray, rate: np.ndarray, t: float) -> np.ndarray:
        accel = np.zeros_like(theta)
        accel[1:] = self._mass_inv @ self._net_current(theta, rate, t)
        return accel

    def run(
        self,
        duration_ps: float,
        sample_every: int = 1,
        initial_phases: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Integrate for ``duration_ps`` and return sampled waveforms."""
        if duration_ps <= 0:
            raise ValueError("duration must be positive")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        n = self.circuit.num_nodes
        theta = np.zeros(n) if initial_phases is None else initial_phases.astype(float).copy()
        if theta.shape != (n,):
            raise ValueError(f"initial phases must have shape ({n},)")
        rate = np.zeros(n)
        h = self.step_ps
        steps = int(round(duration_ps / h))
        times: List[float] = []
        phases: List[np.ndarray] = []
        rates: List[np.ndarray] = []
        for step in range(steps + 1):
            t = step * h
            if step % sample_every == 0:
                times.append(t)
                phases.append(theta.copy())
                rates.append(rate.copy())
            # RK4 on the first-order system (theta, rate).
            k1v = self._acceleration(theta, rate, t)
            k1x = rate
            k2v = self._acceleration(theta + 0.5 * h * k1x, rate + 0.5 * h * k1v, t + 0.5 * h)
            k2x = rate + 0.5 * h * k1v
            k3v = self._acceleration(theta + 0.5 * h * k2x, rate + 0.5 * h * k2v, t + 0.5 * h)
            k3x = rate + 0.5 * h * k2v
            k4v = self._acceleration(theta + h * k3x, rate + h * k3v, t + h)
            k4x = rate + h * k3v
            theta = theta + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            rate = rate + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        return TransientResult(
            time_ps=np.array(times),
            phases=np.array(phases),
            rates=np.array(rates),
        )


def reference_run(
    circuit: Circuit,
    duration_ps: float,
    *,
    step_ps: float = 0.05,
    sample_every: int = 1,
    initial_phases: Optional[np.ndarray] = None,
) -> TransientResult:
    """Run the scalar golden-reference solver (convenience wrapper)."""
    return ScalarReferenceSolver(circuit, step_ps=step_ps).run(
        duration_ps, sample_every=sample_every, initial_phases=initial_phases
    )
