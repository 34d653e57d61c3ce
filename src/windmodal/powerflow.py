"""Newton-Raphson AC power flow in polar coordinates.

Full Newton with the analytic polar Jacobian from a flat start,
infinity-norm mismatch convergence.  Dense linear algebra throughout; the
systems this toolkit targets have tens of buses, not thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, build_ybus


class PowerFlowError(RuntimeError):
    pass


@dataclass
class PowerFlowSolution:
    """Solved operating point, everything per unit on the system base."""

    bus_ids: list[int]
    v: np.ndarray          # complex bus voltages
    p_gen: np.ndarray      # generation by bus (slack/pv reactive solved)
    q_gen: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    iterations: int
    mismatch: float

    def _pos(self, bus_id: int) -> int:
        return self.bus_ids.index(bus_id)

    def voltage(self, bus_id: int) -> complex:
        return complex(self.v[self._pos(bus_id)])

    def generation(self, bus_id: int) -> complex:
        i = self._pos(bus_id)
        return complex(self.p_gen[i], self.q_gen[i])


def _mismatch(v, ybus, s_sched):
    return v * np.conj(ybus @ v) - s_sched


def _jacobian(v, ybus, pvpq, pq):
    """Standard polar power-flow Jacobian blocks, assembled dense.

    The diagonal matmuls set the bits of ``ds_dva``/``ds_dvm``; the blocks
    are row-then-column gathers of them into one array.
    """
    i_bus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(i_bus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    n_a = pvpq.size
    jac = np.empty((n_a + pq.size, n_a + pq.size))
    jac[:n_a, :n_a] = ds_dva[pvpq][:, pvpq].real
    jac[:n_a, n_a:] = ds_dvm[pvpq][:, pq].real
    jac[n_a:, :n_a] = ds_dva[pq][:, pvpq].imag
    jac[n_a:, n_a:] = ds_dvm[pq][:, pq].imag
    return jac


def solve_power_flow(network: Network, tol: float = 1e-12,
                     max_iter: int = 50) -> PowerFlowSolution:
    """Solve the network's steady state from a flat start, the regulated
    buses at their setpoints and the slack at angle 0.  A bus schedules P
    ``p_gen - p_load`` and Q ``-q_load``; the slack's P and the Q of the
    regulated buses are solved.

    Raises :class:`PowerFlowError` with the final mismatch if Newton does
    not reach ``tol`` within ``max_iter`` iterations, or if the Jacobian
    goes singular (classically an infeasible/collapsed case).
    """
    if tol <= 0.0:
        raise PowerFlowError("tolerance must be positive")
    ybus = build_ybus(network)
    n = network.n_bus
    kinds = np.array([b.kind for b in network.buses])
    pv = np.flatnonzero(kinds == "pv")
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.concatenate([pv, pq]).astype(int)

    p_load = np.array([b.p_load for b in network.buses])
    q_load = np.array([b.q_load for b in network.buses])
    s_sched = np.array([complex(b.p_gen - b.p_load, -b.q_load)
                        for b in network.buses])

    vm = np.ones(n)
    for i, b in enumerate(network.buses):
        if b.kind in ("slack", "pv"):
            vm[i] = b.voltage_mag
    v = vm.astype(complex)

    iterations = 0
    mis = _mismatch(v, ybus, s_sched)
    f = np.concatenate([mis[pvpq].real, mis[pq].imag])
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    while norm > tol:
        if iterations >= max_iter:
            raise PowerFlowError(
                f"power flow did not converge in {max_iter} iterations "
                f"(mismatch {norm:.3e}, tolerance {tol:g})"
            )
        jac = _jacobian(v, ybus, pvpq, pq)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(
                f"singular Jacobian at iteration {iterations}; "
                "the case is infeasible or degenerate"
            ) from exc
        va = np.angle(v)
        vm = np.abs(v)
        n_a = pvpq.size
        va[pvpq] += dx[:n_a]
        vm[pq] += dx[n_a:]
        if np.any(vm <= 0.0):
            raise PowerFlowError("voltage magnitude collapsed below zero")
        v = vm * np.exp(1j * va)
        iterations += 1
        mis = _mismatch(v, ybus, s_sched)
        f = np.concatenate([mis[pvpq].real, mis[pq].imag])
        norm = float(np.max(np.abs(f)))

    s_inj = v * np.conj(ybus @ v)
    s_gen = s_inj + p_load + 1j * q_load
    # scheduled-zero generation stays exactly zero at plain load buses
    p_gen = np.where(np.abs(s_gen.real) < 1e-12, 0.0, s_gen.real)
    q_gen = np.where(np.abs(s_gen.imag) < 1e-12, 0.0, s_gen.imag)
    return PowerFlowSolution(
        bus_ids=[b.id for b in network.buses],
        v=v,
        p_gen=p_gen,
        q_gen=q_gen,
        p_load=p_load,
        q_load=q_load,
        iterations=iterations,
        mismatch=norm,
    )
