"""Newton power-flow tests.

The 2-bus oracle voltage was obtained independently of the Newton solver by
root-finding the complex mismatch equation for V2 directly (slack 1.02 pu,
load 0.8 + j0.3 behind r=0.02, x=0.15), then frozen here.
"""

import numpy as np
import pytest

from windmodal import powerflow
from windmodal.network import Branch, Bus, Network, build_ybus
from windmodal.powerflow import PowerFlowError, solve_power_flow
from windmodal.scenario import (build_scenario_system, load_packaged_scenario,
                                packaged_scenario_names)
from windmodal.twoarea import build_two_area

V2_ORACLE = 0.9419822340317148 - 0.11176470588235295j
SLACK_ORACLE = 0.8162254334389966 + 0.42169075079247353j


def two_bus(p_load=0.8, q_load=0.3):
    return Network(
        buses=[Bus(id=1, kind="slack", voltage_mag=1.02),
               Bus(id=2, p_load=p_load, q_load=q_load)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.02, x=0.15)],
    )


def residual(net, sol):
    """Scheduled-injection mismatch recomputed from scratch."""
    y, idx = build_ybus(net), net.index()
    s = sol.v * np.conj(y @ sol.v)
    worst = 0.0
    for b in net.buses:
        i = idx[b.id]
        mis = s[i] - complex(b.p_gen - b.p_load, -b.q_load)
        if b.kind == "pv":
            worst = max(worst, abs(mis.real))
        elif b.kind == "pq":
            worst = max(worst, abs(mis))
    return worst


def test_two_bus_matches_frozen_oracle():
    sol = solve_power_flow(two_bus(), tol=1e-12)
    assert abs(sol.voltage(2) - V2_ORACLE) < 1e-9
    assert abs(sol.generation(1) - SLACK_ORACLE) < 1e-9
    assert sol.mismatch <= 1e-12


def test_solution_satisfies_scheduled_injections():
    net, _ = build_two_area("B")
    sol = solve_power_flow(net, tol=1e-10)
    assert residual(net, sol) <= 1e-10


def test_regulated_buses_hold_their_setpoints():
    net, _ = build_two_area("A")
    sol = solve_power_flow(net)
    for b in net.buses:
        if b.kind in ("slack", "pv"):
            assert abs(abs(sol.voltage(b.id)) - b.voltage_mag) < 1e-12
    assert abs(np.angle(sol.voltage(3))) < 1e-15  # slack angle held


def test_case_a_frozen_dispatch_summary():
    sol = solve_power_flow(build_two_area("A")[0], tol=1e-12)
    assert sol.iterations == 5
    assert abs(sol.generation(3).real - 6.021150087961758) < 1e-9
    losses = sol.p_gen.sum() - sol.p_load.sum()
    assert abs(losses - 0.5711500879617546) < 1e-9
    assert abs(abs(sol.voltage(7)) - 0.9878695242019413) < 1e-9
    assert abs(abs(sol.voltage(9)) - 0.9968401129231239) < 1e-9


def test_generation_balances_load_plus_losses():
    for case in ("A", "B", "C"):
        net = build_two_area(case)[0]
        sol = solve_power_flow(net, tol=1e-12)
        # the losses from each branch's own pi model, not from Y
        idx = net.index()
        losses = 0.0
        for br in net.branches:
            vf, vt = sol.v[idx[br.from_bus]], sol.v[idx[br.to_bus]]
            ys, sh = br.y_series, 0.5j * br.b_shunt
            i_f = (ys + sh) * vf - ys * vt
            i_t = (ys + sh) * vt - ys * vf
            losses += (vf * np.conj(i_f) + vt * np.conj(i_t)).real
        assert losses > 0.0
        assert abs(sol.p_gen.sum() - sol.p_load.sum() - losses) < 1e-10


def test_plain_load_buses_report_zero_generation():
    sol = solve_power_flow(build_two_area("A")[0], tol=1e-12)
    for bus_id in (5, 6, 7, 8, 9, 10, 11):
        assert sol.generation(bus_id) == 0.0


def test_infeasible_case_raises():
    with pytest.raises(PowerFlowError, match="did not converge|collapsed"):
        solve_power_flow(two_bus(p_load=50.0, q_load=20.0))


def test_iteration_budget_respected():
    with pytest.raises(PowerFlowError, match="did not converge in 1"):
        solve_power_flow(two_bus(), max_iter=1)


def test_argument_validation():
    with pytest.raises(PowerFlowError, match="tolerance"):
        solve_power_flow(two_bus(), tol=0.0)


def test_random_feasible_cases_converge():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = float(rng.uniform(0.05, 1.5))
        q = float(rng.uniform(0.0, 0.6))
        sol = solve_power_flow(two_bus(p_load=p, q_load=q), tol=1e-10)
        net = two_bus(p_load=p, q_load=q)
        assert residual(net, sol) <= 1e-10
        # an inductive load behind an inductive line depresses the far bus
        assert abs(sol.voltage(2)) < 1.02


# -- the gathered Jacobian against the block assembly ------------------------


def block_jacobian(v, ybus, pvpq, pq):
    """The Jacobian assembled by ``np.ix_`` slices and ``np.block``, from
    the same diagonal products as ``powerflow._jacobian``."""
    i_bus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(i_bus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    j11 = ds_dva[np.ix_(pvpq, pvpq)].real
    j12 = ds_dvm[np.ix_(pvpq, pq)].real
    j21 = ds_dva[np.ix_(pq, pvpq)].imag
    j22 = ds_dvm[np.ix_(pq, pq)].imag
    return np.block([[j11, j12], [j21, j22]])


def study_networks():
    return {name: build_scenario_system(load_packaged_scenario(name))[0]
            for name in packaged_scenario_names()}


def test_gathered_jacobian_is_the_block_assembly_at_every_iterate(
        monkeypatch):
    calls = []

    def recording(*args):
        jac = jacobian(*args)
        calls.append((args, jac))
        return jac

    jacobian = powerflow._jacobian
    monkeypatch.setattr(powerflow, "_jacobian", recording)
    networks = study_networks()
    for name, net in networks.items():
        before = len(calls)
        sol = solve_power_flow(net)
        assert len(calls) - before == sol.iterations >= 5, name
    for args, jac in calls:
        want = block_jacobian(*args)
        assert jac.shape == want.shape and jac.dtype == want.dtype
        assert jac.tobytes() == want.tobytes()


def test_power_flow_is_unchanged_under_the_block_jacobian(monkeypatch):
    networks = study_networks()
    gathered = {name: solve_power_flow(net) for name, net in networks.items()}
    monkeypatch.setattr(powerflow, "_jacobian", block_jacobian)
    for name, net in networks.items():
        sol, want = solve_power_flow(net), gathered[name]
        assert sol.v.tobytes() == want.v.tobytes(), name
        assert sol.iterations == want.iterations, name
        assert sol.mismatch == want.mismatch, name
