"""Assembled-system tests: equilibrium fidelity, network solve, grid variants.

Grid-variant oracles are built by re-solving a modified network from scratch
(branch removed, load rescaled) rather than by reusing the stamping code
under test.  The closed-form converter solve is checked against the
fixed-point iteration it replaced, kept here as a test-local reference.
"""

import numpy as np
import pytest

from windmodal.network import Bus, Network
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import build_scenario_system, load_packaged_scenario
from windmodal.syncgen import SyncGen, SyncGenParams
from windmodal.system import (DEFAULT_FAULT_ADMITTANCE, FaultSpec,
                              SystemModelError, assemble)
from windmodal.twoarea import build_two_area

from conftest import build_system


def test_assembled_equilibrium_has_zero_derivatives(system_a, system_b_support):
    for model in (system_a, system_b_support):
        r = model.rhs(model.equilibrium())
        assert np.max(np.abs(r)) < 1e-8


def test_equilibrium_voltages_reproduce_the_power_flow(system_b):
    net, _ = build_two_area("B")
    pf = solve_power_flow(net, tol=1e-12)
    v_pf = np.array([pf.voltage(b.id) for b in net.buses])
    assert np.max(np.abs(system_b.equilibrium_voltages - v_pf)) < 1e-6


def test_state_labels_cover_all_devices(system_b):
    names = [str(lab) for lab in system_b.state_labels()]
    assert len(names) == system_b.n_states
    assert "G1.delta" in names
    assert "W1.rotor_speed" in names
    classes = {lab.device_id: lab.device_class
               for lab in system_b.state_labels()}
    assert classes["G1"] == "synchronous"
    assert classes["W1"] == "converter"


def test_device_outputs_exposes_every_device(system_b):
    x0 = system_b.equilibrium()
    out = system_b.device_outputs(x0, system_b.equilibrium_voltages)
    for dev in ("G1", "G2", "G3", "G4", "W1"):
        assert f"{dev}.active_power" in out
        assert out[f"{dev}.rotor_speed"] == pytest.approx(1.0, abs=1e-9) \
            or dev == "W1"


def test_power_balance_residual_is_tiny_at_equilibrium(system_a, system_b):
    for model in (system_a, system_b):
        res = model.power_balance_residual(model.equilibrium(),
                                           model.equilibrium_voltages)
        assert res < 1e-10


def test_bus_fault_variant_adds_the_shunt(system_a):
    g = system_a.grid_variant(faults=[FaultSpec(bus=8, admittance=500.0)])
    delta = g.y - system_a.base_grid.y
    row = system_a.network.index()[8]
    assert delta[row, row] == pytest.approx(500.0)
    delta[row, row] = 0.0
    assert np.max(np.abs(delta)) == 0.0
    assert "fault:bus8" in g.note


def test_midpoint_fault_depresses_the_voltage(system_a):
    g = system_a.grid_variant(faults=[FaultSpec(branch="L8-9a")])
    assert g.y.shape[0] == system_a.network.n_bus + 1
    v = system_a.solve_network(system_a.equilibrium(), grid=g)
    assert abs(v[-1]) < 0.05           # faulted midpoint collapses
    assert abs(v[system_a.network.index()[8]]) < 0.7


def test_line_trip_variant_matches_a_network_built_without_the_branch():
    model = build_system("A")
    g = model.grid_variant(out_branches=["L8-9b"])

    net, devices = build_two_area("A")
    net_out = Network(
        buses=net.buses,
        branches=[br for br in net.branches if br.label != "L8-9b"],
        base_mva=net.base_mva, frequency_hz=net.frequency_hz)
    pf = solve_power_flow(net, tol=1e-12)  # same operating point as model
    from windmodal.network import build_ybus
    vm = {b.id: abs(pf.voltage(b.id)) for b in net.buses}
    y_expect, _ = build_ybus(net_out, include_load_shunts=True,
                             load_voltages=vm)
    for dev, row in zip(model.devices,
                        [model.network.index()[d.bus_id]
                         for d in model.devices]):
        y_expect[row, row] += dev.norton_admittance(net.base_mva)
    assert np.max(np.abs(g.y - y_expect)) < 1e-12


def test_load_step_variant_scales_the_constant_impedance(system_a):
    g = system_a.grid_variant(load_scales={7: 1.05})
    row = system_a.network.index()[7]
    delta = g.y - system_a.base_grid.y
    base_load = system_a._load_admittance[row]
    assert delta[row, row] == pytest.approx(0.05 * base_load, rel=1e-12)


def test_variant_validation_errors(system_a):
    with pytest.raises(SystemModelError, match="unknown bus"):
        system_a.grid_variant(faults=[FaultSpec(bus=99)])
    from windmodal.network import NetworkError
    with pytest.raises(NetworkError, match="no branch"):
        system_a.grid_variant(out_branches=["nope"])
    with pytest.raises(SystemModelError, match="both faulted and out"):
        system_a.grid_variant(faults=[FaultSpec(branch="L8-9a")],
                              out_branches=["L8-9a"])
    with pytest.raises(SystemModelError, match="no load to step"):
        system_a.grid_variant(load_scales={8: 1.1})
    with pytest.raises(SystemModelError, match="unknown bus"):
        system_a.grid_variant(load_scales={99: 1.1})


def test_midpoint_fault_rejects_off_nominal_taps():
    model = build_system("A")
    # transformers carry the machine step-up impedance on tap 1.0, so build
    # a network where one is re-tapped to exercise the guard
    net, devices = build_two_area("A")
    from windmodal.network import Branch
    reb = []
    for br in net.branches:
        if br.label == "T1":
            br = Branch(from_bus=br.from_bus, to_bus=br.to_bus, x=br.x,
                        tap=1.02, name=br.name)
        reb.append(br)
    net2 = Network(buses=net.buses, branches=reb, base_mva=net.base_mva,
                   frequency_hz=net.frequency_hz)
    pf = solve_power_flow(net2, tol=1e-12)
    model2 = assemble(net2, build_two_area("A")[1], pf)
    with pytest.raises(SystemModelError, match="off-nominal-tap"):
        model2.grid_variant(faults=[FaultSpec(branch="T1")])


def test_fault_spec_validation():
    with pytest.raises(SystemModelError, match="exactly one"):
        FaultSpec()
    with pytest.raises(SystemModelError, match="exactly one"):
        FaultSpec(bus=8, branch="L8-9a")
    with pytest.raises(SystemModelError, match="positive"):
        FaultSpec(bus=8, admittance=0.0)
    assert FaultSpec(bus=8).admittance == DEFAULT_FAULT_ADMITTANCE


def test_assembly_rejects_conflicting_devices():
    net, devices = build_two_area("A")
    pf = solve_power_flow(net, tol=1e-12)
    with pytest.raises(SystemModelError, match="no devices"):
        assemble(net, [], pf)
    twice = devices + [SyncGen("G9", 1, SyncGenParams())]
    with pytest.raises(SystemModelError, match="more than one device"):
        assemble(net, twice, pf)
    stray = devices[:-1] + [SyncGen("G4", 99, SyncGenParams())]
    with pytest.raises(SystemModelError, match="unknown bus"):
        assemble(net, stray, pf)


def test_assembly_rejects_duplicate_device_ids():
    net, devices = build_two_area("A")
    pf = solve_power_flow(net, tol=1e-12)
    devices[1] = SyncGen("G1", 2, SyncGenParams())
    with pytest.raises(SystemModelError, match="duplicate state labels"):
        assemble(net, devices, pf)


def test_assembly_rejects_inconsistent_initialization():
    net, devices = build_two_area("A")
    pf = solve_power_flow(net, tol=1e-12)

    class Drifter(SyncGen):
        def initialize(self, v, s, base, omega_s):
            x0 = super().initialize(v, s, base, omega_s)
            self.pm_ref = self.pm_ref + 0.05  # breaks the torque balance
            return x0

    devices[0] = Drifter("G1", 1, SyncGenParams())
    with pytest.raises(SystemModelError, match="not at equilibrium"):
        assemble(net, devices, pf)


def test_assembly_rejects_a_non_finite_derivative_at_equilibrium():
    net, devices = build_two_area("A")
    pf = solve_power_flow(net, tol=1e-12)

    class Poisoned(SyncGen):
        def initialize(self, v, s, base, omega_s):
            x0 = super().initialize(v, s, base, omega_s)
            self.pm_ref = float("nan")
            return x0

    devices[0] = Poisoned("G1", 1, SyncGenParams())
    with pytest.raises(SystemModelError, match="'G1.pm' is nan"):
        assemble(net, devices, pf)


def test_rhs_perturbation_responds_through_the_network(system_a):
    x = system_a.equilibrium()
    x[system_a.state_labels().index(
        next(l for l in system_a.state_labels()
             if str(l) == "G1.delta"))] += 0.05
    dx = system_a.rhs(x)
    # advancing G1's angle loads it up: its speed derivative goes negative
    idx = [str(l) for l in system_a.state_labels()].index("G1.speed")
    assert dx[idx] < 0.0


# -- closed-form network solve ---------------------------------------------------------

def packaged_system(name):
    net, devices = build_scenario_system(load_packaged_scenario(name))
    return assemble(net, devices, solve_power_flow(net, tol=1e-12))


def reference_solve(model, x, grid, tol=1e-14, max_iter=2000):
    """The fixed-point iteration the closed form replaced: re-inject every
    source at the last voltage iterate until the voltages stop moving."""
    base = model.network.base_mva
    rows = model.network.index()
    v = np.ones(grid.y.shape[0], dtype=complex)
    v[:model.network.n_bus] = model.equilibrium_voltages
    for _ in range(max_iter):
        i = np.zeros_like(v)
        pos = 0
        for dev in model.devices:
            row = rows[dev.bus_id]
            i[row] += dev.source_current(x[pos:pos + dev.n_states], v[row],
                                         base)
            pos += dev.n_states
        v_new = np.linalg.solve(grid.y, i)
        delta = np.max(np.abs(v_new - v))
        v = v_new
        if delta <= tol:
            return v
    raise AssertionError(f"reference iteration stalled at step {delta:.2e}")


@pytest.mark.parametrize("name", ["A", "B_voltage_support",
                                  "C_reactive_power_support"])
def test_closed_form_network_solve_matches_the_fixed_point(name):
    # every device-bus impedance column enters each solve, so the variants
    # check them all, on the base and on an augmented grid
    model = packaged_system(name)
    rng = np.random.default_rng(7)
    x = model.equilibrium() + 0.02 * rng.standard_normal(model.n_states)
    last_bus = model.devices[-1].bus_id     # the converter bus, if any
    grids = [
        model.base_grid,
        model.grid_variant(faults=[FaultSpec(bus=last_bus)]),
        model.grid_variant(faults=[FaultSpec(branch="L8-9a")]),
        model.grid_variant(out_branches=["L8-9b"]),
        model.grid_variant(load_scales={9: 1.2}),
        model.grid_variant(faults=[FaultSpec(branch="L8-9a")],
                           out_branches=["L8-9b"], load_scales={9: 1.2}),
    ]
    for g in grids:
        v = model.solve_network(x, grid=g)
        assert np.max(np.abs(v - reference_solve(model, x, g))) <= 1e-10, \
            g.note


def test_network_solve_names_voltage_collapse():
    model = packaged_system("B_voltage_support")
    names = [str(lab) for lab in model.state_labels()]
    x = model.equilibrium()
    x[names.index("W1.i_p")] = x[names.index("W1.i_q")] = 20.0
    with pytest.raises(SystemModelError, match="no network solution"):
        model.solve_network(x)


def test_assembly_rejects_two_converter_buses():
    net, devices = build_two_area("B")
    pf = solve_power_flow(net, tol=1e-12)
    w1 = devices[-1]
    second = type(w1)("W2", 7, w1.params)
    with pytest.raises(SystemModelError, match="voltage-dependent source"):
        assemble(net, devices + [second], pf)


@pytest.mark.parametrize("case", ["A", "B"])
def test_network_solve_makes_no_lu_solve_on_a_built_grid(monkeypatch,
                                                         system_a, system_b,
                                                         case):
    import windmodal.system as system_module
    model = system_a if case == "A" else system_b
    calls = []
    real = system_module.lu_solve
    monkeypatch.setattr(system_module, "lu_solve",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    grid = model.grid_variant(faults=[FaultSpec(branch="L8-9a")])
    assert len(calls) == 1          # the grid's device-bus impedance columns
    x = model.equilibrium()
    for k in range(5):
        model.solve_network(x * (1.0 + 1e-3 * k), grid=grid)
    model.rhs(x, grid=grid)
    assert len(calls) == 1
