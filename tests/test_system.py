"""Assembled-system tests: equilibrium fidelity, network solve, grid variants,
structured Jacobian.

Grid-variant oracles are built by re-solving a modified network from scratch
(branch removed, load rescaled) rather than by reusing the stamping code
under test.  The closed-form converter solve is checked against the
fixed-point iteration it replaced, kept here as a test-local reference.
``DynamicSystem.jacobian`` is checked bit for bit against the generic
central differences of ``rhs``.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from windmodal.modal import jacobian, linearize
from windmodal.network import Branch, Bus, Network, build_ybus
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (build_scenario_system, load_packaged_scenario,
                                packaged_scenario_names)
from windmodal.syncgen import SyncGen, SyncGenParams
from windmodal.system import (DEFAULT_FAULT_ADMITTANCE, FaultSpec,
                              SystemModelError, assemble)
from windmodal.timedomain import Event, simulate
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


def _two_loop_balance_residual(model, x, v, grid):
    """The residual as first written: Norton shunts subtracted from the
    device currents, then again from the network absorption."""
    base = model.network.base_mva
    p_dev = 0.0
    for dev, sl, row in zip(model.devices, model._slices, model._rows):
        i = dev.source_current(x[sl], v[row], base) \
            - dev.norton_admittance(base) * v[row]
        p_dev += (v[row] * np.conj(i)).real
    p_net = float((v @ np.conj(grid.y @ v)).real)
    for dev, sl, row in zip(model.devices, model._slices, model._rows):
        p_net -= (v[row] * np.conj(dev.norton_admittance(base) * v[row])).real
    return abs(p_dev - p_net)


def test_power_balance_residual_matches_the_two_loop_formula(system_b):
    # on the grid the trace ran on the residual is tiny; against the
    # unfaulted grid the fault current is unaccounted for and it is large
    tr = simulate(system_b, events=[Event("three_phase_fault", 0.0, bus=8)],
                  t_end=0.1)
    faulted = system_b.grid_variant(faults=[FaultSpec(bus=8)])
    large = 0.0
    for x, v in zip(tr.states[::10], tr.voltages[::10]):
        for grid in (faulted, system_b.base_grid):
            want = _two_loop_balance_residual(system_b, x, v, grid)
            got = system_b.power_balance_residual(x, v, grid=grid)
            assert abs(got - want) <= 1e-12
            large = max(large, want)
    assert large > 1e-2


def test_bus_fault_variant_adds_the_shunt(system_a):
    g = system_a.grid_variant(faults=[FaultSpec(bus=8, admittance=500.0)])
    delta = g.y - system_a.base_grid.y
    row = system_a.network.index()[8]
    assert delta[row, row] == pytest.approx(500.0)
    delta[row, row] = 0.0
    assert np.max(np.abs(delta)) == 0.0


def test_midpoint_fault_depresses_the_voltage(system_a):
    g = system_a.grid_variant(faults=[FaultSpec(branch="L8-9a")])
    assert g.y.shape[0] == system_a.network.n_bus + 1
    v = system_a.solve_network(system_a.equilibrium(), grid=g)
    assert abs(v[-1]) < 0.05           # faulted midpoint collapses
    assert abs(v[system_a.network.index()[8]]) < 0.7


def test_midpoint_fault_matches_a_network_with_the_branch_split(system_a):
    g = system_a.grid_variant(faults=[FaultSpec(branch="L8-9a")])

    net, _ = build_two_area("A")
    br = net.branch("L8-9a")
    half = dict(r=br.r / 2.0, x=br.x / 2.0, b_shunt=br.b_shunt / 2.0)
    net_split = Network(
        buses=net.buses + [Bus(id=99)],
        branches=([b for b in net.branches if b.label != "L8-9a"]
                  + [Branch(br.from_bus, 99, name="L8-m", **half),
                     Branch(99, br.to_bus, name="Lm-9", **half)]),
        base_mva=net.base_mva, frequency_hz=net.frequency_hz)
    pf = solve_power_flow(net, tol=1e-12)  # same operating point as model
    vm = {b.id: abs(pf.voltage(b.id)) for b in net.buses}
    y_expect, idx = build_ybus(net_split, include_load_shunts=True,
                               load_voltages=vm)
    for dev in system_a.devices:
        row = idx[dev.bus_id]
        y_expect[row, row] += dev.norton_admittance(net.base_mva)
    y_expect[idx[99], idx[99]] += DEFAULT_FAULT_ADMITTANCE
    assert idx[99] == g.y.shape[0] - 1
    assert np.max(np.abs(g.y - y_expect)) <= 1e-12


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


def test_midpoint_fault_rejects_a_branch_already_out_of_service():
    # the base network carries no stamp for an out-of-service branch, so a
    # midpoint fault there would subtract one that was never added
    net, devices = build_two_area("A")
    net_out = Network(
        buses=net.buses,
        branches=[dataclasses.replace(br, in_service=False)
                  if br.label == "L8-9b" else br for br in net.branches],
        base_mva=net.base_mva, frequency_hz=net.frequency_hz)
    model = assemble(net_out, devices, solve_power_flow(net_out, tol=1e-12))
    with pytest.raises(SystemModelError, match="'L8-9b' is already out"):
        model.grid_variant(faults=[FaultSpec(branch="L8-9b")])
    with pytest.raises(SystemModelError, match="'L8-9b' is already out"):
        model.grid_variant(out_branches=["L8-9b"])
    g = model.grid_variant(faults=[FaultSpec(branch="L8-9a")])
    assert g.y.shape[0] == net.n_bus + 1      # one bus for the midpoint


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
    for bad in (math.nan, math.inf):
        with pytest.raises(SystemModelError, match="finite"):
            FaultSpec(branch="L8-9a", admittance=bad)
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
    for k, g in enumerate(grids):
        v = model.solve_network(x, grid=g)
        assert np.max(np.abs(v - reference_solve(model, x, g))) <= 1e-10, \
            f"grid {k}"


def test_network_solve_names_voltage_collapse():
    model = packaged_system("B_voltage_support")
    names = [str(lab) for lab in model.state_labels()]
    x = model.equilibrium()
    x[names.index("W1.i_p")] = x[names.index("W1.i_q")] = 20.0
    with pytest.raises(SystemModelError, match="no network solution"):
        model.solve_network(x)


@pytest.mark.parametrize("name, grid", [
    ("A", None), ("B_voltage_support", None),
    ("B_voltage_support", FaultSpec(branch="L8-9a")),
    ("B_voltage_support", FaultSpec(bus=8)),
], ids=["A", "B_base", "B_midpoint_fault", "B_bus8_fault"])
def test_broadcast_network_solve_is_the_scalar_one_bit_for_bit(name, grid):
    # the recorder solves the network for a segment's samples at once; each
    # row must be what a call on that sample alone returns
    model = packaged_system(name)
    grid = model.base_grid if grid is None else model.grid_variant(
        faults=[grid])
    rng = np.random.default_rng(11)
    xs = (model.equilibrium()
          + 0.02 * rng.standard_normal((200, model.n_states)))
    v = model.solve_network(xs, grid=grid)
    assert v.shape == (200, grid.y.shape[0])
    for x, row in zip(xs, v):
        assert row.tobytes() == model.solve_network(x, grid=grid).tobytes()


def test_broadcast_network_solve_names_a_collapsing_sample():
    model = packaged_system("B_voltage_support")
    names = [str(lab) for lab in model.state_labels()]
    xs = np.tile(model.equilibrium(), (5, 1))
    xs[3, names.index("W1.i_p")] = xs[3, names.index("W1.i_q")] = 20.0
    model.solve_network(xs[:3])
    with pytest.raises(SystemModelError, match="voltage collapse"):
        model.solve_network(xs)


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


# -- structured Jacobian ---------------------------------------------------------------

def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def generic_jacobian(model, x, grid=None):
    return jacobian(lambda z: model.rhs(z, grid), x)


def count_full_rhs(monkeypatch, model):
    calls = []
    full = model.rhs
    monkeypatch.setattr(model, "rhs",
                        lambda z, grid=None: calls.append(1) or full(z, grid))
    return calls


@pytest.mark.parametrize("name", packaged_scenario_names())
def test_structured_jacobian_is_the_generic_one_at_equilibrium(name):
    model = packaged_system(name)
    x = model.equilibrium()
    assert np.array_equal(bits(model.jacobian(x)),
                          bits(generic_jacobian(model, x)))


@pytest.mark.parametrize("name", ["A", "B_voltage_support",
                                  "C_reactive_power_support"])
def test_structured_jacobian_is_the_generic_one_off_equilibrium(name):
    model = packaged_system(name)
    rng = np.random.default_rng(11)
    grids = [
        model.grid_variant(faults=[FaultSpec(bus=8)]),
        model.grid_variant(faults=[FaultSpec(branch="L8-9a")]),
        model.grid_variant(out_branches=["L8-9b"]),
        model.grid_variant(load_scales={9: 1.2}),
    ]
    for k, g in enumerate(grids):
        x = model.equilibrium() + 0.02 * rng.standard_normal(model.n_states)
        assert np.array_equal(bits(model.jacobian(x, g)),
                              bits(generic_jacobian(model, x, g))), \
            f"grid {k}"


@pytest.mark.parametrize("name", packaged_scenario_names())
def test_linearize_makes_full_rhs_calls_only_for_network_states(monkeypatch,
                                                                 name):
    # 3 network states per machine (delta, eq_st, ed_st), 2 for the DFIG
    # (i_p, i_q): A has 4 machines, B adds the farm, C has 3 machines and
    # the farm; the extra call is linearize's equilibrium check
    model = packaged_system(name)
    calls = count_full_rhs(monkeypatch, model)
    linearize(model)
    network_states = {"A": 12, "B": 14, "C": 11}[name[0]]
    assert len(calls) == 2 * network_states + 1


def test_a_source_that_follows_every_state_takes_only_full_columns(
        monkeypatch):
    class Coupled(SyncGen):
        """A machine whose source current moves with each of its states;
        unchanged at the equilibrium, so assembly still accepts it."""

        def initialize(self, *args):
            self._x_ref = super().initialize(*args)
            return self._x_ref

        def source_current(self, x, v, system_base_mva):
            scale = 1.0 + 1e-3 * float(np.sum(x - self._x_ref))
            return super().source_current(x, v, system_base_mva) * scale

    net, devices = build_two_area("A")
    devices[0] = Coupled(devices[0].device_id, devices[0].bus_id,
                         devices[0].params)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    x = model.equilibrium()
    x[0] += 1e-3
    want = generic_jacobian(model, x)
    calls = count_full_rhs(monkeypatch, model)
    got = model.jacobian(x)
    assert len(calls) == 2 * (devices[0].n_states + 3 * 3)
    assert np.array_equal(bits(got), bits(want))


def test_structured_jacobian_keeps_rows_that_are_not_a_number(monkeypatch):
    # rows that are NaN at x must not turn into zeros in the columns that
    # skip the network
    model = packaged_system("A")
    g2 = model.devices[1]
    finite = g2.derivatives
    monkeypatch.setattr(g2, "derivatives",
                        lambda x, v: finite(x, v) * np.array(
                            [math.nan] + [1.0] * (g2.n_states - 1)))
    x = model.equilibrium()
    got = model.jacobian(x)
    assert np.isnan(got[model.n_states // 4]).all()    # G2.delta's row
    assert np.array_equal(bits(got), bits(generic_jacobian(model, x)))


def test_structured_jacobian_mutates_nothing():
    model = packaged_system("B_voltage_support")
    grid = model.grid_variant(faults=[FaultSpec(branch="L8-9a")])
    rng = np.random.default_rng(5)
    x = model.equilibrium() + 0.02 * rng.standard_normal(model.n_states)
    x_before = x.copy()
    before = pickle.dumps((model, grid))
    model.jacobian(x, grid)
    assert np.array_equal(bits(x), bits(x_before))
    assert pickle.dumps((model, grid)) == before
