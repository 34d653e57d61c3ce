"""Assembled-system tests: equilibrium fidelity, network solve, grid variants,
structured Jacobian.

Grid-variant oracles are built by re-solving a modified network from scratch
(branch removed, load rescaled) rather than by reusing the stamping code
under test.  The closed-form converter solve is checked against the
fixed-point iteration it replaced, kept here as a test-local reference.
The stacked ``modal.jacobian`` of ``rhs`` is checked bit for bit against
central differences taken column by column, one sample per ``rhs`` call.
"""

import math
import pickle
import re

import numpy as np
import pytest

from windmodal.modal import ModalError, jacobian, linearize
from windmodal.network import Branch, Bus, Network, build_ybus
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (build_scenario_system, load_packaged_scenario,
                                packaged_scenario_names)
from windmodal.syncgen import SyncGen, SyncGenParams
from windmodal.system import SystemModelError, assemble
from windmodal.timedomain import DEFAULT_FAULT_ADMITTANCE, Event, simulate
from windmodal.twoarea import build_two_area

from conftest import build_system


# active events as the script hands them to ``grid_variant``
def fault(**where):
    return Event("three_phase_fault", 0.0, **where)


def trip(branch):
    return Event("line_trip", 0.0, branch=branch)


def load_step(bus, scale):
    return Event("load_step", 0.0, bus=bus, scale=scale)


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


@pytest.mark.parametrize("name", ["A", "B_voltage_support",
                                  "C_voltage_support"])
def test_system_limits_list_each_device_limit_at_its_slice_offset(name):
    # the integrator reads the limiters from the model alone
    model = packaged_system(name)
    labels = model.state_labels()
    want, start = [], 0
    for dev in model.devices:
        for k, lo, hi in dev.limits():
            want.append((start + k, lo, hi))
            assert str(labels[start + k]) == \
                f"{dev.device_id}.{dev.state_names[k]}"
        start += dev.n_states
    assert want and model.limits() == want


def test_device_outputs_exposes_every_device(system_b):
    x0 = system_b.equilibrium()
    out = system_b.device_outputs(x0, system_b.equilibrium_voltages)
    for dev in ("G1", "G2", "G3", "G4", "W1"):
        assert f"{dev}.active_power" in out
        assert out[f"{dev}.rotor_speed"] == pytest.approx(1.0, abs=1e-9) \
            or dev == "W1"


def test_power_balance_residual_is_tiny_at_equilibrium(system_a, system_b):
    for model in (system_a, system_b):
        v = model.equilibrium_voltages
        res = model.power_balance_residual(
            v, model.device_outputs(model.equilibrium(), v))
        assert res < 1e-10


@pytest.mark.parametrize("name", ["A", "C_voltage"])
def test_power_balance_residual_has_a_stacks_bits_on_any_number_of_rows(
        name):
    # numpy's product over one row takes the vector-matrix (gemv) route,
    # over two or more the matrix (gemm) one, which round differently; the
    # residual gives a sample the same bits alone and in a stack
    model = packaged_system(name)
    x, v = model.equilibrium(), model.equilibrium_voltages
    one = model.power_balance_residual(v, model.device_outputs(x, v))
    assert one.shape == ()
    for n in (1, 2, 3, 1001):
        xs, vs = (np.broadcast_to(a, (n, a.size)) for a in (x, v))
        res = model.power_balance_residual(vs, model.device_outputs(xs, vs))
        assert res.shape == (n,)
        assert np.array_equal(bits(res), bits(np.full(n, one))), n
    xs = x + 0.02 * np.random.default_rng(3).standard_normal((1001, x.size))
    vs = model.solve_network(xs)
    res = model.power_balance_residual(vs, model.device_outputs(xs, vs))
    alone = [model.power_balance_residual(v1, model.device_outputs(x1, v1))
             for x1, v1 in zip(xs, vs)]
    assert np.array_equal(bits(res), bits(np.array(alone)))


def injection(dev, x, v, base):
    """A device's source current at terminal voltage ``v``; a converter's
    current takes the angle of ``v``."""
    i = dev.source_current(x, base)
    return i * v / abs(v) if dev.device_class == "converter" else i


def with_loads(y, idx, net, pf):
    """Add each load to ``y`` in place as the constant impedance
    ``(P - jQ) / |V_pf|^2`` at the power-flow voltage."""
    for b in net.buses:
        if b.p_load != 0.0 or b.q_load != 0.0:
            y[idx[b.id], idx[b.id]] += (complex(b.p_load, -b.q_load)
                                        / abs(pf.voltage(b.id)) ** 2)


def _two_loop_balance_residual(model, x, v, grid):
    """The residual as first written: Norton shunts subtracted from the
    device currents, then again from the network absorption."""
    base = model.network.base_mva
    p_dev = 0.0
    for dev, sl, row in zip(model.devices, model._slices, model._rows):
        i = injection(dev, x[sl], v[row], base) \
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
    faulted = system_b.grid_variant([fault(bus=8)])
    large = 0.0
    for x, v in zip(tr.states[::10], tr.voltages[::10]):
        for grid in (faulted, system_b.base_grid):
            want = _two_loop_balance_residual(system_b, x, v, grid)
            got = system_b.power_balance_residual(
                v, system_b.device_outputs(x, v), grid=grid)
            assert abs(got - want) <= 1e-12
            large = max(large, want)
    assert large > 1e-2


@pytest.mark.parametrize("case", ["A", "B"])
def test_base_grid_is_the_branches_plus_load_and_norton_shunts(case):
    # the loads are constant impedances at the power-flow voltages, added
    # to the branch admittances before the Norton shunts: bit for bit
    net, devices = build_two_area(case)
    pf = solve_power_flow(net, tol=1e-12)
    model = assemble(net, devices, pf)
    y, idx = build_ybus(net), net.index()
    with_loads(y, idx, net, pf)
    for dev in devices:
        y[idx[dev.bus_id], idx[dev.bus_id]] += dev.norton_admittance(
            net.base_mva)
    assert model.base_grid.y.tobytes() == y.tobytes()


def test_bus_fault_variant_adds_the_shunt(system_a):
    g = system_a.grid_variant([fault(bus=8, admittance=500.0)])
    delta = g.y - system_a.base_grid.y
    row = system_a.network.index()[8]
    assert delta[row, row] == pytest.approx(500.0)
    delta[row, row] = 0.0
    assert np.max(np.abs(delta)) == 0.0


def test_midpoint_fault_depresses_the_voltage(system_a):
    g = system_a.grid_variant([fault(branch="L8-9a")])
    assert g.y.shape[0] == system_a.network.n_bus + 1
    v = system_a.solve_network(system_a.equilibrium(), grid=g)
    assert abs(v[-1]) < 0.05           # faulted midpoint collapses
    assert abs(v[system_a.network.index()[8]]) < 0.7


def test_midpoint_fault_matches_a_network_with_the_branch_split(system_a):
    g = system_a.grid_variant([fault(branch="L8-9a")])

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
    y_expect, idx = build_ybus(net_split), net_split.index()
    with_loads(y_expect, idx, net, pf)
    for dev in system_a.devices:
        row = idx[dev.bus_id]
        y_expect[row, row] += dev.norton_admittance(net.base_mva)
    y_expect[idx[99], idx[99]] += DEFAULT_FAULT_ADMITTANCE
    assert idx[99] == g.y.shape[0] - 1
    assert np.max(np.abs(g.y - y_expect)) <= 1e-12


def test_line_trip_variant_matches_a_network_built_without_the_branch():
    model = build_system("A")
    g = model.grid_variant([trip("L8-9b")])

    net, devices = build_two_area("A")
    net_out = Network(
        buses=net.buses,
        branches=[br for br in net.branches if br.label != "L8-9b"],
        base_mva=net.base_mva, frequency_hz=net.frequency_hz)
    pf = solve_power_flow(net, tol=1e-12)  # same operating point as model
    y_expect, idx = build_ybus(net_out), net_out.index()
    with_loads(y_expect, idx, net, pf)
    for dev, row in zip(model.devices,
                        [model.network.index()[d.bus_id]
                         for d in model.devices]):
        y_expect[row, row] += dev.norton_admittance(net.base_mva)
    assert np.max(np.abs(g.y - y_expect)) < 1e-12


def test_load_step_variant_scales_the_constant_impedance(system_a):
    g = system_a.grid_variant([load_step(7, 1.05)])
    row = system_a.network.index()[7]
    delta = g.y - system_a.base_grid.y
    base_load = system_a._load_admittance[row]
    assert delta[row, row] == pytest.approx(0.05 * base_load, rel=1e-12)


def test_variant_validation_errors(system_a):
    with pytest.raises(SystemModelError, match="unknown bus"):
        system_a.grid_variant([fault(bus=99)])
    from windmodal.network import NetworkError
    with pytest.raises(NetworkError, match="no branch"):
        system_a.grid_variant([trip("nope")])
    with pytest.raises(SystemModelError, match="both faulted and out"):
        system_a.grid_variant([fault(branch="L8-9a"), trip("L8-9a")])
    with pytest.raises(SystemModelError, match="no load to step"):
        system_a.grid_variant([load_step(8, 1.1)])
    with pytest.raises(SystemModelError, match="unknown bus"):
        system_a.grid_variant([load_step(99, 1.1)])
    with pytest.raises(SystemModelError, match="more than one load step"):
        system_a.grid_variant([load_step(7, 1.1), load_step(7, 1.2)])
    with pytest.raises(SystemModelError, match="clear_fault event changes "
                       "no grid"):
        system_a.grid_variant([Event("clear_fault", 0.0, bus=8)])


def test_grid_variant_applies_the_kinds_in_a_fixed_order(system_a):
    # trips, midpoint faults, bus faults, load steps, each kind in the
    # order given: the sums on buses 8 and 9 come out the same, bit for
    # bit, however the script interleaves the kinds
    at_8 = fault(bus=8, admittance=500.0)
    documented = [trip("L8-9b"), fault(branch="L8-9a"), fault(bus=8), at_8,
                  load_step(7, 1.05), load_step(9, 0.98)]
    scrambled = [documented[i] for i in (4, 2, 1, 5, 0, 3)]
    one, two = (system_a.grid_variant(events)
                for events in (documented, scrambled))
    assert one.y.tobytes() == two.y.tobytes()
    assert one.z_dev.tobytes() == two.z_dev.tobytes()


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
            i[row] += injection(dev, x[pos:pos + dev.n_states], v[row],
                                base)
            pos += dev.n_states
        v_new = np.linalg.solve(grid.y, i)
        delta = np.max(np.abs(v_new - v))
        v = v_new
        if delta <= tol:
            return v
    raise AssertionError(f"reference iteration stalled at step {delta:.2e}")


@pytest.mark.parametrize("name", ["A", "B_voltage_support", "C_voltage",
                                  "C_reactive_power_support"])
def test_closed_form_network_solve_matches_the_fixed_point(name):
    # every device-bus impedance column enters each solve, so the variants
    # check them all, on the base and on an augmented grid, at 20 drawn
    # states each; C has no G4, so its converter bus sees another row
    model = packaged_system(name)
    rng = np.random.default_rng(7)
    last_bus = model.devices[-1].bus_id     # the converter bus, if any
    grids = [
        model.base_grid,
        model.grid_variant([fault(bus=last_bus)]),
        model.grid_variant([fault(branch="L8-9a")]),
        model.grid_variant([trip("L8-9b")]),
        model.grid_variant([load_step(9, 1.2)]),
        model.grid_variant([fault(branch="L8-9a"), trip("L8-9b"),
                            load_step(9, 1.2)]),
    ]
    for k, g in enumerate(grids):
        for _ in range(20):
            x = model.equilibrium() + 0.02 * rng.standard_normal(
                model.n_states)
            v = model.solve_network(x, grid=g)
            assert np.max(np.abs(v - reference_solve(model, x, g))) \
                <= 1e-10, f"grid {k}"


def test_network_solve_names_voltage_collapse():
    model = packaged_system("B_voltage_support")
    names = [str(lab) for lab in model.state_labels()]
    x = model.equilibrium()
    x[names.index("W1.i_p")] = x[names.index("W1.i_q")] = 20.0
    with pytest.raises(SystemModelError, match="no network solution"):
        model.solve_network(x)


def assert_rows_are_scalar_solves(model, xs, grid):
    v = model.solve_network(xs, grid=grid)
    assert v.shape == (len(xs), grid.y.shape[0])
    want = np.array([model.solve_network(x, grid=grid) for x in xs])
    assert v.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, grid", [
    ("A", None), ("B_voltage_support", None),
    ("B_voltage_support", fault(branch="L8-9a")),
    ("B_voltage_support", fault(bus=8)),
    ("C_voltage_support", None),
    ("C_voltage_support", fault(branch="L8-9a")),
], ids=["A", "B_base", "B_midpoint_fault", "B_bus8_fault", "C_base",
        "C_midpoint_fault"])
def test_broadcast_network_solve_is_the_scalar_one_bit_for_bit(name, grid):
    # the recorder solves the network for a segment's samples at once; each
    # row must be what a call on that sample alone returns.  A last-bit
    # difference shows in about one row per thousand, hence the sample
    # count; C has no G4, so its converter bus sees a different impedance
    # row
    model = packaged_system(name)
    grid = model.base_grid if grid is None else model.grid_variant([grid])
    rng = np.random.default_rng(11)
    xs = (model.equilibrium()
          + 0.02 * rng.standard_normal((5000, model.n_states)))
    assert_rows_are_scalar_solves(model, xs, grid)


def test_broadcast_network_solve_is_the_scalar_one_on_a_fault_trace():
    # the states a faulted run records, on the faulted and the base grid
    model = packaged_system("B_voltage_support")
    tr = simulate(model, events=[Event("three_phase_fault", 0.2,
                                       branch="L8-9a", duration=0.1)],
                  t_end=2.0)
    assert tr.time.size == 2001
    for grid in (model.base_grid,
                 model.grid_variant([fault(branch="L8-9a")])):
        assert_rows_are_scalar_solves(model, tr.states, grid)


def test_a_faulted_run_uses_the_scalar_solve_only_to_evaluate_the_model(
        monkeypatch):
    # every model evaluation is one call of the run's generated ``rhs``,
    # one straight-line single-sample solve with no loop; the interpreted
    # pass runs once on traced values to build it (ndim 0) and never on one
    # sample, and the recorded samples take their solves from one stacked
    # pass per segment (before, during and after the fault)
    model = packaged_system("B_voltage_support")
    solves, evaluations = {0: 0, 1: 0, 2: 0}, []
    evaluate, generate = model._evaluate, model.generate_rhs

    def counted_solve(x, grid, rates=True):
        solves[x.ndim] += 1
        return evaluate(x, grid, rates)

    def counted_rhs():
        rhs = generate()
        return lambda x, grid: evaluations.append(1) or rhs(x, grid)

    monkeypatch.setattr(model, "_evaluate", counted_solve)
    monkeypatch.setattr(model, "generate_rhs", counted_rhs)
    tr = simulate(model, events=[Event("three_phase_fault", 0.1,
                                       branch="L8-9a", duration=0.1)],
                  t_end=0.5)
    assert tr.time.size == 501
    assert len(evaluations) > 0
    assert solves == {0: 1, 1: 0, 2: 3}


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
    grid = model.grid_variant([fault(branch="L8-9a")])
    assert len(calls) == 1          # the grid's device-bus impedance columns
    x = model.equilibrium()
    for k in range(5):
        model.solve_network(x * (1.0 + 1e-3 * k), grid=grid)
    model.rhs(x, grid=grid)
    assert len(calls) == 1


# -- one evaluation: rhs is the devices' derivatives at the network solution ---

@pytest.mark.parametrize("name", packaged_scenario_names())
def test_rhs_is_each_devices_derivatives_at_the_network_solution(name):
    # rhs computes every source once and runs the devices' rates off the
    # same pass; the reference is the public calls one by one: each
    # device's derivatives on its state slice, at its bus voltage from
    # solve_network as the Python complex one sample's voltages are
    model = packaged_system(name)
    rows = model.network.index()
    rng = np.random.default_rng(17)
    grids = [
        model.base_grid,
        model.grid_variant([fault(bus=model.devices[-1].bus_id)]),
        model.grid_variant([fault(branch="L8-9a")]),
        model.grid_variant([trip("L8-9b")]),
        model.grid_variant([load_step(9, 1.2)]),
    ]
    for k, g in enumerate(grids):
        for _ in range(20):
            x = model.equilibrium() + 0.02 * rng.standard_normal(
                model.n_states)
            v = model.solve_network(x, grid=g).tolist()
            want, pos = [], 0
            for dev in model.devices:
                want.append(dev.derivatives(x[pos:pos + dev.n_states],
                                            v[rows[dev.bus_id]]))
                pos += dev.n_states
            assert np.array_equal(bits(model.rhs(x, g)),
                                  bits(np.concatenate(want))), f"grid {k}"


# -- structured Jacobian: one stacked evaluation of the assembled system ---

def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def column_jacobian(f, x, step=1e-6):
    """The central differences column by column, ``f`` called on one
    sample at a time: the reference for the stacked ``jacobian``."""
    n = x.size
    a = np.empty((n, n))
    for k in range(n):
        h = step * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        a[:, k] = (f(xp) - f(xm)) / (2.0 * h)
    return a


@pytest.mark.parametrize("name", packaged_scenario_names())
def test_structured_jacobian_is_the_generic_one_at_equilibrium(name):
    model = packaged_system(name)
    want = column_jacobian(model.rhs, model.equilibrium())
    assert np.array_equal(bits(linearize(model).a), bits(want))


@pytest.mark.parametrize("name", ["A", "B_voltage_support",
                                  "C_reactive_power_support"])
def test_structured_jacobian_is_the_generic_one_off_equilibrium(name):
    model = packaged_system(name)
    rng = np.random.default_rng(11)
    grids = [
        model.grid_variant([fault(bus=8)]),
        model.grid_variant([fault(branch="L8-9a")]),
        model.grid_variant([trip("L8-9b")]),
        model.grid_variant([load_step(9, 1.2)]),
    ]
    for k, g in enumerate(grids):
        x = model.equilibrium() + 0.02 * rng.standard_normal(model.n_states)

        def f(z):
            return model.rhs(z, g)

        assert np.array_equal(bits(jacobian(f, x)),
                              bits(column_jacobian(f, x))), f"grid {k}"


@pytest.mark.parametrize("name", packaged_scenario_names())
def test_linearize_makes_one_stacked_rhs_call(monkeypatch, name):
    # the equilibrium check, then all 2n perturbed points at once
    model = packaged_system(name)
    shapes = []
    rhs = model.rhs
    monkeypatch.setattr(model, "rhs", lambda x, grid=None: shapes.append(
        np.shape(x)) or rhs(x, grid))
    linearize(model)
    n = model.n_states
    assert shapes == [(n,), (2 * n, n)]


@pytest.mark.parametrize("name", ["A", "B_voltage_support"])
def test_linearize_solves_the_network_at_the_equilibrium_then_over_the_stack(
        monkeypatch, name):
    # the equilibrium check is one plain rhs call, with its own scalar
    # solve; the 2n perturbed points take exactly one solve, over their
    # stack
    model = packaged_system(name)
    solves = []
    evaluate = model._evaluate
    monkeypatch.setattr(model, "_evaluate",
                        lambda x, grid, rates=True: solves.append(x.copy())
                        or evaluate(x, grid, rates))
    linearize(model)
    assert [x.shape for x in solves] == [(model.n_states,),
                                         (2 * model.n_states, model.n_states)]
    assert solves[0].tobytes() == model.equilibrium().tobytes()
    assert not (solves[1] == model.equilibrium()).all(axis=1).any()


def test_linearize_names_a_state_that_moves_at_the_assembled_equilibrium(
        monkeypatch):
    # the equilibrium check evaluates the devices as they are now
    model = packaged_system("A")
    g2 = model.devices[1]
    free = g2.rates
    push = np.zeros(g2.n_states)
    push[2] = 1e-3
    monkeypatch.setattr(g2, "rates", lambda *args: [
        r + p for r, p in zip(free(*args), push)])
    label = str(model.state_labels()[model.n_states // 4 + 2])
    with pytest.raises(ModalError, match=rf"'{re.escape(label)}'"):
        linearize(model)


def test_structured_jacobian_keeps_rows_that_are_not_a_number(monkeypatch):
    model = packaged_system("A")
    g2 = model.devices[1]
    finite = g2.rates
    monkeypatch.setattr(g2, "rates", lambda *args: [
        r * w for r, w in zip(finite(*args),
                              [math.nan] + [1.0] * (g2.n_states - 1))])
    x = model.equilibrium()
    got = jacobian(model.rhs, x)
    assert np.isnan(got[model.n_states // 4]).all()    # G2.delta's row
    assert np.array_equal(bits(got), bits(column_jacobian(model.rhs, x)))


def test_structured_jacobian_mutates_nothing():
    model = packaged_system("B_voltage_support")
    grid = model.grid_variant([fault(branch="L8-9a")])
    rng = np.random.default_rng(5)
    x = model.equilibrium() + 0.02 * rng.standard_normal(model.n_states)
    x_before = x.copy()
    before = pickle.dumps((model, grid))
    jacobian(lambda z: model.rhs(z, grid), x)
    assert np.array_equal(bits(x), bits(x_before))
    assert pickle.dumps((model, grid)) == before
