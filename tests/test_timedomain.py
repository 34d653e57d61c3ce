"""Integrator and ringdown tests.

The core oracle is the matrix exponential: released from a small
perturbation with no events, the nonlinear trajectory must follow
x0 + e^{At} dx to within the linearization error, where A comes from the
finite-difference state matrix.  Everything else checks event mechanics,
the recorded trace, and the damped-sinusoid fit against synthetic signals.
"""

import csv
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import windmodal
from windmodal.modal import linearize
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (build_scenario_system, load_packaged_scenario,
                                simulate_scenario)
from windmodal.system import FaultSpec, SystemModelError, assemble
from windmodal.timedomain import (Event, RingdownError, SimulationError,
                                  Trace, _find_peaks, cycles, cleared_grid,
                                  fault_grid, ringdown_fit, simulate)

from conftest import build_system


def test_cycles_converts_to_seconds():
    assert cycles(10) == pytest.approx(10.0 / 60.0)
    assert cycles(3, frequency_hz=50.0) == pytest.approx(0.06)


# -- event validation -----------------------------------------------------------


def test_event_validation():
    Event("three_phase_fault", 1.0, bus=8, duration=0.1)          # fine
    Event("three_phase_fault", 1.0, branch="L8-9a", duration=0.1)  # fine
    Event("three_phase_fault", 1.0, bus=8)   # no duration: until cleared
    with pytest.raises(ValueError, match="exactly one"):
        Event("three_phase_fault", 1.0, duration=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        Event("three_phase_fault", 1.0, bus=8, branch="L8-9a", duration=0.1)
    with pytest.raises(ValueError, match="duration"):
        Event("three_phase_fault", 1.0, bus=8, duration=0.0)
    with pytest.raises(ValueError, match="admittance"):
        Event("three_phase_fault", 1.0, bus=8, duration=0.1, admittance=-1.0)
    with pytest.raises(ValueError, match="bus"):
        Event("load_step", 1.0, scale=1.1)
    with pytest.raises(ValueError, match="scale"):
        Event("load_step", 1.0, bus=7, scale=-0.5)
    with pytest.raises(ValueError, match="branch"):
        Event("line_trip", 1.0)
    with pytest.raises(ValueError, match="kind"):
        Event("earthquake", 1.0)
    with pytest.raises(ValueError, match="t_start"):
        Event("load_step", -1.0, bus=7)


# -- equilibrium persistence and the matrix-exponential oracle --------------------


def test_undisturbed_simulation_stays_at_equilibrium(system_a):
    tr = simulate(system_a, t_end=1.0, dt_max=1e-3)
    assert np.max(np.abs(tr.states - tr.states[0])) < 1e-7
    assert tr.max_balance_residual < 1e-10


def test_small_release_follows_the_matrix_exponential(system_a):
    x0 = system_a.equilibrium()
    labels = [str(l) for l in system_a.state_labels()]
    dx0 = np.zeros_like(x0)
    dx0[labels.index("G1.speed")] = 2e-4
    a = linearize(system_a).a

    tr = simulate(system_a, equilibrium=x0 + dx0, t_end=10.0, dt_max=1e-3)
    # The exciters amplify the speed bump a few hundredfold before it dies
    # away, so judge the match against the largest excursion the linear
    # model predicts, not against the initial perturbation.
    linear_dev = {}
    for t_probe in (0.1, 0.5, 2.0, 5.0, 10.0):
        k = int(np.argmin(np.abs(tr.time - t_probe)))
        linear_dev[k] = expm(a * tr.time[k]) @ dx0
    scale = max(float(np.max(np.abs(d))) for d in linear_dev.values())
    assert scale > 100.0 * np.max(np.abs(dx0))
    for k, dev in linear_dev.items():
        err = np.max(np.abs(tr.states[k] - x0 - dev)) / scale
        assert err < 0.02, f"t={tr.time[k]}: relative error {err:.3e}"


def test_dt_halving_converges_on_a_load_step(system_a):
    ev = [Event("load_step", 0.2, bus=7, scale=1.03)]
    tr1 = simulate(system_a, events=ev, t_end=2.0, dt_max=1e-3)
    tr2 = simulate(system_a, events=ev, t_end=2.0, dt_max=5e-4)
    num = np.max(np.abs(tr1.states[-1] - tr2.states[-1]))
    den = max(1.0, float(np.max(np.abs(tr1.states[-1]))))
    assert num / den < 1e-3


# -- event mechanics -----------------------------------------------------------------


def test_fault_depresses_voltage_then_recovers(system_a):
    ev = [Event("three_phase_fault", 0.5, branch="L8-9a",
                duration=cycles(10))]
    tr = simulate(system_a, events=ev, t_end=3.0, dt_max=1e-3)
    v8 = tr.voltage_magnitude(8)
    during = (tr.time >= 0.52) & (tr.time <= 0.5 + cycles(10) - 0.02)
    after = tr.time >= 2.5
    assert np.max(v8[during]) < 0.65
    assert np.min(v8[after]) > 0.9
    # the disturbance actually excited the machines
    swing = tr.column("G1.rotor_speed") - tr.column("G3.rotor_speed")
    assert np.max(np.abs(swing)) > 1e-4


def test_bus_fault_event_applies_to_the_named_bus(system_a):
    ev = [Event("three_phase_fault", 0.2, bus=9, duration=0.05,
                admittance=200.0)]
    tr = simulate(system_a, events=ev, t_end=0.5, dt_max=1e-3)
    k = int(np.argmin(np.abs(tr.time - 0.23)))
    assert tr.voltage_magnitude(9)[k] < tr.voltage_magnitude(9)[0]


def test_load_step_settles_to_a_new_operating_point(system_a):
    ev = [Event("load_step", 0.2, bus=9, scale=1.02)]
    tr = simulate(system_a, events=ev, t_end=6.0, dt_max=1e-3)
    v9 = tr.voltage_magnitude(9)
    assert v9[-1] < v9[0] - 1e-4   # heavier load, lower voltage
    # No governors, so absolute angles keep ramping with the frequency
    # offset; settling shows up in reference-free signals instead.
    late = tr.time > 5.0
    early = (tr.time > 0.2) & (tr.time < 1.2)
    swing = tr.column("G1.rotor_speed") - tr.column("G3.rotor_speed")
    assert np.ptp(swing[late]) < 0.7 * np.ptp(swing[early])
    vm = np.abs(tr.voltages)
    assert np.ptp(vm[late], axis=0).max() < np.ptp(vm[early], axis=0).max()


def test_line_trip_is_permanent(system_a):
    ev = [Event("line_trip", 0.3, branch="L8-9b")]
    tr = simulate(system_a, events=ev, t_end=2.0, dt_max=1e-3)
    v8_end = tr.voltage_magnitude(8)[-1]
    assert abs(v8_end - tr.voltage_magnitude(8)[0]) > 1e-4


def test_fault_with_explicit_clear_event(system_a):
    evs = [Event("three_phase_fault", 0.3, bus=8),
           Event("clear_fault", 0.4, bus=8)]
    tr = simulate(system_a, events=evs, t_end=1.0, dt_max=1e-3)
    k_during = int(np.argmin(np.abs(tr.time - 0.35)))
    assert tr.voltage_magnitude(8)[k_during] < 0.1
    assert tr.voltage_magnitude(8)[-1] > 0.8


def test_clearing_a_nonexistent_fault_fails(system_a):
    with pytest.raises(SimulationError, match="no active fault"):
        simulate(system_a, events=[Event("clear_fault", 0.2, bus=8)],
                 t_end=0.5)


def test_tripping_the_same_branch_twice_fails(system_a):
    evs = [Event("line_trip", 0.1, branch="L8-9b"),
           Event("line_trip", 0.2, branch="L8-9b")]
    with pytest.raises(SimulationError, match="already"):
        simulate(system_a, events=evs, t_end=0.5)


def test_events_beyond_the_horizon_are_ignored_with_a_warning(system_a,
                                                              caplog):
    with caplog.at_level(logging.WARNING, logger="windmodal.timedomain"):
        tr = simulate(system_a,
                      events=[Event("load_step", 9.0, bus=7, scale=1.1)],
                      t_end=0.5, dt_max=1e-3)
    assert any("beyond" in rec.message for rec in caplog.records)
    assert np.max(np.abs(tr.states - tr.states[0])) < 1e-7


def test_newton_stall_reports_partial_progress(system_a):
    ev = [Event("three_phase_fault", 0.05, branch="L8-9a",
                duration=cycles(10))]
    with pytest.raises(SimulationError) as err:
        simulate(system_a, events=ev, t_end=1.0, dt_max=1e-3,
                 dt_min=1e-3, newton_tol=1e-300, max_newton=2)
    assert err.value.trace is not None
    assert err.value.trace.time.size > 0


# with a load step at t = 14 ms: solve 1 records t = 0, solve 2 enters the
# first segment, solves 3-46 build its Jacobian (44 states), and each of the
# 14 steps at equilibrium takes one Newton rhs (solves 47-60).  So the 60th
# network solve falls in a Newton iterate's rhs (the step from 13 ms), and
# the 61st is the segment-entry solve after the event.
@pytest.mark.parametrize("fail_after", [59, 60])
def test_network_failure_mid_run_keeps_the_partial_trace(monkeypatch,
                                                         fail_after):
    t_fail = {59: 0.013, 60: 0.014}[fail_after]
    model = build_system("A")
    solve = model.solve_network
    calls = []

    def failing(x, grid=None):
        calls.append(1)
        if len(calls) > fail_after:
            raise SystemModelError("injected network failure")
        return solve(x, grid=grid)

    monkeypatch.setattr(model, "solve_network", failing)
    with pytest.raises(SimulationError,
                       match=f"network solution failed at t={t_fail:.6f}s"
                             ".*injected") as err:
        simulate(model, events=[Event("load_step", 0.014, bus=7, scale=1.1)],
                 t_end=0.5, dt_max=1e-3)
    assert err.value.trace is not None
    assert err.value.trace.time.size > 1


def test_recorded_voltages_are_the_network_solution_of_each_sample():
    # the integrator keeps the voltages of each accepted step's last Newton
    # iterate; on a grid that never changes they must be the network
    # solution at the recorded state
    scenario = load_packaged_scenario("B_voltage_support")
    net, devices = build_scenario_system(scenario)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    tr = simulate(model, events=[Event("three_phase_fault", 0.0, bus=8)],
                  t_end=0.3)
    grid = model.grid_variant(faults=[FaultSpec(bus=8)])
    for x, v in zip(tr.states, tr.voltages):
        want = model.solve_network(x, grid=grid)[:net.n_bus]
        assert np.max(np.abs(v - want)) <= 1e-12


# -- fault grid helpers ----------------------------------------------------------------


def test_fault_and_cleared_grid_helpers(system_a):
    fg = fault_grid(system_a, branch="L8-9a")
    assert fg.y.shape[0] == system_a.network.n_bus + 1
    cg = cleared_grid(system_a)
    assert cg is system_a.base_grid


# -- trace bookkeeping -------------------------------------------------------------------


def test_trace_lookup_and_csv_round_trip(tmp_path, system_a):
    tr = simulate(system_a, t_end=0.05, dt_max=1e-3)
    assert tr.column("G1.delta").shape == tr.time.shape
    assert tr.column("G2.active_power").shape == tr.time.shape
    assert tr.voltage_magnitude(7)[0] == pytest.approx(0.9878695, abs=1e-6)
    with pytest.raises(KeyError, match="no trace column"):
        tr.column("G1.nonsense")
    with pytest.raises(KeyError):
        tr.voltage_magnitude(99)

    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tr.time.size
    assert float(rows[3]["time"]) == pytest.approx(tr.time[3])
    assert float(rows[0]["G1.delta"]) == pytest.approx(tr.states[0, 0],
                                                       rel=1e-9)
    assert float(rows[0]["bus8.vm"]) == pytest.approx(
        tr.voltage_magnitude(8)[0], rel=1e-9)


# -- ringdown fitting ---------------------------------------------------------------------


def synth(t, sigma, omega, amp=1.5, phase=0.4, offset=0.2, noise=0.0,
          seed=0):
    y = amp * np.exp(sigma * t) * np.cos(omega * t + phase) + offset
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, t.size)
    return y


def test_ringdown_fit_recovers_synthetic_parameters():
    t = np.linspace(0.0, 20.0, 4001)
    fit = ringdown_fit(t, synth(t, -0.12, 3.4))
    assert fit.sigma == pytest.approx(-0.12, rel=1e-6)
    assert fit.omega == pytest.approx(3.4, rel=1e-6)
    assert fit.amplitude == pytest.approx(1.5, rel=1e-5)
    assert fit.offset == pytest.approx(0.2, abs=1e-6)
    assert fit.residual < 1e-6
    assert fit.frequency_hz == pytest.approx(3.4 / (2.0 * math.pi))
    assert fit.damping_ratio == pytest.approx(
        0.12 / math.hypot(0.12, 3.4), rel=1e-6)


def test_ringdown_fit_tolerates_noise():
    t = np.linspace(0.0, 20.0, 4001)
    fit = ringdown_fit(t, synth(t, -0.1, 2.8, noise=0.01, seed=4))
    assert fit.sigma == pytest.approx(-0.1, rel=0.05)
    assert fit.omega == pytest.approx(2.8, rel=0.005)


def test_ringdown_fit_normalizes_amplitude_sign():
    t = np.linspace(0.0, 15.0, 3001)
    fit = ringdown_fit(t, -1.0 * np.exp(-0.1 * t) * np.cos(2.0 * t))
    assert fit.amplitude > 0.0
    rebuilt = (fit.amplitude * np.exp(fit.sigma * t)
               * np.cos(fit.omega * t + fit.phase) + fit.offset)
    assert np.max(np.abs(rebuilt + np.exp(-0.1 * t) * np.cos(2.0 * t))) < 1e-6


def test_ringdown_fit_window_selects_the_late_mode():
    t = np.linspace(0.0, 30.0, 6001)
    # fast mode dies before t=10, slow mode persists; the window isolates it
    y = (2.0 * np.exp(-0.8 * t) * np.cos(9.0 * t)
         + 0.5 * np.exp(-0.05 * t) * np.cos(2.0 * t + 0.3))
    fit = ringdown_fit(t, y, window=(12.0, 30.0))
    assert fit.omega == pytest.approx(2.0, rel=0.01)
    assert fit.sigma == pytest.approx(-0.05, rel=0.1)


def test_ringdown_fit_needs_enough_peaks():
    t = np.linspace(0.0, 1.0, 200)
    with pytest.raises(RingdownError, match="peaks"):
        ringdown_fit(t, np.exp(-0.2 * t))   # no oscillation at all
    with pytest.raises(RingdownError):
        ringdown_fit(t, np.cos(2.0 * t))    # less than one period


def test_ringdown_fit_of_an_undamped_tone():
    t = np.linspace(0.0, 20.0, 4001)
    fit = ringdown_fit(t, np.sin(2.2 * t))
    assert abs(fit.sigma) < 1e-8
    assert fit.omega == pytest.approx(2.2, rel=1e-9)


def scipy_peaks(y, prominence):
    from scipy.signal import find_peaks
    return find_peaks(y, prominence=prominence)[0]


def test_peak_finder_matches_scipy_on_the_criterion_7_swing():
    tr = simulate_scenario(load_packaged_scenario("A"), t_end=6.0,
                           dt_max=1e-3)
    swing = tr.column("G1.rotor_speed") - tr.column("G3.rotor_speed")
    power = tr.column("G1.active_power")     # fault ripple: more maxima
    for y in (swing - swing.mean(), power - power.mean()):
        for frac in (0.0, 0.02, 0.3):
            prom = frac * float(np.max(np.abs(y)))
            assert np.array_equal(_find_peaks(y, prom), scipy_peaks(y, prom))


@pytest.mark.parametrize("seed", range(6))
def test_peak_finder_matches_scipy_on_noisy_ringdowns(seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 20.0, 2001)
    y = synth(t, -rng.uniform(0.0, 0.3), rng.uniform(1.0, 8.0),
              noise=rng.uniform(0.0, 0.05), seed=seed)
    for signal in (y, np.round(y, 2)):     # rounding makes flat tops
        for frac in (0.0, 0.02, 0.2):
            prom = frac * float(np.max(np.abs(signal)))
            assert np.array_equal(_find_peaks(signal, prom),
                                  scipy_peaks(signal, prom))


def test_import_leaves_scipy_signal_unloaded():
    # neither scipy.signal nor scipy.optimize: ringdown_fit imports
    # least_squares only when it runs
    src = os.path.dirname(os.path.dirname(windmodal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, windmodal; print([m in sys.modules for m in "
         "('scipy.signal', 'scipy.optimize')])"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[False, False]"
