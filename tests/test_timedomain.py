"""Integrator and ringdown tests.

The core oracle is the matrix exponential: released from a small
perturbation with no events, the nonlinear trajectory must follow
x0 + e^{At} dx to within the linearization error, where A comes from the
finite-difference state matrix; faulted runs must match a tight DOP853
reference.  Everything else checks event mechanics, the non-windup
limiters, the recorded trace, and the matrix-pencil ringdown analysis
against synthetic signals, case A's local modes and, after a load step,
the wind studies' inter-area mode.
"""

import csv
import dataclasses
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import windmodal
from windmodal import timedomain
from windmodal.devices import STACK
from windmodal.modal import analyze_modes, linearize
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (Override, PipelineError,
                                build_scenario_system, load_packaged_scenario,
                                run_scenario, simulate_scenario)
from windmodal.syncgen import SyncGen
from windmodal.system import SystemModelError, assemble
from windmodal.timedomain import (DEFAULT_FAULT_ADMITTANCE, RTOL, Event,
                                  RingdownError, SimulationError, Trace,
                                  _Limiters, _Recorder, cycles, ringdown_fit,
                                  ringdown_modes, simulate)

from conftest import build_system


def test_cycles_converts_to_seconds():
    assert cycles(10) == pytest.approx(10.0 / 60.0)
    assert cycles(3, frequency_hz=50.0) == pytest.approx(0.06)


# -- event validation -----------------------------------------------------------


def test_event_validation():
    Event("three_phase_fault", 1.0, bus=8, duration=0.1)          # fine
    Event("three_phase_fault", 1.0, branch="L8-9a", duration=0.1)  # fine
    Event("three_phase_fault", 1.0, bus=8)   # no duration: to the end
    with pytest.raises(ValueError, match="exactly one"):
        Event("three_phase_fault", 1.0, duration=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        Event("three_phase_fault", 1.0, bus=8, branch="L8-9a", duration=0.1)
    with pytest.raises(ValueError, match="duration"):
        Event("three_phase_fault", 1.0, bus=8, duration=0.0)
    with pytest.raises(ValueError, match="admittance"):
        Event("three_phase_fault", 1.0, bus=8, duration=0.1, admittance=-1.0)
    with pytest.raises(ValueError, match="admittance must be finite and "
                       "positive"):
        Event("three_phase_fault", 1.0, bus=8, admittance=0.0)
    assert Event("three_phase_fault", 1.0, bus=8).admittance == \
        DEFAULT_FAULT_ADMITTANCE
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
    # only a fault expires: a duration on another kind would be ignored
    # and the step or trip would stay for the rest of the run
    with pytest.raises(ValueError, match="load_step takes no duration"):
        Event("load_step", 0.1, bus=7, scale=1.1, duration=0.05)
    with pytest.raises(ValueError, match="line_trip takes no duration"):
        Event("line_trip", 0.1, branch="L8-9b", duration=0.2)


@pytest.mark.parametrize("field, event", [
    ("scale", dict(kind="three_phase_fault", bus=8, scale=3.0)),
    ("scale", dict(kind="line_trip", branch="L8-9b", scale=0.5)),
    ("duration", dict(kind="load_step", bus=7, scale=1.1, duration=0.05)),
    ("duration", dict(kind="line_trip", branch="L8-9b", duration=math.nan)),
    ("admittance", dict(kind="load_step", bus=7, scale=1.1, admittance=5.0)),
    ("admittance", dict(kind="line_trip", branch="L8-9b",
                        admittance=math.inf)),
    ("bus", dict(kind="line_trip", branch="L7-8a", bus=7)),
    ("branch", dict(kind="load_step", bus=7, branch="L7-8a", scale=1.1)),
])
def test_event_rejects_a_field_its_kind_does_not_use(field, event):
    # such a field is dropped on export, so two unequal scenarios would
    # share one sha256
    with pytest.raises(ValueError, match=f"{event['kind']} takes no {field}"):
        Event(t_start=0.1, **event)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_event_rejects_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="t_start must be finite"):
        Event("three_phase_fault", bad, bus=8, duration=0.1)
    with pytest.raises(ValueError, match="duration must be finite"):
        Event("three_phase_fault", 1.0, bus=8, duration=bad)
    with pytest.raises(ValueError, match="admittance must be finite"):
        Event("three_phase_fault", 1.0, branch="L8-9a", admittance=bad)
    with pytest.raises(ValueError, match="scale must be finite"):
        Event("load_step", 1.0, bus=7, scale=bad)


@pytest.mark.parametrize("event, message", [
    (dict(kind="load_step", bus=7.0, scale=1.1),
     "event bus 7.0: must be an integer bus id"),
    (dict(kind="load_step", bus=True, scale=1.1),
     "event bus True: must be an integer bus id"),
    (dict(kind="three_phase_fault", bus="8"),
     "event bus '8': must be an integer bus id"),
    (dict(kind="line_trip", branch=5),
     "event branch 5: must be a branch name"),
])
def test_event_rejects_a_bus_or_branch_of_another_type(event, message):
    # the scenario parser reads only these types back, so such an event
    # would leave a scenario whose to_dict() does not parse
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Event(t_start=1.0, **event)


def test_rms_has_the_bits_of_the_numpy_mean_formula():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        z = rng.normal(size=int(rng.integers(7, 201)))
        z *= 10.0 ** rng.uniform(-12.0, 3.0)
        assert timedomain._rms(z) == float(np.sqrt(np.mean(np.square(z))))


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


def test_sample_spacing_leaves_the_final_state_bit_for_bit(system_a):
    # dt_max sets only where the dense output is sampled: halving it must
    # not move a single step, so the final state keeps its bits
    ev = [Event("load_step", 0.2, bus=7, scale=1.03)]
    tr1 = simulate(system_a, events=ev, t_end=2.0, dt_max=1e-3)
    tr2 = simulate(system_a, events=ev, t_end=2.0, dt_max=5e-4)
    assert tr2.time.size == 2 * tr1.time.size - 1
    assert tr1.states[-1].tobytes() == tr2.states[-1].tobytes()


def test_simulate_rejects_a_bad_rtol_or_start_state(system_a):
    with pytest.raises(ValueError, match=r"^rtol must lie in \(0, 1\)$"):
        simulate(system_a, t_end=0.1, rtol=1.0)
    with pytest.raises(ValueError, match=r"^equilibrium has shape \(3,\); "
                                         "model has 44 states$"):
        simulate(system_a, equilibrium=np.zeros(3), t_end=0.1)


def test_refining_rtol_tenfold_barely_moves_a_load_step_run(system_a):
    # criterion 9's dt-halving check refines only the sample grid; refining
    # the step tolerance must change the run, but only a little
    ev = [Event("load_step", 0.2, bus=7, scale=1.03)]
    coarse = simulate(system_a, events=ev, t_end=2.0)
    fine = simulate(system_a, events=ev, t_end=2.0, rtol=RTOL / 10.0)
    scale = np.maximum(1.0, np.max(np.abs(fine.states), axis=0))
    final = np.max(np.abs(coarse.states[-1] - fine.states[-1]) / scale)
    worst = np.max(np.abs(coarse.states - fine.states) / scale)
    assert final <= 1e-6
    assert 0.0 < worst <= 10.0 * RTOL


def _hook_generated_rhs(monkeypatch, model, wrap):
    """Have ``simulate`` evaluate ``model`` through ``wrap(rhs)``, ``rhs``
    the run's generated function (``DynamicSystem.generate_rhs``)."""
    generate = model.generate_rhs
    monkeypatch.setattr(model, "generate_rhs", lambda: wrap(generate()))


def _lifted_model(study):
    """A packaged study with the exciter limits out of reach, as in the
    benchmark's fault workloads."""
    scenario = load_packaged_scenario(study)
    _, devices = build_scenario_system(scenario)
    lifted = tuple(Override(d.device_id, f, v) for d in devices
                   if d.device_class == "synchronous"
                   for f, v in (("efd_max", 1e3), ("efd_min", -1e3)))
    net, devices = build_scenario_system(dataclasses.replace(
        scenario, overrides=scenario.overrides + lifted, sha256=""))
    return assemble(net, devices, solve_power_flow(net, tol=1e-12))


# the first two faults the benchmark draws at seed 5, on the fault_sim and
# fault_ringdown studies with the exciter limits out of reach
@pytest.mark.parametrize("study, branch, n_cycles, t_end, columns", [
    ("B_voltage_support", "L8-9b", 8.967147957042918, 4.0,
     ("W1.active_power", "G1.rotor_speed")),
    ("A", "L8-9a", 9.361392482090672, 8.0, ("G1.rotor_speed",)),
], ids=["fault_sim", "fault_ringdown"])
def test_fault_runs_match_a_dop853_reference(study, branch, n_cycles, t_end,
                                             columns):
    from scipy.integrate import solve_ivp

    model = _lifted_model(study)
    t_fault, t_clear = 1.0, 1.0 + cycles(n_cycles)
    event = Event("three_phase_fault", t_fault, branch=branch,
                  duration=cycles(n_cycles))
    tr = simulate(model, t_end=t_end, events=[event])

    x = model.equilibrium()
    ref = {key: [] for key in columns}
    fault = model.grid_variant([event])
    for t0, t1, grid in ((0.0, t_fault, model.base_grid),
                         (t_fault, t_clear, fault),
                         (t_clear, t_end, model.base_grid)):
        sol = solve_ivp(lambda t, z: model.rhs(z, grid), (t0, t1), x,
                        method="DOP853", rtol=1e-10, atol=1e-12,
                        dense_output=True)
        # a sample at an event time closes the segment before it
        at = tr.time <= t1 + 1e-9
        if t0 > 0.0:
            at &= tr.time > t0 + 1e-9
        xs = sol.sol(tr.time[at]).T
        out = model.device_outputs(xs, model.solve_network(xs, grid))
        for key in columns:
            ref[key].append(out[key])
        x = sol.y[:, -1]
    for key in columns:
        want = np.concatenate(ref[key])
        err = np.max(np.abs(tr.column(key) - want)) / np.ptp(want)
        assert err <= 3e-5, f"{key}: {err:.2e} of its range"


def test_the_quiet_stretch_before_the_first_event_is_held_at_x0(
        monkeypatch):
    # at the equilibrium, a state moves by at most max|f(x0)| * t_first
    # before the first event, under ATOL, so its samples are x0 and
    # integration starts at the event.  Reference: the stretch integrated
    # by an eventless run, which then continues with the events shifted.
    # Tolerance 1e-9 of each column's range (about 1e-13 measured).
    model = _lifted_model("B_voltage_support")
    x0 = model.equilibrium()
    t_first, t_end = 1.0, 3.0
    event = Event("three_phase_fault", t_first, branch="L8-9b",
                  duration=cycles(8.967147957042918))
    grids = []
    _hook_generated_rhs(monkeypatch, model, lambda rhs: lambda x, grid:
                        grids.append(grid) or rhs(x, grid))

    def evaluations_before_the_event():
        n = next(k for k, g in enumerate(grids) if g is not model.base_grid)
        grids.clear()
        return n

    tr = simulate(model, events=[event], t_end=t_end)
    assert evaluations_before_the_event() == 1
    assert tr.time.size == 3002
    quiet = tr.time <= t_first + 1e-9
    assert quiet.sum() == 1001
    held = np.tile(x0, (1001, 1))
    assert tr.states[quiet].tobytes() == held.tobytes()
    # the held row is solved by itself; its voltages and outputs are those
    # of a stacked solve of the whole stretch, row for row
    v = model.solve_network(held, model.base_grid)
    assert tr.voltages[quiet].tobytes() == v[:, :len(tr.bus_ids)].tobytes()
    for key, val in model.device_outputs(held, v).items():
        assert tr.outputs[key][quiet].tobytes() == val.tobytes(), key

    head = simulate(model, t_end=t_first)
    assert len(grids) > 1                   # an eventless run integrates
    grids.clear()
    tail = simulate(model, equilibrium=head.states[-1],
                    events=[dataclasses.replace(event, t_start=0.0)],
                    t_end=t_end - t_first)
    np.testing.assert_allclose(tail.time[1:] + t_first, tr.time[~quiet],
                               rtol=0.0, atol=1e-12)
    want = np.column_stack([np.vstack([head.states, tail.states[1:]]),
                            *(np.concatenate([head.outputs[k],
                                              tail.outputs[k][1:]])
                              for k in sorted(tr.outputs))])
    got = np.column_stack([tr.states,
                           *(tr.outputs[k] for k in sorted(tr.outputs))])
    # a column that never moves (each machine's pm) must match exactly
    scale = np.ptp(want, axis=0)
    assert np.all(np.abs(got - want) <= 1e-9 * scale)
    assert tr.max_balance_residual < 1e-10

    # a start state off the equilibrium integrates from t = 0
    labels = [str(lab) for lab in model.state_labels()]
    x = x0.copy()
    x[labels.index("G1.speed")] += 1e-3
    grids.clear()
    simulate(model, equilibrium=x, events=[event], t_end=1.1)
    assert evaluations_before_the_event() > 100


def _per_step_and_block_runs(monkeypatch, run):
    """``run()`` as a trace (or the partial trace of its error) with each
    accepted step kept as a copy of what the step loop hands over and each
    stacked dense-output pass run as one call of ``_dense`` per step on the
    same arguments, and as it is, and the number of calls each made."""
    dense = timedomain._dense
    step = _Recorder.step
    passes = []

    def per_step(x, x1, k, h, theta, step, out):
        bounds = np.searchsorted(step, np.arange(len(x) + 1))
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            passes.append(1)
            dense(x[j:j + 1], x1[j:j + 1], k[j:j + 1], h[j:j + 1],
                  theta[a:b], np.zeros(b - a, dtype=int), out[a:b])
        return out

    def stacked(*args):
        passes.append(1)
        return dense(*args)

    def copied(rec, t, h, x, x1, k, t1):
        step(rec, t, h, x.copy(), x1.copy(), k.copy(), t1)

    runs = []
    for pass_, keep in ((per_step, copied), (stacked, step)):
        passes.clear()
        monkeypatch.setattr(timedomain, "_dense", pass_)
        monkeypatch.setattr(_Recorder, "step", keep)
        try:
            tr = run()
        except SimulationError as exc:
            tr = exc.trace
        runs.append((tr, len(passes)))
    return runs


def _assert_same_bits(a, b):
    assert a.time.tobytes() == b.time.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    assert a.voltages.tobytes() == b.voltages.tobytes()
    assert sorted(a.outputs) == sorted(b.outputs)
    for key in a.outputs:
        assert a.outputs[key].tobytes() == b.outputs[key].tobytes(), key
    assert repr(a.max_balance_residual) == repr(b.max_balance_residual)


# the benchmark's fault_sim setting
_FAULT_SIM = ("B_voltage_support", 4.0,
              Event("three_phase_fault", 1.0, branch="L8-9b",
                    duration=cycles(8.967147957042918)))
# the packaged limits, which this fault holds and releases
_LIMITS = ("B_voltage_support", 2.0,
           Event("three_phase_fault", 1.0, branch="L8-9a",
                 duration=cycles(5.9)))
# a 100-pu fault at case C's bus 9 collapses the network 11.76 ms into the
# fault, part way through a segment, with steps still pending
_COLLAPSE = ("C_voltage", 1.0,
             Event("three_phase_fault", 0.5, bus=9, admittance=100.0,
                   duration=cycles(6)))


def _run(model, setting):
    """``simulate`` of a setting's one event on ``model``."""
    _, t_end, event = setting
    return simulate(model, events=[event], t_end=t_end)


@pytest.mark.parametrize("run, n_samples", [
    (lambda: _run(_lifted_model("B_voltage_support"), _FAULT_SIM), 4002),
    (lambda: _run(_packaged_model("B_voltage_support"), _LIMITS), 2002),
    (lambda: simulate(_lifted_model("A"), t_end=8.0,
                      events=[Event("three_phase_fault", 1.0,
                                    branch="L8-9a",
                                    duration=cycles(9.361392482090672))]),
     8002),
    (lambda: _run(_packaged_model("C_voltage"), _COLLAPSE), 512),
], ids=["fault_sim", "limits_hold_and_release", "case_A_8s", "collapse"])
def test_the_block_pass_has_the_bits_of_a_pass_per_step(monkeypatch, run,
                                                        n_samples):
    # the recorder evaluates the dense output of a segment's samples at
    # once, when it closes; every elementwise operation keeps its operands,
    # so the trace keeps the bits of a pass per step, and a failing close
    # still evaluates the segment's steps first
    (each, n_each), (block, n_block) = _per_step_and_block_runs(monkeypatch,
                                                                run)
    _assert_same_bits(each, block)
    assert block.time.size == n_samples
    assert n_block < n_each
    if n_samples == 8002:        # one per integrated segment: the fault's
        assert n_block == 2      # and the 6.8 s after it


def test_a_switch_at_a_step_end_restarts_from_a_copy_of_it(monkeypatch):
    # the recorder keeps an accepted step's end x1 until its segment
    # closes; a switch at theta = 1 restarts from x1 clamped onto the
    # bound, which must not reach the kept step, whose samples would then
    # be interpolated towards the bound (the reference keeps a copy of
    # each step as handed over).  Forced here on G1.efd, well inside its
    # bounds, at the 5th accepted step.
    model = build_system("A")
    g = [str(lab) for lab in model.state_labels()].index("G1.efd")
    hi = next(hi for k, _, hi in model.limits() if k == g)
    first_switch = _Limiters.first_switch
    forced = []

    def forcing(self, x, x1, free1):
        switch = first_switch(self, x, x1, free1)
        forced.append(x1[g])
        return (1.0, g, hi) if len(forced) == 5 else switch

    monkeypatch.setattr(_Limiters, "first_switch", forcing)
    (each, _), (block, _) = _per_step_and_block_runs(
        monkeypatch, lambda: forced.clear() or simulate(model, t_end=0.5))
    assert forced[4] < hi - 1.0          # far from the bound it is put on
    _assert_same_bits(each, block)
    # the clamp took effect: efd leaps towards the bound, then is released
    assert block.column("G1.efd").max() > forced[4] + 1.0


def _contd5_horner(x, x1, k, h, theta, step):
    """The reference form of ``timedomain._dense``: CONTD5 in Horner's
    form, over full-size rows gathered per sample."""
    dx = x1 - x
    h = h[:, None]
    r3 = h * k[:, 0] - dx
    r4 = dx - h * k[:, 6] - r3
    r5 = h * (timedomain._DP_D @ k)
    s = theta[:, None]
    return x[step] + s * (dx[step] + (1.0 - s) * (
        r3[step] + s * (r4[step] + (1.0 - s) * r5[step])))


@pytest.mark.parametrize("model, setting", [
    (lambda: _lifted_model("B_voltage_support"), _FAULT_SIM),
    (lambda: _packaged_model("B_voltage_support"), _LIMITS),
], ids=["fault_sim", "limits_hold_and_release"])
def test_the_dense_output_is_contd5(monkeypatch, model, setting):
    # each step's samples are one product of their coefficients with the
    # step's five rows, which rounds unlike the Horner form: every pass,
    # the switch points' single rows too, must match it on the same
    # arguments within 1e-13 of the larger of |x| and |x1|
    dense = timedomain._dense
    passes = []

    def checked(*args):
        x, x1, step = args[0], args[1], args[5]
        got = dense(*args)
        want = _contd5_horner(*args[:6])
        scale = np.maximum(np.abs(x), np.abs(x1))[step]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        passes.append(len(step))
        return got

    monkeypatch.setattr(timedomain, "_dense", checked)
    _run(model(), setting)
    assert sum(passes) > 1000            # the samples after the event
    if setting is _LIMITS:              # restarts at limiter switches
        assert passes.count(1) > 0


def test_a_segment_close_solves_each_machines_emf_once(monkeypatch):
    # the recorder's pass over a segment's samples hands each machine's E''
    # from the network solve to its outputs: one stacked call of
    # ``internal`` per machine and segment, and the outputs of
    # ``device_outputs`` at ``solve_network``, bit for bit
    study, t_end, event = _LIMITS
    model = _packaged_model(study)
    internal = SyncGen.internal
    stacked = []

    def counted(self, states, m):
        if m is STACK:
            stacked.append(self.device_id)
        return internal(self, states, m)

    monkeypatch.setattr(SyncGen, "internal", counted)
    tr = simulate(model, events=[event], t_end=t_end)
    monkeypatch.undo()
    segments = timedomain._segments(model, [event], t_end)
    machines = [d for d in model.devices if isinstance(d, SyncGen)]
    assert len(stacked) == len(machines) * len(segments) == 12
    lo = 0
    for _, t1, grid in segments:
        hi = int(np.searchsorted(tr.time, t1 + 5e-4))
        x = tr.states[lo:hi]
        v = model.solve_network(x, grid)
        assert tr.voltages[lo:hi].tobytes() == \
            v[:, :len(tr.bus_ids)].tobytes()
        for key, val in model.device_outputs(x, v).items():
            assert tr.outputs[key][lo:hi].tobytes() == val.tobytes(), key
        lo = hi
    assert lo == tr.time.size


@pytest.mark.parametrize("setting, rows", [
    (_FAULT_SIM, 4002), (_COLLAPSE, 512)], ids=["fault_sim", "collapse"])
def test_the_trace_is_written_once_and_complete(monkeypatch, setting, rows):
    # the trace buffers are allocated for the planned rows before the first
    # step; poisoned here, every row the trace returns must have been
    # written, and a run that fails returns its closed segments' rows
    init = timedomain._Recorder.__init__

    def poisoned(self, *args):
        init(self, *args)
        for buffer in (self.time, self.states, self.voltages):
            buffer.fill(np.nan)

    monkeypatch.setattr(timedomain._Recorder, "__init__", poisoned)
    study, _, _ = setting
    try:
        tr = _run(_packaged_model(study), setting)
    except SimulationError as exc:
        tr = exc.trace
    assert tr.time.size == rows
    assert np.all(np.diff(tr.time) > 0.0)
    for a in (tr.time, tr.states, tr.voltages, *tr.outputs.values()):
        assert len(a) == rows
        assert np.all(np.isfinite(a))


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


def test_tripping_the_same_branch_twice_fails(system_a):
    evs = [Event("line_trip", 0.1, branch="L8-9b"),
           Event("line_trip", 0.2, branch="L8-9b")]
    with pytest.raises(SimulationError, match="already"):
        simulate(system_a, events=evs, t_end=0.5)


def test_a_second_load_step_on_a_bus_replaces_the_first(system_a):
    # each step scales the base load; the later one holds alone
    second = Event("load_step", 0.2, bus=7, scale=1.02)
    segments = timedomain._segments(
        system_a, [Event("load_step", 0.1, bus=7, scale=1.05), second], 0.5)
    assert [(t0, t1) for t0, t1, _ in segments] == \
        [(0.0, 0.1), (0.1, 0.2), (0.2, 0.5)]
    alone = system_a.grid_variant([second])
    last = segments[-1][2]
    assert last.y.tobytes() == alone.y.tobytes()
    assert last.z_dev.tobytes() == alone.z_dev.tobytes()


def test_a_fault_without_a_duration_stays_on_to_the_end(system_a):
    fault = Event("three_phase_fault", 0.25, bus=8)
    segments = timedomain._segments(system_a, [fault], 1.0)
    assert [(t0, t1) for t0, t1, _ in segments] == [(0.0, 0.25), (0.25, 1.0)]
    assert segments[0][2] is system_a.base_grid
    assert segments[1][2].y.tobytes() == \
        system_a.grid_variant([fault]).y.tobytes()
    tr = simulate(system_a, events=[fault], t_end=0.4, dt_max=1e-3)
    assert np.all(tr.voltage_magnitude(8)[tr.time > 0.26] < 0.1)
    # an earlier timed fault on that bus expires alone
    timed = Event("three_phase_fault", 0.125, bus=8, duration=0.25)
    segments = timedomain._segments(system_a, [timed, fault], 1.0)
    assert [t0 for t0, _, _ in segments] == [0.0, 0.125, 0.25, 0.375]
    assert [grid.y.tobytes() for _, _, grid in segments] == [
        system_a.grid_variant(active).y.tobytes()
        for active in ([], [timed], [timed, fault], [fault])]


def test_an_event_at_t_end_is_ignored_with_a_warning(system_a, caplog):
    # a change at t_end never applies, like one after it
    with caplog.at_level(logging.WARNING, logger="windmodal.timedomain"):
        segments = timedomain._segments(
            system_a, [Event("line_trip", 0.5, branch="L8-9b")], 0.5)
    assert segments == [(0.0, 0.5, system_a.base_grid)]
    assert [rec.message for rec in caplog.records] == [
        "event at t=0.500s is at or beyond t_end=0.500s; ignored"]


def test_events_beyond_the_horizon_are_ignored_with_a_warning(system_a,
                                                              caplog):
    with caplog.at_level(logging.WARNING, logger="windmodal.timedomain"):
        tr = simulate(system_a,
                      events=[Event("load_step", 9.0, bus=7, scale=1.1)],
                      t_end=0.5, dt_max=1e-3)
    assert any("beyond" in rec.message for rec in caplog.records)
    assert np.max(np.abs(tr.states - tr.states[0])) < 1e-7


def test_stall_below_dt_min_reports_partial_progress(system_a, monkeypatch):
    # the fault asks for steps far below a 10-ms floor at this tolerance:
    # the first retry below DT_MIN ends the run, with the history before it
    monkeypatch.setattr(timedomain, "DT_MIN", 1e-2)
    ev = [Event("three_phase_fault", 0.05, branch="L8-9a",
                duration=cycles(10))]
    with pytest.raises(SimulationError,
                       match=r"integration stalled at t=0\.05\d*s") as err:
        simulate(system_a, events=ev, t_end=1.0, dt_max=1e-2, rtol=1e-8)
    tr = err.value.trace
    assert tr is not None
    assert tr.time[-1] >= 0.05 and tr.time.size >= 6
    assert np.all(np.isfinite(tr.states))


# with a load step at t = 14 ms the first segment is the quiet stretch at
# the equilibrium: solve 1 is f(x0) and solve 2 that of its held row,
# which stands for all its samples, held at x0 without a step.  Solve 3
# enters the next segment and solve 4 is its probe; its first step
# (solves 5-10) is rejected, the retry from 14 ms is accepted (11-16) and
# the next step starts at 24.419 ms (17-22).  So the 3rd network solve
# is the segment entry after the event and the 20th a stage of the step
# from 24.419 ms.  Every solve after the injected failure fails too, so
# the open segment's samples cannot be closed and the trace ends at 14 ms.
@pytest.mark.parametrize("fail_after, t_fail", [(19, 0.024419), (2, 0.014)],
                         ids=["stage", "segment_entry"])
def test_network_failure_mid_run_keeps_the_partial_trace(monkeypatch,
                                                         fail_after, t_fail):
    model = build_system("A")
    # every network solve: a model evaluation, one call of the run's
    # generated rhs, or the recorder's solve of a segment's samples
    calls = []

    def failing(solve):
        def solve_or_fail(x, grid):
            calls.append(1)
            if len(calls) > fail_after:
                raise SystemModelError("injected network failure")
            return solve(x, grid)
        return solve_or_fail

    _hook_generated_rhs(monkeypatch, model, failing)
    monkeypatch.setattr(model, "observe", failing(model.observe))
    with pytest.raises(SimulationError,
                       match=f"network solution failed at t={t_fail:.6f}s"
                             ".*injected") as err:
        simulate(model, events=[Event("load_step", 0.014, bus=7, scale=1.1)],
                 t_end=0.5, dt_max=1e-3)
    tr = err.value.trace
    assert tr.time.size > 1
    assert len(tr.outputs) == 4 * len(model.devices)
    assert all(col.shape == tr.time.shape for col in tr.outputs.values())


@pytest.mark.parametrize("t_fault, n_samples", [(0.0, None), (0.5, 501)],
                         ids=["at_t0", "mid_run"])
def test_voltage_collapse_is_a_named_simulation_error(t_fault, n_samples):
    # case C's farm is a constant-magnitude current source: a bolted fault
    # at bus 9 leaves the network no solution.  At t = 0 nothing has been
    # recorded, so no trace comes with the error.
    scenario = load_packaged_scenario("C_voltage")
    net, devices = build_scenario_system(scenario)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    with pytest.raises(SimulationError,
                       match=f"network solution failed at t={t_fault:.6f}s: "
                             ".*voltage collapse") as err:
        simulate(model, events=[Event("three_phase_fault", t_fault, bus=9)],
                 t_end=1.0, dt_max=1e-3)
    if n_samples is None:
        assert err.value.trace is None
    else:
        assert err.value.trace.time.size == n_samples


@pytest.mark.parametrize("kwargs", [
    {"t_end": 0.0}, {"t_end": -1.0}, {"t_end": math.nan},
    {"t_end": math.inf}, {"dt_max": 0.0}, {"dt_max": math.nan},
    {"dt_max": math.inf}, {"dt_max": timedomain.DT_MIN / 2.0},
], ids=["tend0", "tend_neg", "tend_nan", "tend_inf", "dtmax0", "dtmax_nan",
        "dtmax_inf", "dtmin_above_dtmax"])
def test_simulate_rejects_bad_time_arguments(system_a, kwargs):
    with pytest.raises(ValueError, match="t_end|dt_max"):
        simulate(system_a, **kwargs)


@pytest.mark.parametrize("events", [
    [Event("line_trip", 20.0, branch="L7-8a"),
     Event("line_trip", 20.0, branch="L7-8a")],
    [Event("load_step", 20.0, bus=8, scale=1.1)],
], ids=["second_trip", "load_free_bus"])
def test_script_errors_fail_before_any_network_solve(monkeypatch, events):
    model = build_system("A")
    evaluate = model._evaluate     # every network solve, in rhs or not
    calls = []

    def counting(x, grid, rates=True):
        calls.append(1)
        return evaluate(x, grid, rates)

    monkeypatch.setattr(model, "_evaluate", counting)
    with pytest.raises(SimulationError) as err:
        simulate(model, events=events, t_end=25.0)
    assert err.value.trace is None
    assert calls == []


# the farm is a current source with no Norton shunt, and case C's bus 4
# holds no machine: each trip leaves the named buses with no path to ground
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("study, branch, buses", [
    ("B_voltage", "TW", "12"), ("C_voltage", "T4", "4, 12"),
    ("C_voltage", "TW", "12"),
])
def test_an_islanding_trip_fails_by_name_before_any_step(study, branch,
                                                         buses):
    with pytest.raises(SimulationError,
                       match="cannot build event grid: admittance matrix is "
                             f"singular: no path to ground from bus {buses}$"
                       ) as err:
        simulate(_packaged_model(study), t_end=1.0,
                 events=[Event("line_trip", 0.5, branch=branch)])
    assert err.value.trace is None


@pytest.mark.parametrize("event", [
    Event("line_trip", 0.5, branch="nope"),
    Event("three_phase_fault", 0.5, branch="nope", duration=cycles(6)),
], ids=["line_trip", "three_phase_fault"])
def test_an_unknown_branch_fails_by_name_before_any_step(system_a, event):
    # as for an unknown bus: simulate names the grid it cannot build before
    # any step, and the pipeline tags that with its stage
    with pytest.raises(SimulationError, match="^cannot build event grid: "
                       "no branch named 'nope'$") as err:
        simulate(system_a, t_end=1.0, events=[event])
    assert err.value.trace is None
    scenario = dataclasses.replace(load_packaged_scenario("A"),
                                   events=(event,), sha256="")
    with pytest.raises(PipelineError, match=r"^\[simulate\] cannot build "
                       "event grid: no branch named 'nope'$"):
        simulate_scenario(scenario, t_end=1.0)


def test_recorded_voltages_are_the_network_solution_of_each_sample():
    # the recorder solves the network once per segment over the stacked
    # samples; on a grid that never changes the voltages must be the
    # network solution at the recorded state
    scenario = load_packaged_scenario("B_voltage_support")
    net, devices = build_scenario_system(scenario)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    tr = simulate(model, events=[Event("three_phase_fault", 0.0, bus=8)],
                  t_end=0.3)
    grid = model.grid_variant(tr.events)
    for x, v in zip(tr.states, tr.voltages):
        want = model.solve_network(x, grid=grid)[:net.n_bus]
        assert np.max(np.abs(v - want)) <= 1e-12


def test_a_derivative_that_turns_nan_stalls_the_run(monkeypatch):
    # a NaN stage makes the error estimate NaN, which rejects the step and
    # every retry, never accepts it: the run ends in a stall with the
    # finite part of its history
    model = build_system("A")
    g2 = [k for k, lab in enumerate(model.state_labels())
          if lab.device_id == "G2"]
    calls = []

    def turns_nan(finite):
        def rhs(x, grid):
            calls.append(1)
            dx = finite(x, grid)
            if len(calls) > 100:
                dx[g2] *= math.nan          # G2's rates turn NaN
            return dx
        return rhs

    _hook_generated_rhs(monkeypatch, model, turns_nan)
    with pytest.raises(SimulationError, match="integration stalled") as err:
        simulate(model, events=[Event("load_step", 0.01, bus=7, scale=1.1)],
                 t_end=0.5)
    tr = err.value.trace
    assert 1 < tr.time.size < 501
    assert np.all(np.isfinite(tr.states))
    assert all(col.size == tr.time.size for col in tr.outputs.values())


# -- non-windup limiters ---------------------------------------------------------------


def test_exciter_limiter_holds_each_bound_exactly_then_releases():
    model = build_system("A")
    ev = [Event("three_phase_fault", 0.1, branch="L8-9a", duration=cycles(6))]
    tr = simulate(model, events=ev, t_end=1.0)
    for dev in model.devices:
        p = dev.params
        efd = tr.column(f"{dev.device_id}.efd")
        assert np.all((efd >= p.efd_min) & (efd <= p.efd_max))
        for bound in (p.efd_max, p.efd_min):
            # held: one unbroken run of samples exactly on the bound ...
            at = np.flatnonzero(efd == bound)
            assert at.size >= 20
            assert np.array_equal(at, np.arange(at[0], at[-1] + 1))
            # ... then released, back strictly inside
            assert p.efd_min < efd[at[-1] + 1] < p.efd_max
        assert p.efd_min < efd[-1] < p.efd_max


def _packaged_model(study):
    """The assembled model of a packaged study."""
    net, devices = build_scenario_system(load_packaged_scenario(study))
    return assemble(net, devices, solve_power_flow(net))


def test_converter_limit_holds_its_bound():
    # a fault at the farm bus winds the reactive integrator up to i_qmax;
    # with the anti-windup in the derivatives this run stalled at 0.524 s
    model = _packaged_model("C_voltage_support")
    tr = simulate(model, events=[Event("three_phase_fault", 0.5, bus=12,
                                       duration=cycles(10))], t_end=1.0)
    y = tr.column("W1.q_ctrl")
    at = np.flatnonzero(y == 0.66)
    assert at.size >= 20
    assert np.array_equal(at, np.arange(at[0], at[-1] + 1))
    assert np.all(y <= 0.66)


@pytest.mark.parametrize("study", ["A", "B_voltage_support",
                                   "C_reactive_power_support"])
def test_mechanical_power_stays_on_its_dispatch_through_a_fault(study):
    # the machines have no governor: pm relaxes to its dispatch and, starting
    # there, never leaves it, whatever the rotor speed does
    model = _packaged_model(study)
    events = load_packaged_scenario(study).events
    assert events
    tr = simulate(model, events=list(events), t_end=3.0)
    for dev in model.devices:
        if dev.device_class == "synchronous":
            pm = tr.column(f"{dev.device_id}.pm")
            assert np.array_equal(pm.view(np.uint64),
                                  np.full_like(pm, dev.pm_ref).view(np.uint64))


@pytest.mark.parametrize("study, state", [
    ("A", "G1.efd"),
    ("C_voltage_support", "W1.q_ctrl"),
], ids=["exciter", "converter"])
def test_a_held_limiter_zeroes_only_its_own_row(study, state):
    # the integrator evaluates the free model and zeroes the held rows; no
    # device equation reads another state's derivative, so the rest of f
    # keeps the bits of the free evaluation, and ``free`` holds the held
    # row's free value, which the release test reads
    model = _packaged_model(study)
    g = [str(lab) for lab in model.state_labels()].index(state)
    limiters = _Limiters(model)
    hi = next(hi for k, _, hi in limiters.bounds if k == g)
    x = model.equilibrium()
    x[g] = hi
    grid = model.grid_variant([Event("load_step", 0.0, bus=7, scale=1.1)])
    f_free = model.rhs(x, grid)
    assert f_free[g] != 0.0
    limiters.held = {g: 0.0}
    f_held, free = limiters.evaluate(x, grid)
    assert f_held[g] == 0.0
    expect = f_free.copy()
    expect[g] = 0.0
    assert f_held.tobytes() == expect.tobytes()
    assert free.tobytes() == f_free[[g]].tobytes()


@pytest.mark.parametrize("study, cycles_on, t_end", [
    ("B_voltage_support", 9.0, 4.0),
    ("B_voltage_support", 5.9, 2.0),
    ("A", 6.55, 2.0),
])
def test_faults_that_stalled_at_the_exciter_limit_run_through(study,
                                                             cycles_on,
                                                             t_end):
    # with a limiter that zeroed d_efd wherever efd sat on a bound, these
    # runs stopped with "integration stalled" just after clearing
    scenario = load_packaged_scenario(study)
    ev = Event("three_phase_fault", 1.0, branch="L8-9a",
               duration=cycles(cycles_on))
    tr = simulate_scenario(dataclasses.replace(scenario, events=(ev,),
                                               sha256=""), t_end=t_end)
    assert tr.time[-1] == pytest.approx(t_end)
    efd = tr.column("G1.efd")
    assert efd.max() == 6.0 and efd.min() == 0.0


def test_a_held_limiter_costs_no_extra_evaluation(monkeypatch):
    # the free derivatives a release test reads come from the step's last
    # stage, so every device runs exactly once per model evaluation even
    # while a limiter is held (re-running the devices at each step's end
    # made 41 more calls here, so the evaluations are pinned: 463, as when
    # each device's rates ran once per evaluation).  Each device's rates
    # run once, traced into the run's generated rhs, which runs each of
    # them once per call; no device runs on one sample outside it
    model = _packaged_model("A")
    evaluations, calls = [], {dev.device_id: [] for dev in model.devices}
    _hook_generated_rhs(monkeypatch, model, lambda rhs: lambda x, grid:
                        evaluations.append(1) or rhs(x, grid))
    ndims, evaluate = [], model._evaluate
    monkeypatch.setattr(model, "_evaluate", lambda x, grid, rates=True:
                        ndims.append(x.ndim) or evaluate(x, grid, rates))
    for dev in model.devices:
        monkeypatch.setattr(dev, "rates",
                            lambda *args, f=dev.rates,
                            n=calls[dev.device_id]: n.append(1) or f(*args))
    ev = Event("three_phase_fault", 1.0, branch="L8-9a",
               duration=cycles(6.55))
    tr = simulate(model, events=[ev], t_end=2.0)
    efd = tr.column("G1.efd")
    assert efd.max() == 6.0 and efd.min() == 0.0     # held on both bounds
    assert len(evaluations) == 463
    assert 1 not in ndims
    assert {k: len(n) for k, n in calls.items()} == dict.fromkeys(calls, 1)


def test_a_lifted_fault_run_makes_a_fixed_number_of_evaluations(
        monkeypatch):
    # the benchmark's fault_sim setting at a fixed fault: B_voltage_support
    # with the exciter limits out of reach, an 8-cycle L8-9a fault at 1 s,
    # 4 s.  965 evaluations, as when the integrator called the interpreted
    # rhs: the generated one changes no step
    model = _lifted_model("B_voltage_support")
    evaluations = []
    _hook_generated_rhs(monkeypatch, model, lambda rhs: lambda x, grid:
                        evaluations.append(1) or rhs(x, grid))
    tr = simulate(model, events=[Event("three_phase_fault", 1.0,
                                       branch="L8-9a", duration=cycles(8))],
                  t_end=4.0)
    assert tr.time.size == 4002
    assert len(evaluations) == 965


# -- trace bookkeeping -------------------------------------------------------------------


def test_recorded_outputs_equal_the_single_sample_formulas():
    # the recorder computes outputs and the balance residual per segment
    # over stacked samples; one call per sample must give the same values.
    # Segments: base, L8-9a midpoint fault (one extra bus), base, bus-9
    # load step.
    scenario = load_packaged_scenario("B_voltage_support")
    net, devices = build_scenario_system(scenario)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    t_fault, t_clear, t_step = 0.05, 0.05 + cycles(6), 0.2
    tr = simulate(model, t_end=0.3, events=[
        Event("three_phase_fault", t_fault, branch="L8-9a",
              duration=cycles(6)),
        Event("load_step", t_step, bus=9, scale=1.1)])
    fault = model.grid_variant(tr.events[:1])
    step = model.grid_variant(tr.events[1:])
    worst = 0.0
    for i, (t, x) in enumerate(zip(tr.time, tr.states)):
        # a sample at an event time closes the segment before it
        grid = (step if t > t_step + 1e-9 else
                fault if t_fault + 1e-9 < t <= t_clear + 1e-9 else
                model.base_grid)
        v = model.solve_network(x, grid=grid)
        assert np.array_equal(v[:net.n_bus], tr.voltages[i])
        for key, val in model.device_outputs(x, v).items():
            assert abs(tr.outputs[key][i] - val) <= 1e-12, (key, t)
        worst = max(worst, model.power_balance_residual(
            v, model.device_outputs(x, v), grid=grid))
    assert sorted(tr.outputs) == sorted(model.device_outputs(x, v))
    assert abs(tr.max_balance_residual - worst) <= 1e-12
    assert worst < 1e-10


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
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 1 + tr.time.size
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tr.time.size
    assert float(rows[3]["time"]) == pytest.approx(tr.time[3])
    assert float(rows[0]["G1.delta"]) == pytest.approx(tr.states[0, 0],
                                                       rel=1e-9)
    assert float(rows[0]["bus8.vm"]) == pytest.approx(
        tr.voltage_magnitude(8)[0], rel=1e-9)


@pytest.mark.parametrize("study", ["B_voltage_support", "C_reactive_power"])
def test_a_wind_trace_names_each_column_once(tmp_path, study):
    # the farm's rotor speed is a state; no output repeats it
    tr = simulate(_packaged_model(study), t_end=0.05)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert len(header) == len(set(header))
    speed = tr.states[:, tr.state_names.index("W1.rotor_speed")]
    assert np.array_equal(tr.column("W1.rotor_speed"), speed)


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


def test_ringdown_fit_rejects_time_and_signal_of_unequal_length():
    t = np.linspace(0.0, 10.0, 200)
    with pytest.raises(ValueError, match="equal size"):
        ringdown_fit(t, np.cos(2.0 * t[:-1]))


def test_ringdown_fit_needs_enough_peaks():
    t = np.linspace(0.0, 1.0, 200)
    with pytest.raises(RingdownError, match="no oscillatory mode"):
        ringdown_fit(t, np.exp(-0.2 * t))   # no oscillation at all
    with pytest.raises(RingdownError, match="oscillatory mode|two periods"):
        ringdown_fit(t, np.cos(2.0 * t))    # less than one period


def test_ringdown_fit_of_an_undamped_tone():
    t = np.linspace(0.0, 20.0, 4001)
    fit = ringdown_fit(t, np.sin(2.2 * t))
    assert abs(fit.sigma) < 1e-8
    assert fit.omega == pytest.approx(2.2, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_ringdown_fit_tracks_noisy_ringdowns(seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 20.0, 2001)
    sigma, omega = -rng.uniform(0.0, 0.3), rng.uniform(1.0, 8.0)
    fit = ringdown_fit(t, synth(t, sigma, omega,
                                noise=rng.uniform(0.0, 0.05), seed=seed))
    assert abs(fit.sigma - sigma) <= 0.05 * abs(sigma) + 0.01
    assert fit.omega == pytest.approx(omega, rel=0.005)


def test_ringdown_modes_returns_every_mode_with_its_residue():
    t = np.linspace(0.0, 10.0, 2001)
    y = (2.0 * np.exp(-0.8 * t) * np.cos(9.0 * t)
         + 0.5 * np.exp(-0.05 * t) * np.cos(2.0 * t + 0.3) + 0.2)
    modes = ringdown_modes(t, y)
    assert len(modes) == 5                  # two conjugate pairs and 1
    expected = [(-0.8 + 9.0j, 1.0), (-0.05 + 2.0j, 0.25 * np.exp(0.3j)),
                (0.0, 0.2)]
    for lam, res in expected:
        got = min(modes, key=lambda m: abs(m[0] - lam))
        assert got[0] == pytest.approx(lam, abs=1e-7)
        assert got[1] == pytest.approx(res, abs=1e-7)
    # residues measure from the window's first sample
    late = ringdown_modes(t, y, window=(5.0, 10.0))
    got = min(late, key=lambda m: abs(m[0] - (-0.05 + 2.0j)))
    assert got[1] == pytest.approx(0.25 * np.exp(0.3j + 5.0 * (-0.05 + 2.0j)),
                                   abs=1e-7)


def test_ringdown_modes_rejects_unusable_windows():
    t = np.linspace(0.0, 10.0, 500)
    y = np.exp(-0.1 * t) * np.cos(3.0 * t)
    assert ringdown_modes(t, np.zeros_like(t)) == []
    with pytest.raises(RingdownError, match="evenly spaced"):
        ringdown_modes(t ** 1.5, y)
    with pytest.raises(RingdownError, match="non-finite"):
        ringdown_modes(t, np.where(t > 5.0, np.nan, y))
    with pytest.raises(RingdownError, match="too few samples"):
        ringdown_modes(t, y, window=(2.0, 2.05))


def test_ringdown_modes_recover_the_local_modes_of_case_a(system_a):
    # G1-G2 and G3-G4 cancel the inter-area swing and leave one local
    # mode each; a 6-s run does not separate the G3-G4 pair
    tr = simulate_scenario(load_packaged_scenario("A"), t_end=10.0,
                           dt_max=1e-3)
    window = (1.0 + cycles(10) + 0.5, 10.0)
    local = [complex(m.real, m.imag)
             for m in analyze_modes(linearize(system_a))
             if m.classification == "local"]
    matched = []
    for a, b in (("G1", "G2"), ("G3", "G4")):
        y = tr.column(f"{a}.rotor_speed") - tr.column(f"{b}.rotor_speed")
        lam = next(lam for lam, _ in ringdown_modes(tr.time, y, window)
                   if lam.imag > 0.0)
        pred = min(local, key=lambda p: abs(p - lam))
        assert abs(lam.real - pred.real) <= 0.05 * abs(pred.real)
        assert abs(lam.imag - pred.imag) <= 0.01 * pred.imag
        matched.append(pred)
    assert matched[0] != matched[1]


WIND_STUDIES = ("B_voltage", "B_voltage_support", "C_voltage",
                "C_voltage_support")


@pytest.fixture(scope="module")
def load_step_ringdowns():
    """Study -> (fitted, predicted) inter-area eigenvalue after a 2 % load
    step at bus 7: the fit is of the G1 - G3 speed difference over 3-16 s
    (G1's speed alone is dominated by the common frequency drift), the
    prediction the dominant inter-area mode of the report."""
    out = {}
    for name in WIND_STUDIES:
        scenario = dataclasses.replace(
            load_packaged_scenario(name), sha256="",
            events=(Event("load_step", 1.0, bus=7, scale=1.02),))
        tr = simulate_scenario(scenario, t_end=16.0)
        fit = ringdown_fit(tr.time, tr.column("G1.rotor_speed")
                           - tr.column("G3.rotor_speed"), window=(3.0, 16.0))
        mode = next(m for m in run_scenario(scenario).dominant
                    if m.classification == "inter_area")
        out[name] = (complex(fit.sigma, fit.omega),
                     complex(mode.real, mode.imag))
    return out


@pytest.mark.parametrize("name", WIND_STUDIES)
def test_a_load_step_rings_down_at_the_predicted_inter_area_mode(
        load_step_ringdowns, name):
    # measured: sigma 1.4, 1.1, 8.0 and 3.1 % off, omega at most 0.32 %
    fitted, predicted = load_step_ringdowns[name]
    assert abs(fitted.real - predicted.real) <= 0.10 * abs(predicted.real)
    assert abs(fitted.imag - predicted.imag) <= 0.01 * predicted.imag


@pytest.mark.parametrize("case", ["B", "C"])
def test_support_damps_the_inter_area_mode_in_simulation_as_predicted(
        load_step_ringdowns, case):
    # the abstract's first claim, on the nonlinear model
    plain = load_step_ringdowns[f"{case}_voltage"]
    support = load_step_ringdowns[f"{case}_voltage_support"]
    assert support[0].real < plain[0].real
    assert support[1].real < plain[1].real


def test_import_leaves_scipy_signal_unloaded():
    # neither importing windmodal, nor fitting a ringdown, nor simulating
    # loads scipy.signal, scipy.optimize or scipy.integrate: the fit is
    # pure numpy linear algebra and the integrator is written out
    src = os.path.dirname(os.path.dirname(windmodal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, windmodal; "
         "t = np.linspace(0.0, 20.0, 2001); "
         "windmodal.ringdown_fit(t, np.exp(-0.1 * t) * np.cos(3.0 * t)); "
         "windmodal.simulate_scenario("
         "windmodal.load_packaged_scenario('A'), t_end=0.05); "
         "print([m in sys.modules for m in "
         "('scipy.signal', 'scipy.optimize', 'scipy.integrate')])"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[False, False, False]"
