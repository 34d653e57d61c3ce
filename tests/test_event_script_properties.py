"""Property test of ``simulate`` over random event scripts.

A script holds one to three events at any time in the first 0.95 s of a
1-s run on a packaged study: three-phase faults at a bus or a branch
midpoint with admittance 1e4, 50 or 10 pu for 2 to 12 cycles, line trips,
and load steps of 0.7 to 1.3 on a loaded bus.  Each run must either finish
with finite states and a power-balance residual below 1e-6 pu, or raise a
``SimulationError`` of a named family: a grid that cannot be built (an
islanding trip, a fault on a tripped branch), a network with no solution
(case C's voltage collapse near the farm), or a script error (a branch
tripped twice).  "integration stalled" is no named family, so it fails
the property.  Events at arbitrary times also exercise the quiet stretch
before the first event, which ``simulate`` holds at the equilibrium.

The examples are derandomized, so every run checks the same ones; the 60
runs cost about 3 s of the Tier-1 suite (2-vCPU host).
"""

import functools
import re

import numpy as np
from hypothesis import given, settings, strategies as st

from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (build_scenario_system,
                                load_packaged_scenario,
                                packaged_scenario_names)
from windmodal.system import assemble
from windmodal.timedomain import Event, SimulationError, cycles, simulate

PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)

NAMED_FAILURES = re.compile(r"cannot build event grid: |network solution "
                            r"failed at t=|line_trip at t=\S+: branch "
                            r"'\S+' is already out of service")


@functools.cache
def _model(study):
    net, devices = build_scenario_system(load_packaged_scenario(study))
    return assemble(net, devices, solve_power_flow(net))


@st.composite
def scripts(draw):
    """``(study, events)``: a packaged study and one to three events."""
    study = draw(st.sampled_from(packaged_scenario_names()))
    net = _model(study).network
    buses = [b.id for b in net.buses]
    loaded = [b.id for b in net.buses if b.p_load or b.q_load]
    branches = [br.label for br in net.branches]
    events = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.floats(0.0, 0.95))
        kind = draw(st.sampled_from(("bus_fault", "branch_fault",
                                     "line_trip", "load_step")))
        if kind.endswith("fault"):
            where = ({"bus": draw(st.sampled_from(buses))}
                     if kind == "bus_fault"
                     else {"branch": draw(st.sampled_from(branches))})
            events.append(Event(
                "three_phase_fault", t,
                duration=cycles(draw(st.floats(2.0, 12.0))),
                admittance=draw(st.sampled_from((1e4, 50.0, 10.0))),
                **where))
        elif kind == "line_trip":
            events.append(Event("line_trip", t,
                                branch=draw(st.sampled_from(branches))))
        else:
            events.append(Event("load_step", t,
                                bus=draw(st.sampled_from(loaded)),
                                scale=draw(st.floats(0.7, 1.3))))
    return study, events


@PROPERTY
@given(scripts())
def test_a_script_finishes_or_fails_by_name(script):
    study, events = script
    try:
        tr = simulate(_model(study), events=events, t_end=1.0)
    except SimulationError as exc:
        assert NAMED_FAILURES.match(str(exc)), str(exc)
        return
    assert np.all(np.isfinite(tr.states))
    assert tr.max_balance_residual < 1e-6
