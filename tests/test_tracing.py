"""The generated single-sample rhs against the interpreted one.

``DynamicSystem.generate_rhs`` traces ``_evaluate`` once into one
straight-line function; the interpreted ``rhs`` (the ``SCALAR`` table) is
the reference.  Every packaged study on every kind of grid must give the
same bits and NaN in the same rows, or the same error with the same text.
The examples are derandomized, so every run checks the same ones.  The
source must hold no value and no text: one code object serves two systems
of one structure, and its tokens are names of its own parameters, locals
and helpers.  Errors come in the order the traced pass raises them.  A
device that branches in Python on a state cannot be traced, a run leaves
no function on its model, and the modal path builds none.
"""

import dataclasses
import functools
import io
import keyword
import math
import pickle
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windmodal import scenario as sc
from windmodal.devices import SCALAR, TRACE, TRACE_NAMES
from windmodal.powerflow import solve_power_flow
from windmodal.syncgen import SyncGen
from windmodal.system import SystemModelError, assemble
from windmodal.timedomain import Event, simulate
from windmodal.tracing import Tape, TraceError
from windmodal.twoarea import build_two_area

PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)

# one grid of each kind, as the event script hands them to grid_variant
GRIDS = {
    "base": (),
    "bus_fault": (Event("three_phase_fault", 0.0, bus=8),),
    "midpoint_fault": (Event("three_phase_fault", 0.0, branch="L8-9a"),),
    "line_trip": (Event("line_trip", 0.0, branch="L7-8a"),),
    "load_step": (Event("load_step", 0.0, bus=9, scale=1.1),),
}
STUDIES = tuple(sc.packaged_scenario_names())


def assembled(scenario):
    net, devices = sc.build_scenario_system(scenario)
    return assemble(net, devices, solve_power_flow(net, tol=1e-12))


@functools.cache
def study(name):
    """``(model, generated rhs, grids by kind)`` of a packaged study."""
    model = assembled(sc.load_packaged_scenario(name))
    grids = {kind: model.grid_variant(events) if events else model.base_grid
             for kind, events in GRIDS.items()}
    return model, model.generate_rhs(), grids


def assert_same_evaluation(model, rhs, x, grid):
    """The bits of the interpreted ``rhs``, or its error and text."""
    try:
        want = model.rhs(x, grid)
    except (SystemModelError, ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            rhs(x, grid)
        assert str(got.value) == str(exc)
        return
    got = rhs(x, grid)
    # a NaN row is compared by position: which of two NaN operands a
    # product keeps, and so the sign of the NaN, changes when CPython
    # specializes the code after its first calls, in ``rhs`` as well
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@PROPERTY
@given(st.sampled_from(STUDIES), st.sampled_from(tuple(GRIDS)), st.data())
def test_the_generated_rhs_has_the_bits_of_rhs(name, kind, data):
    model, rhs, grids = study(name)
    n = model.n_states
    x = model.equilibrium() + np.array(data.draw(st.lists(
        st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    special = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.sampled_from([math.nan, math.inf,
                                                -math.inf, -0.0]),
        max_size=3))
    for k, value in special.items():
        x[k] = value
    assert_same_evaluation(model, rhs, x, grids[kind])


@pytest.mark.parametrize("kind", GRIDS)
def test_the_generated_rhs_names_a_collapsing_sample(kind):
    # the state of test_broadcast_network_solve_names_a_collapsing_sample
    model, rhs, grids = study("B_voltage_support")
    names = [str(lab) for lab in model.state_labels()]
    x = model.equilibrium()
    x[names.index("W1.i_p")] = x[names.index("W1.i_q")] = 20.0
    with pytest.raises(SystemModelError, match="voltage collapse"):
        model.rhs(x, grids[kind])
    assert_same_evaluation(model, rhs, x, grids[kind])


def test_systems_of_one_structure_share_one_code_object():
    # another inertia is another value, not another source: the function
    # reads every parameter from its defaults
    base = sc.load_packaged_scenario("B_voltage_support")
    heavier = dataclasses.replace(
        base, sha256="",
        overrides=base.overrides + (sc.Override("G1", "h_s", 9.25),))
    models = [assembled(scenario) for scenario in (base, heavier)]
    x = models[0].equilibrium() + 1e-2 * np.sin(np.arange(models[0].n_states))
    results = []
    for model in models:
        rhs = model.generate_rhs()
        grid = model.grid_variant(GRIDS["midpoint_fault"])
        got = rhs(x, grid)
        assert got.tobytes() == model.rhs(x, grid).tobytes()
        results.append((rhs.__code__, got))
    (first, f1), (second, f2) = results
    assert first is second
    assert not np.array_equal(f1, f2)


def test_a_run_keeps_its_generated_function_to_itself():
    # the model holds no function object afterwards: it pickles as before
    model = assembled(sc.load_packaged_scenario("B_voltage_support"))
    before = pickle.dumps(model)
    simulate(model, events=[Event("three_phase_fault", 0.1, bus=8,
                                  duration=0.05)], t_end=0.3)
    assert pickle.dumps(model) == before


def test_the_modal_path_builds_no_generated_function(monkeypatch):
    # run_scenario and the sweep evaluate the interpreted rhs, stacked:
    # tracing and compiling would only cost them time
    tapes = []
    init = Tape.__init__
    monkeypatch.setattr(Tape, "__init__",
                        lambda self: tapes.append(1) or init(self))
    scenario = sc.load_packaged_scenario("B_voltage")
    sc.run_scenario(scenario)
    sc.run_sensitivity_sweep(scenario, kp_values=(0.0, 20.0),
                             kin_values=(0.0, 10.0))
    assert tapes == []


def _ratio_then_cosine(x, m):
    a, b = m.states(x)
    q = 1.0 / a
    return m.array([m.cos(b) + q])


@pytest.mark.parametrize("x, error", [
    ((2.0, 0.5), None), ((0.0, math.inf), ZeroDivisionError),
    ((2.0, math.inf), ValueError)])
def test_a_generated_function_raises_the_first_error_first(x, error):
    # the quotient is taken before the cosine; written as one expression,
    # the cosine would raise first
    tape = Tape()
    generated = tape.function(
        _ratio_then_cosine(tape.parameter("x", 2), TRACE), TRACE_NAMES)
    x = np.array(x)
    if error is None:
        assert generated(x).tobytes() == _ratio_then_cosine(
            x, SCALAR).tobytes()
        return
    with pytest.raises(error):
        _ratio_then_cosine(x, SCALAR)
    with pytest.raises(error):
        generated(x)


class _BranchingGen(SyncGen):
    """A machine whose rates branch in Python on its speed."""

    def rates(self, states, emf, v, m):
        f = super().rates(states, emf, v, m)
        if states[1] > 0.0:
            f[0] = 2.0 * f[0]
        return f


def test_a_device_that_branches_on_a_state_fails_at_build():
    net, devices = build_two_area("A")
    g1 = devices[0]
    devices[0] = _BranchingGen(g1.device_id, g1.bus_id, g1.params)
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    model.rhs(model.equilibrium())           # interpreted, it runs
    with pytest.raises(TraceError, match="branches in Python on a state"):
        model.generate_rhs()
    with pytest.raises(TraceError):
        simulate(model, t_end=0.1)


@pytest.mark.parametrize("name", ["A", "B_voltage_support",
                                  "C_reactive_power"])
def test_the_generated_source_holds_no_value_and_no_text(monkeypatch, name):
    sources = []
    source = Tape.source
    monkeypatch.setattr(Tape, "source", lambda self, output: sources.append(
        source(self, output)) or sources[-1])
    model = assembled(sc.load_packaged_scenario(name))
    rhs = model.generate_rhs()
    (text, constants), = sources
    # parameters (x, grid, the defaults) and locals
    own = set(rhs.__code__.co_varnames)
    assert len(rhs.__defaults__) == len(constants)
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    assert not [t for t in tokens if t.type in (tokenize.STRING,
                                                tokenize.NUMBER)]
    for before, token in zip(tokens, tokens[1:]):
        if token.type != tokenize.NAME:
            continue
        if before.string == ".":
            assert token.string in ("real", "imag", "z_dev", "z_conv")
        elif before.string == "def":
            assert token.string == rhs.__name__
        else:
            assert (keyword.iskeyword(token.string) or token.string in own
                    or token.string in TRACE_NAMES), token.string
    # no loop and no branch but the collapse guard
    assert not {"for", "while"} & {t.string for t in tokens}
