"""Declared parameter domains (``devices.parameter_class``).

Every float field of a parameter class declares one domain with its
default: positive, nonnegative, any finite value, or above another field
of the class.  A study sets a machine's or the farm's numbers through
overrides and the droop gains through its ``droop`` block, so a value
outside its domain stops the study at ``[build]`` (at ``[load]`` for the
droop block), naming the field, and a value inside passes the field's
check.  The studies here are case B with frequency support: machine G1,
farm W1 and the farm's droop.
"""

import dataclasses
import functools
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from windmodal import cli
from windmodal.devices import parameter_domains
from windmodal.dfig import DfigParams, DroopParams
from windmodal.scenario import (PipelineError, build_scenario_system,
                                parse_scenario, run_scenario)
from windmodal.smib import SmibParams
from windmodal.syncgen import SyncGenParams

CLASSES = (SyncGenParams, DfigParams, DroopParams, SmibParams)
BASE = {"base_case": "B", "frequency_support": True}
PROPERTY = settings(max_examples=10, derandomize=True, database=None,
                    deadline=None)


def _inside(value, lower, strict):
    return (lower < value if strict else lower <= value) and value < math.inf


def _with_override(device, name, value):
    return parse_scenario(dict(BASE, overrides=[
        {"device": device, "field": name, "value": value}]))


@functools.cache
def _study_params():
    """``{"G1": ..., "W1": ..., "droop": ...}`` of the base study."""
    scenario = parse_scenario(BASE)
    _, devices = build_scenario_system(scenario)
    params = {d.device_id: d.params for d in devices}
    return {"G1": params["G1"], "W1": params["W1"], "droop": scenario.droop}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_float_field_declares_one_domain_holding_its_default(cls):
    domains = parameter_domains(cls)
    assert set(domains) == {f.name for f in dataclasses.fields(cls)
                            if f.type == "float"}
    order = list(domains)
    default = cls()
    for name, (lower, strict) in domains.items():
        if isinstance(lower, str):
            # checked after the field that bounds it
            assert order.index(lower) < order.index(name)
            lower = getattr(default, lower)
        assert _inside(getattr(default, name), lower, strict), name


@pytest.mark.parametrize("device, value", [
    ("G1", 800.0), ("W1", 400.0), ("W1", 300.0)])
def test_a_rating_is_fixed_by_the_case(device, value):
    # the farm rating and the machine base, on which the step-up
    # transformers are sized, belong to the case; an override of either
    # used to build and report
    with pytest.raises(PipelineError, match=r"^\[build\] override field "
                       rf"'base_mva' of {device} is fixed by the case$"):
        run_scenario(_with_override(device, "base_mva", value))


@pytest.mark.parametrize("device, name, value", [
    ("G1", "d_pu", -1.0), ("G1", "t1", -1.0), ("G1", "t3", -1.0),
    ("G1", "pm_min", -1.0), ("W1", "v_floor", -1.0), ("W1", "v_floor", 0.0),
    ("W1", "p_ctrl_omega", -1.0), ("W1", "p_ctrl_zeta", -1.0),
    ("W1", "p_ctrl_zeta", 0.0), ("W1", "kv_p", -1.0), ("W1", "kv_i", -1.0),
    ("W1", "kq_p", -1.0), ("W1", "kq_i", -1.0),
    # these two failed later, at [assemble] and at [modal]
    ("G1", "vs_max", -1.0), ("W1", "p_ctrl_omega", 0.0),
])
def test_a_value_outside_its_domain_fails_at_build(device, name, value):
    # each of these used to build, and all but the last two to report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PipelineError, match=rf"^\[build\] {name} must "
                           rf"be .*, got {value!r}$") as err:
            run_scenario(_with_override(device, name, value))
    assert err.value.stage == "build"


@pytest.mark.parametrize("device, name", [
    pytest.param(device, name, id=f"{device}.{name}")
    for device, cls in (("G1", SyncGenParams), ("W1", DfigParams),
                        ("droop", DroopParams))
    for name in parameter_domains(cls) if name != "base_mva"])
# a value far inside a domain can overflow in the model; that is a later
# stage's matter
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(data=st.data())
def test_a_drawn_value_fails_by_its_domain_or_passes_its_check(
        device, name, data, tmp_path_factory):
    params = _study_params()[device]
    lower, strict = parameter_domains(type(params))[name]
    if isinstance(lower, str):
        lower = getattr(params, lower)
    inside = data.draw(st.booleans())
    if inside:
        value = data.draw(st.floats(
            min_value=None if lower == -math.inf else lower,
            exclude_min=strict and lower > -math.inf, allow_nan=False,
            allow_infinity=False))
    else:
        beyond = st.sampled_from([math.nan, math.inf, -math.inf])
        if lower > -math.inf:
            beyond |= st.floats(max_value=lower, allow_nan=False).filter(
                lambda v: not _inside(v, lower, strict))
        value = data.draw(beyond)

    stage, prefix = "build", ""
    try:
        if device == "droop":
            # a scenario file, loaded as the command line loads it
            stage, prefix = "load", "droop: "
            path = tmp_path_factory.mktemp("droop") / "study.json"
            path.write_text(json.dumps(dict(BASE, droop={name: value})))
            scenario = cli._load(str(path))
        else:
            scenario = _with_override(device, name, value)
        run_scenario(scenario)
    except PipelineError as exc:
        error = exc
    else:
        error = None
    own = f"[{stage}] {prefix}{name} must be "
    if inside:
        # any failure is a later one, or another field's, with its stage
        assert error is None or (str(error).startswith(f"[{error.stage}] ")
                                 and not str(error).startswith(own))
    else:
        assert error is not None and error.stage == stage
        assert str(error).startswith(own)
