"""Property tests of the scenario schema.

Three properties, each over generated inputs:

- a scenario survives its canonical form: ``parse_scenario(s.to_dict())``,
  also through JSON text, equals ``s``;
- ``sha256`` is equal exactly when all other fields are equal.  The second
  scenario of a pair is the first with one group of fields taken from an
  independent draw, or none, optionally every float zero's sign flipped,
  and optionally every integer in a field typed float made a float, so
  that equal and unequal pairs both occur;
- every event the parser accepts round-trips through ``_event_to_dict``.

Numbers range over what the schema accepts, signed zeros, huge and tiny
values included; a field typed float also takes integers, as the Python API
allows.  Override values exclude NaN: the schema takes them so that the
build can name the field (``test_nonfinite_override_fails_at_build_*``),
and NaN equals nothing, itself included, so "equal fields" has no meaning
there.  The examples are derandomized, so every run checks the same ones.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from windmodal.dfig import CONTROL_MODES, DroopParams
from windmodal.scenario import (Override, Scenario, ScenarioError,
                                _event_to_dict, _parse_event, parse_scenario)
from windmodal.timedomain import (DEFAULT_FAULT_ADMITTANCE, EVENT_FIELDS,
                                  EVENT_KINDS, Event)
from windmodal.twoarea import CASES

PROPERTY = settings(max_examples=100, derandomize=True, database=None,
                    deadline=None)

NONNEG = st.floats(min_value=-0.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)
# a whole number in a field typed float, small enough to convert exactly
NONNEG_OR_INT = NONNEG | st.integers(min_value=0, max_value=2 ** 53)
POSITIVE_OR_INT = POSITIVE | st.integers(min_value=1, max_value=2 ** 53)
TEXT = st.text(max_size=6)
# a scenario name is a file-name stem: no path separator and no NUL
NAME = st.text(st.characters(exclude_characters="/\\\0"), max_size=6)

# the fields that the second scenario of a pair may take from another draw;
# the farm fields go together, since they must agree with the case
GROUPS = (("base_case", "control_mode", "frequency_support", "droop"),
          ("name",), ("description",), ("overrides",), ("events",))


@st.composite
def events(draw):
    """A valid ``Event`` of any kind."""
    kind = draw(st.sampled_from(EVENT_KINDS))
    kwargs = {"t_start": draw(NONNEG_OR_INT)}
    if kind == "three_phase_fault":
        if draw(st.booleans()):
            kwargs["bus"] = draw(st.integers())
        else:
            kwargs["branch"] = draw(TEXT)
        kwargs["duration"] = draw(st.none() | POSITIVE_OR_INT)
        kwargs["admittance"] = draw(st.just(DEFAULT_FAULT_ADMITTANCE)
                                    | POSITIVE_OR_INT)
    elif kind == "load_step":
        kwargs["bus"] = draw(st.integers())
        kwargs["scale"] = draw(NONNEG_OR_INT)
    else:
        kwargs["branch"] = draw(TEXT)
    return Event(kind, **kwargs)


@st.composite
def scenarios(draw):
    """A valid ``Scenario`` with its canonical hash."""
    case = draw(st.sampled_from(CASES))
    farm = {}
    if case != "A":
        farm["control_mode"] = draw(st.sampled_from(CONTROL_MODES))
        if draw(st.booleans()):
            farm["frequency_support"] = True
            farm["droop"] = DroopParams(
                kp=draw(NONNEG_OR_INT), kin=draw(NONNEG_OR_INT),
                rocof_filter_time=draw(POSITIVE_OR_INT), enabled=True)
    overrides = st.builds(Override, TEXT, TEXT,
                          st.floats(allow_nan=False) | st.integers(
                              min_value=-2 ** 53, max_value=2 ** 53))
    return Scenario(
        case, name=draw(NAME), description=draw(TEXT),
        overrides=tuple(draw(st.lists(overrides, max_size=2))),
        events=tuple(draw(st.lists(events(), max_size=2))), **farm)


def flip_zeros(value):
    """``value`` with the sign of every float zero in it flipped."""
    if isinstance(value, float):
        return -value if value == 0.0 else value
    if isinstance(value, tuple):
        return tuple(flip_zeros(v) for v in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: flip_zeros(getattr(value, f.name))
            for f in dataclasses.fields(value)})
    return value


def ints_as_floats(value):
    """``value`` with every integer in a field typed float made a float."""
    if isinstance(value, tuple):
        return tuple(ints_as_floats(v) for v in value)
    if dataclasses.is_dataclass(value):
        changes = {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            typed_float = "float" in f.type and not isinstance(v, bool)
            changes[f.name] = (float(v) if typed_float and isinstance(v, int)
                               else ints_as_floats(v))
        return dataclasses.replace(value, **changes)
    return value


def fields_but_hash(scenario):
    return [getattr(scenario, f.name) for f in dataclasses.fields(Scenario)
            if f.name != "sha256"]


@PROPERTY
@given(scenarios())
def test_a_scenario_survives_its_canonical_form(scenario):
    obj = scenario.to_dict()
    assert parse_scenario(obj) == scenario
    assert parse_scenario(json.loads(json.dumps(obj))) == scenario


@PROPERTY
@given(scenarios(), scenarios(), st.sampled_from(GROUPS + ((),)),
       st.booleans(), st.booleans())
def test_the_hash_is_equal_exactly_when_the_fields_are(one, other, group,
                                                       flip, retype):
    two = dataclasses.replace(
        one, **{name: getattr(other, name) for name in group}, sha256="")
    if flip:
        two = dataclasses.replace(flip_zeros(two), sha256="")
    if retype:
        two = dataclasses.replace(ints_as_floats(two), sha256="")
    assert (one.sha256 == two.sha256) == \
        (fields_but_hash(one) == fields_but_hash(two))
    assert (one == two) == (fields_but_hash(one) == fields_but_hash(two))


NUMBERS = NONNEG | st.integers(min_value=0) | st.floats()


@st.composite
def event_objects(draw):
    """An event mapping as a file gives it: the keys its kind takes, each
    present or not, numbers as floats or integers, valid or not."""
    kind = draw(st.sampled_from(EVENT_KINDS))
    where, takes = EVENT_FIELDS[kind]
    keys = where + takes + (("duration_cycles",) if "duration" in takes
                            else ())
    obj = {"kind": kind, "t_start": draw(NUMBERS)}
    for key in keys:
        if draw(st.booleans()):
            obj[key] = draw(st.integers() if key == "bus" else
                            TEXT if key == "branch" else NUMBERS)
    return obj


@PROPERTY
@given(event_objects())
def test_every_event_the_parser_accepts_round_trips(obj):
    try:
        event = _parse_event(obj, "event")
    except ScenarioError:
        return
    again = _event_to_dict(event)
    assert _parse_event(again, "event") == event
    assert _parse_event(json.loads(json.dumps(again)), "event") == event

