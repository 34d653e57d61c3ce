"""Scenario schema, pipeline reports, sweeps, and export round-trips.

Pipeline numbers (mode tables, sweep trends) are exercised through the
packaged benchmark studies; schema tests feed hand-built mappings through
the strict parser and check that every rejection names the offending key.
"""

import copy
import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

import windmodal
from windmodal.dfig import CONTROL_MODES, DroopParams
from windmodal.modal import StateMatrix, analyze_modes, linearize
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (DEFAULT_GAIN_GRID, PipelineError, Override,
                                Report, Scenario, ScenarioError,
                                _affine_gain_model, _dominant_rows,
                                _event_to_dict, _parse_event, _with_gains,
                                assemble, build_scenario_system,
                                export_report, load_packaged_scenario,
                                load_scenario,
                                packaged_scenario_names, parse_report,
                                parse_scenario, parse_sweep, report_to_csv,
                                report_to_text, resolve_scenario,
                                run_scenario, run_sensitivity_sweep,
                                simulate_scenario, sweep_to_csv,
                                sweep_to_text)
from windmodal.syncgen import SyncGenParams
from windmodal.timedomain import EVENT_FIELDS, EVENT_KINDS, Event, cycles
from windmodal.twoarea import DEFAULT_WIND_MVA, two_area_network

from conftest import cell_matrix

PACKAGED = {
    "A",
    "B_voltage", "B_voltage_support",
    "B_reactive_power", "B_reactive_power_support",
    "C_voltage", "C_voltage_support",
    "C_reactive_power", "C_reactive_power_support",
}


@pytest.fixture(scope="module")
def report_a():
    return run_scenario(load_packaged_scenario("A"))


@pytest.fixture(scope="module")
def scenario_b():
    return load_packaged_scenario("B_voltage")


@pytest.fixture(scope="module")
def report_b(scenario_b):
    return run_scenario(scenario_b)


# -- scenario files and schema ----------------------------------------------------


def test_packaged_scenario_names():
    assert set(packaged_scenario_names()) == PACKAGED


def test_packaged_scenarios_are_consistent():
    for name in sorted(PACKAGED):
        sc = load_packaged_scenario(name)
        assert sc.name == name
        assert sc.base_case == name[0]
        assert sc.frequency_support == name.endswith("_support")
        assert sc.droop.enabled == sc.frequency_support
        assert len(sc.sha256) == 64 and int(sc.sha256, 16) >= 0
        # every canned study scripts the same tie-line fault
        assert len(sc.events) == 1
        ev = sc.events[0]
        assert ev.kind == "three_phase_fault"
        assert ev.branch == "L8-9a"
        assert ev.duration == pytest.approx(cycles(10))


def test_parse_scenario_fills_support_gain_defaults():
    support = {"base_case": "B", "frequency_support": True}
    sc = parse_scenario(support)
    assert sc.droop == DroopParams(kp=20.0, kin=0.0, enabled=True)
    assert sc.droop.rocof_filter_time == DroopParams.rocof_filter_time
    sc = parse_scenario({**support, "droop": {"kp": 5.0, "kin": 35.0}})
    assert (sc.droop.kp, sc.droop.kin) == (5.0, 35.0)
    # a partial block keeps the other defaults
    sc = parse_scenario({**support, "droop": {"kin": 35.0}})
    assert sc.droop == DroopParams(kp=20.0, kin=35.0, enabled=True)
    sc = parse_scenario({**support, "droop": {"rocof_filter_time": 0.2}})
    assert sc.droop == DroopParams(kp=20.0, rocof_filter_time=0.2,
                                   enabled=True)
    sc = parse_scenario({"base_case": "B"})
    assert not sc.frequency_support and not sc.droop.enabled


def test_study_defaults_are_read_from_their_owners():
    _, devices = build_scenario_system(Scenario(base_case="A"))
    assert {d.params.k_pss for d in devices} == {SyncGenParams.k_pss}
    # the farm bus kind follows the control mode
    kinds = {}
    for mode in CONTROL_MODES:
        net, _ = build_scenario_system(
            Scenario(base_case="B", control_mode=mode))
        kinds[mode] = next(b.kind for b in net.buses if b.id == 12)
        # the power flow meets 1e-12 by default
        assert solve_power_flow(net).mismatch <= 1e-12
    assert kinds == {"voltage": "pv", "reactive_power": "pq"}
    # one farm rating feeds the network and the farm
    for case in ("B", "C"):
        net, devices = build_scenario_system(Scenario(base_case=case))
        farm = next(d for d in devices if d.device_id == "W1")
        tw = next(b for b in net.branches if b.name == "TW")
        assert farm.params.base_mva == DEFAULT_WIND_MVA[case]
        assert tw.x == pytest.approx(0.10 * 100.0 / DEFAULT_WIND_MVA[case])


@pytest.mark.parametrize("key, value", [("k_pss", 5.0), ("wind_mva", 300.0)])
def test_a_stabilizer_gain_or_farm_rating_is_no_scenario_field(key, value):
    # a machine's gain is an override, and each case fixes its farm rating
    with pytest.raises(TypeError, match=key):
        Scenario(base_case="B", **{key: value})
    with pytest.raises(ScenarioError, match=rf"^{key}: unknown key$"):
        parse_scenario({"base_case": "B", key: value})


def test_overrides_set_the_stabilizer_gain_of_each_machine(tmp_path):
    machines = ("G1", "G2", "G3", "G4")
    path = tmp_path / "pss.json"
    path.write_text(json.dumps({"base_case": "B", "overrides": [
        {"device": g, "field": "k_pss", "value": 5.0} for g in machines]}))
    _, devices = build_scenario_system(load_scenario(path))
    gains = {d.device_id: d.params.k_pss for d in devices
             if d.device_id in machines}
    assert gains == dict.fromkeys(machines, 5.0)


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_two_area_network_rejects_an_unknown_control_mode(case):
    with pytest.raises(ValueError, match="control_mode must be 'voltage' or "
                                         "'reactive_power', got 'bogus'"):
        two_area_network(case, control_mode="bogus")


def test_two_area_network_rejects_an_unknown_case():
    with pytest.raises(ValueError, match="^unknown case 'D'"):
        two_area_network("D")


def test_fields_the_hash_leaves_out_must_keep_their_defaults():
    # to_dict, and so sha256, omits them; were they free, these unequal
    # scenarios would share the hash of the default one
    with pytest.raises(ScenarioError,
                       match="control_mode: case A has no wind farm"):
        Scenario(base_case="A", control_mode="reactive_power")
    with pytest.raises(ScenarioError, match="droop: droop gains apply only "
                                            "when frequency_support is true"):
        Scenario(base_case="B", droop=DroopParams(kp=5.0))
    # the packaged studies and the sweeps' gain variants still load
    for name in packaged_scenario_names():
        scen = load_packaged_scenario(name)
        if scen.base_case != "A":
            assert _with_gains(scen, 5.0, 0.0).sha256 != scen.sha256


@pytest.mark.parametrize("kwargs, message", [
    (dict(base_case="D"), "base_case"),
    (dict(base_case="B", control_mode="droop"), "control_mode"),
    (dict(base_case="A", frequency_support=True,
          droop=DroopParams(kp=20.0, enabled=True)), "no wind farm"),
    (dict(base_case="B", frequency_support=False,
          droop=DroopParams(kp=20.0, enabled=True)), "must match"),
])
def test_scenario_object_validation(kwargs, message):
    with pytest.raises(ScenarioError, match=message):
        Scenario(**kwargs)


def test_parse_rejects_unknown_keys_with_their_path():
    with pytest.raises(ScenarioError, match="frequency: unknown key"):
        parse_scenario({"base_case": "B", "frequency": True})
    with pytest.raises(ScenarioError, match="droop.kp_typo: unknown key"):
        parse_scenario({"base_case": "B", "frequency_support": True,
                        "droop": {"kp_typo": 1.0}})
    with pytest.raises(ScenarioError,
                       match=r"events\[0\].magnitude: unknown key"):
        parse_scenario({"base_case": "B",
                        "events": [{"kind": "load_step", "t_start": 1.0,
                                    "bus": 7, "magnitude": 2.0}]})
    with pytest.raises(ScenarioError,
                       match=r"overrides\[0\].value: missing required key"):
        parse_scenario({"base_case": "B",
                        "overrides": [{"device": "G1", "field": "h_s"}]})


def test_parse_rejects_farm_keys_for_the_no_wind_case():
    for key, value in [("control_mode", "voltage"),
                       ("frequency_support", False),
                       ("droop", {})]:
        with pytest.raises(ScenarioError, match="case A has no wind farm"):
            parse_scenario({"base_case": "A", key: value})


def test_parse_rejects_droop_without_support():
    with pytest.raises(ScenarioError, match="only when frequency_support"):
        parse_scenario({"base_case": "B", "droop": {"kp": 5.0}})


def test_parse_event_duration_forms():
    sc = parse_scenario({"base_case": "B", "events": [
        {"kind": "three_phase_fault", "t_start": 1.0, "branch": "L8-9a",
         "duration_cycles": 10}]})
    assert sc.events[0].duration == pytest.approx(cycles(10))
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario({"base_case": "B", "events": [
            {"kind": "three_phase_fault", "t_start": 1.0, "branch": "L8-9a",
             "duration": 0.1, "duration_cycles": 10}]})
    with pytest.raises(ScenarioError, match="unknown event kind"):
        parse_scenario({"base_case": "B", "events": [
            {"kind": "earthquake", "t_start": 1.0}]})
    # a fault ends by its duration or at the end of the run, never by a
    # second event
    with pytest.raises(ScenarioError, match=r"^events\[0\]: unknown event "
                                            r"kind 'clear_fault'"):
        parse_scenario({"base_case": "B", "events": [
            {"kind": "clear_fault", "t_start": 1.0, "bus": 8}]})
    # only a fault expires
    for event in ({"kind": "load_step", "t_start": 0.1, "bus": 7,
                   "scale": 1.1, "duration": 0.05},
                  {"kind": "line_trip", "t_start": 0.1, "branch": "L8-9b",
                   "duration_cycles": 6}):
        with pytest.raises(ScenarioError,
                           match=r"^events\[1\]: .* takes no duration"):
            parse_scenario({"base_case": "B", "events": [
                {"kind": "three_phase_fault", "t_start": 0.1, "bus": 8},
                event]})


@pytest.mark.parametrize("event, key", [
    ({"kind": "three_phase_fault", "t_start": 0.1, "bus": 8, "scale": 3.0},
     "scale"),
    ({"kind": "line_trip", "t_start": 0.1, "branch": "L8-9b",
      "scale": 1.0}, "scale"),
    ({"kind": "load_step", "t_start": 0.1, "bus": 7, "admittance": 1e4},
     "admittance"),
    ({"kind": "line_trip", "t_start": 0.1, "branch": "L8-9b",
      "admittance": 50.0}, "admittance"),
])
def test_parse_rejects_a_field_the_event_kind_does_not_use(event, key):
    # to_dict would drop the stray field: the scenario would compare
    # unequal to the one without it but carry the same sha256
    with pytest.raises(ScenarioError,
                       match=rf"^events\[0\]\.{key}: applies only to a "):
        parse_scenario({"base_case": "B", "events": [event]})
    without = {k: v for k, v in event.items() if k != key}
    parse_scenario({"base_case": "B", "events": [without]})    # fine


# a value of each field that some kind of event takes, and a valid event
# of each kind that the field is added to; a bus or branch replaces the
# event's own target
_EVENT_FIELD_VALUES = {"bus": 8, "branch": "L8-9a", "duration": 0.1,
                       "admittance": 50.0, "scale": 1.1}
_MINIMAL_EVENTS = {"three_phase_fault": {"bus": 9}, "load_step": {"bus": 7},
                   "line_trip": {"branch": "L8-9b"}}


@pytest.mark.parametrize("field", _EVENT_FIELD_VALUES)
@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_event_and_parser_agree_on_the_fields_of_each_kind(kind, field):
    event = {"kind": kind, "t_start": 0.1, **_MINIMAL_EVENTS[kind]}
    if field in ("bus", "branch"):
        event.pop("bus", None)
        event.pop("branch", None)
    event[field] = _EVENT_FIELD_VALUES[field]
    where, takes = EVENT_FIELDS[kind]
    if field in where + takes:
        parsed = _parse_event(event, "events[0]")
        assert parsed == Event(**event)
        # every field the kind takes that is given or set, and no other
        written = _event_to_dict(parsed)
        assert written[field] == event[field]
        assert set(written) == {"kind", "t_start"} | {
            name for name in where + takes
            if getattr(parsed, name) is not None}
    else:
        with pytest.raises(ValueError, match=f"^{kind} takes no {field}$"):
            Event(**event)
        with pytest.raises(ScenarioError,
                           match=rf"^events\[0\](\.{field}: applies only to "
                                 rf"a \w+ event|: {kind} takes no {field})$"):
            _parse_event(event, "events[0]")


def test_scenario_file_with_a_negative_droop_gain_is_rejected(tmp_path):
    # DroopParams owns the check; the parser names the section
    path = tmp_path / "negative_kp.json"
    path.write_text('{"base_case": "B", "frequency_support": true, '
                    '"droop": {"kp": -1.0}}')
    with pytest.raises(ScenarioError, match=r"^droop: kp must be finite "
                                            r"and nonnegative, got -1\.0$"):
        load_scenario(path)


def test_scenario_file_with_a_nan_event_time_is_rejected(tmp_path):
    # Python's json reads NaN; a fault at t = NaN would never be applied
    path = tmp_path / "nan_fault.json"
    path.write_text('{"base_case": "A", "events": [{"kind": '
                    '"three_phase_fault", "t_start": NaN, "bus": 8, '
                    '"duration": 0.1}]}')
    with pytest.raises(ScenarioError, match=r"events\[0\].*t_start must "
                                            "be finite"):
        load_scenario(path)


@pytest.mark.parametrize("obj, where", [
    ({"base_case": "B", "overrides": [{"device": "G1", "field": "k_pss",
                                       "value": 10 ** 400}]},
     r"overrides\[0\]\.value"),
    ({"base_case": "B", "events": [{"kind": "load_step",
                                    "t_start": 10 ** 400, "bus": 7}]},
     r"events\[0\]\.t_start"),
])
def test_an_integer_too_large_for_a_float_names_its_key(obj, where):
    with pytest.raises(ScenarioError, match=rf"^{where}: too large for a "
                                            "float"):
        parse_scenario(obj)


@pytest.mark.parametrize("event, message", [
    ({"kind": "line_trip", "t_start": 1.0, "branch": "L7-8a", "bus": 7},
     "line_trip takes no bus"),
    ({"kind": "load_step", "t_start": 1.0, "bus": 7, "branch": "L7-8a",
      "scale": 1.1}, "load_step takes no branch"),
])
def test_parse_rejects_a_target_the_event_kind_ignores(event, message):
    with pytest.raises(ScenarioError, match=rf"^events\[0\]: {message}"):
        parse_scenario({"base_case": "B", "events": [event]})


def test_parse_type_checks():
    with pytest.raises(ScenarioError, match="must be a number"):
        parse_scenario({"base_case": "B", "overrides": [
            {"device": "G1", "field": "k_pss", "value": "ten"}]})
    with pytest.raises(ScenarioError, match="must be a number"):
        parse_scenario({"base_case": "B", "overrides": [
            {"device": "G1", "field": "k_pss", "value": True}]})
    with pytest.raises(ScenarioError, match="true or false"):
        parse_scenario({"base_case": "B", "frequency_support": 1})
    with pytest.raises(ScenarioError, match="integer bus id"):
        parse_scenario({"base_case": "B", "events": [
            {"kind": "load_step", "t_start": 1.0, "bus": 7.5}]})
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        parse_scenario(["base_case", "B"])
    with pytest.raises(ScenarioError, match="branch name"):
        parse_scenario({"base_case": "B", "events": [
            {"kind": "line_trip", "t_start": 1.0, "branch": 5}]})


@pytest.mark.parametrize("key, value", [
    ("events", 5), ("overrides", 5), ("events", {"kind": "x"}),
    ("overrides", "ab")])
def test_parse_rejects_events_or_overrides_that_are_not_lists(key, value):
    # an int is not iterable, and a mapping or string would be iterated as
    # its keys or characters
    with pytest.raises(ScenarioError, match=rf"^{key}: must be a list$"):
        parse_scenario({"base_case": "B", key: value})


# every optional key of a scenario, its droop block, an override and events
_FULL_SCENARIO = {
    "base_case": "B", "name": "n", "description": "d",
    "control_mode": "voltage", "frequency_support": True,
    "droop": {"kp": 5.0, "kin": 1.0, "rocof_filter_time": 0.1},
    "overrides": [{"device": "G1", "field": "h", "value": 6.0}],
    "events": [{"kind": "three_phase_fault", "t_start": 1.0,
                "branch": "L8-9a", "duration": 0.1, "admittance": 1e4},
               {"kind": "load_step", "t_start": 2.0, "bus": 7,
                "scale": 1.1}]}


_NULL_CASES = [
    (("name",), "must be a string"),
    (("description",), "must be a string"),
    (("control_mode",), "control_mode must be 'voltage' or "
                        "'reactive_power', got None"),
    (("frequency_support",), "must be true or false"),
    (("droop",), "must be an object"),
    (("overrides",), "must be a list"),
    (("events",), "must be a list"),
    (("droop", "kp"), "must be a number"),
    (("droop", "kin"), "must be a number"),
    (("droop", "rocof_filter_time"), "must be a number"),
    (("overrides", 0, "device"), "must be a device id"),
    (("overrides", 0, "field"), "must be a parameter name"),
    (("overrides", 0, "value"), "must be a number"),
    (("events", 0, "kind"), "must be a string"),
    (("events", 0, "t_start"), "must be a number"),
    (("events", 0, "bus"), "must be an integer bus id"),
    (("events", 0, "duration"), "must be a number"),
    (("events", 0, "admittance"), "must be a number"),
    (("events", 1, "branch"), "must be a branch name"),
    (("events", 1, "duration_cycles"), "must be a number"),
    (("events", 1, "scale"), "must be a number"),
]


@pytest.mark.parametrize("keys, message", _NULL_CASES,
                         ids=[".".join(map(str, k)) for k, _ in _NULL_CASES])
def test_parse_rejects_null_for_every_optional_key(keys, message):
    # a JSON null is a value of the wrong type, never an absent key
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                    for k in keys).lstrip(".")
    parse_scenario(_FULL_SCENARIO)       # valid as it stands
    docs = [copy.deepcopy(_FULL_SCENARIO)]
    if len(keys) == 1:                   # and in a file without support
        docs.append({"base_case": "B"})
    for doc in docs:
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = None
        with pytest.raises(ScenarioError,
                           match=rf"^{re.escape(where)}: {message}"):
            parse_scenario(doc)


def test_scenario_hash_is_canonical():
    study = {"base_case": "B", "frequency_support": True,
             "droop": {"kp": 15.0}}
    one = parse_scenario(study)
    two = parse_scenario(json.loads(json.dumps(study)))
    assert one.sha256 == two.sha256
    assert one == two
    other = dataclasses.replace(one, description="tweaked", sha256="")
    assert other.sha256 != one.sha256


@pytest.mark.parametrize("kwargs, zero", [
    (dict(base_case="B"), dict(overrides=(Override("G1", "k_pss", 0.0),))),
    (dict(base_case="B", frequency_support=True),
     dict(droop=DroopParams(kp=0.0, kin=0.0, enabled=True))),
    (dict(base_case="A"), dict(overrides=(Override("G1", "d_pu", 0.0),))),
    (dict(base_case="A"), dict(events=(Event("three_phase_fault", 0.0, bus=8,
                                             duration=0.1),))),
    (dict(base_case="A"), dict(events=(Event("load_step", 1.0, bus=7,
                                             scale=0.0),))),
], ids=["k_pss", "droop", "override", "t_start", "scale"])
def test_a_signed_zero_leaves_the_scenario_and_its_hash_unchanged(kwargs,
                                                                  zero):
    # -0.0 == 0.0, and the validation takes both, so the two scenarios have
    # equal fields; the canonical form writes the zero unsigned
    def negated(value):
        if isinstance(value, float):
            return -value
        if isinstance(value, tuple):
            return tuple(negated(v) for v in value)
        return dataclasses.replace(value, **{
            f.name: negated(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), float)
            and getattr(value, f.name) == 0.0})

    plus = Scenario(**kwargs, **zero)
    minus = Scenario(**kwargs, **{k: negated(v) for k, v in zero.items()})
    assert "-0.0" in repr(minus)
    assert minus == plus and minus.sha256 == plus.sha256
    assert "-0.0" not in json.dumps(minus.to_dict())


@pytest.mark.parametrize("kwargs, whole, real", [
    (dict(base_case="B"), dict(overrides=(Override("G1", "k_pss", 5),)),
     dict(overrides=(Override("G1", "k_pss", 5.0),))),
    (dict(base_case="B", frequency_support=True),
     dict(droop=DroopParams(kp=20, enabled=True)),
     dict(droop=DroopParams(kp=20.0, enabled=True))),
    (dict(base_case="A"), dict(overrides=(Override("G1", "h_s", 5),)),
     dict(overrides=(Override("G1", "h_s", 5.0),))),
    (dict(base_case="A"), dict(events=(Event("load_step", 1, bus=7),)),
     dict(events=(Event("load_step", 1.0, bus=7),))),
], ids=["k_pss", "droop", "override", "t_start"])
def test_a_whole_number_leaves_the_scenario_and_its_hash_unchanged(
        kwargs, whole, real):
    # 5 == 5.0, and the parser makes every such field a float, so the
    # canonical form writes it as one
    one, two = Scenario(**kwargs, **whole), Scenario(**kwargs, **real)
    assert one == two and one.sha256 == two.sha256
    assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())


def test_scenario_dict_round_trip():
    sc = Scenario(
        "C", control_mode="reactive_power", frequency_support=True,
        droop=DroopParams(kp=20.0, kin=30.0, enabled=True),
        name="study", description="round trip",
        overrides=(Override("W1", "kv_i", 25.0),),
        events=(cycles_fault := load_packaged_scenario("A").events))
    assert parse_scenario(sc.to_dict()) == sc
    assert cycles_fault  # the packaged event script came through


def test_load_scenario_file_and_error_paths(tmp_path):
    payload = {"base_case": "B", "frequency_support": True,
               "droop": {"kp": 10.0, "kin": 5.0}}
    path = tmp_path / "mystudy.json"
    raw = json.dumps(payload).encode()
    path.write_bytes(raw)
    sc = load_scenario(path)
    assert sc.name == "mystudy"           # stem fills in the missing name
    assert sc.sha256 == hashlib.sha256(raw).hexdigest()
    assert resolve_scenario(str(path)) == sc
    assert resolve_scenario("B_voltage") == load_packaged_scenario("B_voltage")

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "absent.json")
    with pytest.raises(ScenarioError, match="no packaged scenario"):
        load_packaged_scenario("Z_mystery")


# -- pipeline reports ---------------------------------------------------------------


def test_no_wind_report(report_a):
    classes = {m.classification for m in report_a.dominant}
    assert "inter_area" in classes and "local" in classes
    assert "converter_control" not in classes
    assert all(m.ccbg_pi == 0.0 for m in report_a.modes)
    assert report_a.n_states == 44        # four 11-state machines
    assert report_a.power_flow.total_load_mw == pytest.approx(2300.0)
    assert report_a.power_flow.max_mismatch < 1e-12
    assert report_a.version == windmodal.__version__
    assert report_a.scenario_sha256 == load_packaged_scenario("A").sha256
    # the table is sorted least-damped first
    damp = [m.damping for m in report_a.modes]
    assert damp == sorted(damp)


@pytest.mark.parametrize("name", sorted(PACKAGED))
def test_report_rows_are_the_rows_analyze_modes_returns(name):
    # nothing converts a mode between the modal workup and the report
    scenario = load_packaged_scenario(name)
    net, devices = build_scenario_system(scenario)
    system = assemble(net, devices, solve_power_flow(net))
    report = run_scenario(scenario)
    assert report.modes == tuple(analyze_modes(linearize(system)))
    assert report.dominant
    assert all(m in report.modes for m in report.dominant)


def test_wind_report_adds_a_converter_class(report_b):
    by_class = {m.classification: m for m in report_b.dominant}
    assert "converter_control" in by_class
    assert by_class["converter_control"].ccbg_pi > 0.5
    assert report_b.n_states == 56        # four machines plus the farm


def test_zero_gain_support_matches_disabled_support():
    on = run_scenario(parse_scenario({"base_case": "B",
                                      "frequency_support": True,
                                      "droop": {"kp": 0.0, "kin": 0.0}}))
    off = run_scenario(Scenario(base_case="B"))
    assert len(on.modes) == len(off.modes)
    for m_on, m_off in zip(on.modes, off.modes):
        assert m_on.classification == m_off.classification
        assert m_on.real == pytest.approx(m_off.real, abs=1e-9)
        assert m_on.imag == pytest.approx(m_off.imag, abs=1e-9)


@pytest.mark.parametrize("name", ["a/b", "../escaped", "a\\b", "a\0b"],
                         ids=["slash", "parent", "backslash", "nul"])
def test_a_name_that_cannot_be_a_file_stem_is_rejected(name):
    # the name is the stem of the report, sweep and trace files
    with pytest.raises(ScenarioError, match=r"^name: .* has '/', '\\' or NUL$"):
        Scenario(base_case="A", name=name)
    with pytest.raises(ScenarioError, match="^name: "):
        parse_scenario({"base_case": "A", "name": name})


def test_pipeline_failures_carry_their_stage():
    bad = Scenario(base_case="B", overrides=(Override("G9", "h_s", 7.0),))
    with pytest.raises(PipelineError, match=r"\[build\]") as err:
        run_scenario(bad)
    assert err.value.stage == "build"
    assert err.value.trace is None
    with pytest.raises(PipelineError, match="no wind farm to sweep|sweep"):
        run_sensitivity_sweep(Scenario(base_case="A"))


def test_overrides_patch_device_parameters():
    sc = Scenario(base_case="B", overrides=(Override("G1", "h_s", 7.0),))
    net, devices = build_scenario_system(sc)
    g1 = next(d for d in devices if d.device_id == "G1")
    assert g1.params.h_s == 7.0
    with pytest.raises(ScenarioError, match="not in scenario"):
        build_scenario_system(dataclasses.replace(
            sc, overrides=(Override("G9", "h_s", 7.0),), sha256=""))
    with pytest.raises(ScenarioError, match="not a parameter"):
        build_scenario_system(dataclasses.replace(
            sc, overrides=(Override("G1", "inertia", 7.0),), sha256=""))

    # each override reaches rhs, through the coefficients that a device
    # computes once from its parameters: at one perturbed state, the row
    # that reads the coefficient moves, with the network solution the same
    def system(overrides):
        net, devices = build_scenario_system(dataclasses.replace(
            sc, overrides=overrides, sha256=""))
        return assemble(net, devices, solve_power_flow(net, tol=1e-12))

    ref = system(())
    names = [str(lab) for lab in ref.state_labels()]
    x = ref.equilibrium() + 0.02 * np.random.default_rng(5).standard_normal(
        ref.n_states)
    for device, field, value, row in [
            ("G1", "t1", 0.08, "G1.pss_lead2"),
            ("G1", "xd_t", 0.35, "G1.eq_t"),
            ("W1", "p_ctrl_omega", 12.0, "W1.p_cmd_rate"),
            ("W1", "freq_filter_time", 0.04, "W1.angle_filt")]:
        model = system((Override(device, field, value),))
        assert np.array_equal(model.solve_network(x), ref.solve_network(x))
        k = names.index(row)
        assert model.rhs(x)[k] != ref.rhs(x)[k], (device, field)


@pytest.mark.parametrize("device, name", [
    ("W1", "droop"), ("W1", "control_mode"),
])
def test_override_of_a_parameter_that_is_not_a_number_fails_at_build(
        device, name):
    # a number set there would fail later as an attribute error, or switch
    # a flag by its truth value
    bad = Scenario(base_case="B", overrides=(Override(device, name, 0.0),))
    with pytest.raises(PipelineError, match=rf"^\[build\] override field "
                       rf"'{name}' of {device} is not a number"):
        run_scenario(bad)


def test_override_of_the_tracking_curve_fails_at_build():
    # the curve is a set of module constants, not a parameter of the farm
    bad = Scenario(base_case="B", overrides=(Override("W1", "mppt", 0.0),))
    with pytest.raises(PipelineError, match=r"^\[build\] override field "
                       r"'mppt' is not a parameter of W1$"):
        run_scenario(bad)


@pytest.mark.parametrize("name", ["r_droop", "has_governor"])
def test_override_of_a_governor_field_fails_at_build(name):
    # the machines have no governor, so its gain and switch are gone; an
    # override of either names no parameter rather than doing nothing
    bad = Scenario(base_case="A", overrides=(Override("G1", name, 0.05),))
    with pytest.raises(PipelineError, match=rf"^\[build\] override field "
                       rf"'{name}' is not a parameter of G1$"):
        run_scenario(bad)


def test_an_exciter_limit_below_the_field_voltage_fails_at_assembly():
    # the override builds; the machine's initialization then finds its
    # field voltage at the operating point outside [efd_min, efd_max]
    bad = Scenario(base_case="A", overrides=(Override("G1", "efd_max", 1.0),))
    with pytest.raises(PipelineError, match=r"^\[assemble\] G1: field "
                       r"voltage 1\.693 pu at the operating point violates "
                       "the exciter limits$"):
        run_scenario(bad)


@pytest.mark.parametrize("case, device, name, value", [
    ("A", "G1", "h_s", math.nan),
    ("A", "G1", "h_s", math.inf),
    ("B", "W1", "h_turbine", math.nan),
])
def test_nonfinite_override_fails_at_build_naming_the_field(case, device,
                                                            name, value):
    bad = Scenario(base_case=case, overrides=(Override(device, name, value),))
    with pytest.raises(PipelineError, match=rf"\[build\] {name} must be "
                       "positive and finite") as err:
        run_scenario(bad)
    assert err.value.stage == "build"


@pytest.mark.parametrize("case, device, name, value", [
    ("B", "W1", "i_pmax", math.nan),
    ("B", "W1", "i_qmax", math.nan),
    ("B", "W1", "kv_i", math.nan),
    ("A", "G1", "ka", math.nan),
    ("A", "G1", "k_pss", math.nan),
    ("A", "G1", "d_pu", math.nan),
    ("A", "G1", "xd", math.inf),
])
def test_nonfinite_limit_or_gain_fails_at_build_naming_the_field(
        case, device, name, value):
    bad = Scenario(base_case=case, overrides=(Override(device, name, value),))
    domain = {"i_pmax": "positive and finite", "i_qmax": "positive and finite",
              "ka": "positive and finite", "xd": "finite with xd > xd_t = 0.3",
              }.get(name, "finite and nonnegative")
    message = re.escape(f"[build] {name} must be {domain}, got {value!r}")
    with pytest.raises(PipelineError, match=f"^{message}$") as err:
        run_scenario(bad)
    assert err.value.stage == "build"


@pytest.mark.parametrize("case, name, value", [
    ("B", "k_pss", -2.0), ("A", "k_pss", -1e-12), ("A", "ka", 0.0),
    ("B", "ka", -200.0),
])
def test_a_negative_stabilizer_gain_or_no_exciter_gain_fails_at_build(
        case, name, value):
    # a negative k_pss used to build and report; ka = 0 failed only at
    # assembly, as a NaN derivative of G1.efd after a division warning
    bad = Scenario(base_case=case, overrides=(Override("G1", name, value),))
    domain = "positive and finite" if name == "ka" else \
        "finite and nonnegative"
    message = "^" + re.escape(f"[build] {name} must be {domain}, "
                              f"got {value!r}") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PipelineError, match=message) as err:
            run_scenario(bad)
    assert err.value.stage == "build"


def test_the_gain_checks_leave_the_packaged_reports_unchanged():
    # every machine's ka and k_pss set, through overrides and so through
    # the checks, to the values it has: each report is the same text
    for name in packaged_scenario_names():
        scen = load_packaged_scenario(name)
        _, devices = build_scenario_system(scen)
        same = tuple(Override(d.device_id, f, getattr(d.params, f))
                     for d in devices if d.device_class == "synchronous"
                     for f in ("ka", "k_pss"))
        patched = dataclasses.replace(scen, overrides=scen.overrides + same,
                                      sha256=scen.sha256)
        assert report_to_text(run_scenario(patched)) == \
            report_to_text(run_scenario(scen))
    # zero is a stabilizer gain: the machine runs without its stabilizer
    assert run_scenario(Scenario(base_case="A", overrides=(
        Override("G1", "k_pss", 0.0),))).dominant


def test_simulate_scenario_runs_the_packaged_fault(report_a):
    tr = simulate_scenario(load_packaged_scenario("A"), t_end=1.2)
    v8 = tr.voltage_magnitude(8)
    k_pre = int((abs(tr.time - 0.5)).argmin())
    k_mid = int((abs(tr.time - 1.05)).argmin())
    assert v8[k_mid] < 0.7 * v8[k_pre]


def test_a_failed_simulation_keeps_its_partial_trace():
    # case C's farm is a constant-magnitude current source: a bolted fault
    # at bus 9 leaves the network no solution at 0.5 s, after 501 samples
    fault = Event("three_phase_fault", 0.5, bus=9, duration=cycles(6))
    scenario = dataclasses.replace(load_packaged_scenario("C_voltage"),
                                   events=(fault,), sha256="")
    with pytest.raises(PipelineError, match=r"^\[simulate\] network "
                       "solution failed at t=0.500000s") as err:
        simulate_scenario(scenario, t_end=1.0)
    assert err.value.stage == "simulate"
    assert err.value.trace is err.value.__cause__.trace
    assert err.value.trace.time.size == 501
    assert err.value.trace.time[-1] == pytest.approx(0.5)


# -- report serialization --------------------------------------------------------------


def test_report_text_round_trip(report_a, report_b):
    for rep in (report_a, report_b):
        assert parse_report(report_to_text(rep)) == rep


def test_report_csv_shape(report_b):
    lines = report_to_csv(report_b).strip().split("\n")
    header = lines[0].split(",")
    assert header == ["classification", "re", "im", "damping",
                      "frequency_hz", "ccbg_pi", "dominant"]
    assert len(lines) == 1 + len(report_b.modes)
    flags = [int(l.split(",")[-1]) for l in lines[1:]]
    assert sum(flags) == len(report_b.dominant)


def test_export_report_writes_stable_bytes(tmp_path, report_a):
    p1 = export_report(report_a, "csv", tmp_path)
    p2 = export_report(report_a, "structured_text", tmp_path)
    assert p1.name == "report_A.csv" and p2.name == "report_A.json"
    first = (p1.read_bytes(), p2.read_bytes())
    assert first == (report_to_csv(report_a).encode("utf-8"),
                     report_to_text(report_a).encode("utf-8"))
    export_report(report_a, "csv", tmp_path)
    export_report(report_a, "structured_text", tmp_path)
    assert (p1.read_bytes(), p2.read_bytes()) == first
    assert parse_report(p2.read_text()) == report_a
    with pytest.raises(ValueError, match="format"):
        export_report(report_a, "parquet", tmp_path)
    with pytest.raises(TypeError):
        export_report(3.14, "csv", tmp_path)


# -- gain sweeps ------------------------------------------------------------------------


def test_sweep_grid_ordering_and_affine_equivalence():
    # the sweep builds every cell from A00 and the farm's gain rows, out of
    # two linearizations; each cell must match a full run_scenario at its
    # gains
    assert len(DEFAULT_GAIN_GRID) == 6
    kp_values, kin_values = (0.0, 10.0, 35.0), (0.0, 20.0, 50.0)
    for name in ("B_voltage", "C_reactive_power"):
        scenario = load_packaged_scenario(name)
        sweep = run_sensitivity_sweep(scenario, kp_values=kp_values,
                                      kin_values=kin_values)
        assert [(c.kp, c.kin) for c in sweep.cells] == [
            (kp, kin) for kin in kin_values for kp in kp_values]
        for cell in sweep.cells:
            assert not cell.error and cell.dominant
            direct = run_scenario(_with_gains(scenario, cell.kp, cell.kin))
            assert [m.classification for m in cell.dominant] == \
                [m.classification for m in direct.dominant]
            for got, want in zip(cell.dominant, direct.dominant):
                for f in ("real", "imag", "damping", "frequency_hz",
                          "ccbg_pi"):
                    assert abs(getattr(got, f) - getattr(want, f)) <= 1e-9, \
                        (name, cell.kp, cell.kin, f)


@pytest.mark.parametrize("name", ["B_voltage", "B_reactive_power",
                                  "C_voltage", "C_reactive_power"])
def test_sweep_cells_are_the_dominant_rows_of_a_full_workup(name):
    # the sweep picks every cell's rows in one array pass over all cells;
    # they must be, bit for bit, the rows a full workup of the cell's
    # affine matrix picks
    scenario = load_packaged_scenario(name)
    sweep = run_sensitivity_sweep(scenario)
    k_star = max(DEFAULT_GAIN_GRID)
    *model, labels = _affine_gain_model(scenario, k_star, k_star)
    assert len(sweep.cells) == 36
    for cell in sweep.cells:
        a = StateMatrix(cell_matrix(*model, cell.kp, cell.kin), labels)
        assert not cell.error
        assert cell.dominant == _dominant_rows(analyze_modes(a)), \
            (cell.kp, cell.kin)


def _difference_quotients(scenario, k_star):
    """``A00, G_p, G_i`` as the sweep formed them before the farm declared
    its gain rows: difference quotients of direct linearizations at K*,
    all on the power flow of the zero-gain build."""
    net, _ = build_scenario_system(_with_gains(scenario, 0.0, 0.0))
    pf = solve_power_flow(net)

    def a_at(kp, kin):
        net, devices = build_scenario_system(_with_gains(scenario, kp, kin))
        return linearize(assemble(net, devices, pf)).a

    a00 = a_at(0.0, 0.0)
    return (a00, (a_at(k_star, 0.0) - a00) / k_star,
            (a_at(0.0, k_star) - a00) / k_star)


@pytest.mark.parametrize("name", ["B_voltage", "B_reactive_power",
                                  "C_voltage", "C_reactive_power"])
def test_declared_gain_rows_match_difference_quotients(name):
    # the quotients are nonzero in the droop row alone, and the declared
    # rows match them to 2.0e-16 of max|G| (measured); the default sweep's
    # dominant rows match cells built from the quotients
    scenario = load_packaged_scenario(name)
    k_star = max(DEFAULT_GAIN_GRID)
    a00, r, g_p, g_i, labels = _affine_gain_model(scenario, k_star, k_star)
    ref_a00, ref_p, ref_i = _difference_quotients(scenario, k_star)
    assert np.array_equal(a00, ref_a00)
    assert str(labels[r]) == "W1.droop_rate"
    for got, want in ((g_p, ref_p), (g_i, ref_i)):
        assert np.flatnonzero(want.any(axis=1)).tolist() == [r]
        assert np.max(np.abs(got - want[r])) <= 1e-12 * np.max(np.abs(want))
    for cell in run_sensitivity_sweep(scenario).cells:
        old = StateMatrix(ref_a00 + cell.kp * ref_p + cell.kin * ref_i,
                          labels)
        want = _dominant_rows(analyze_modes(old))
        assert [m.classification for m in cell.dominant] == \
            [m.classification for m in want]
        for got, ref in zip(cell.dominant, want):
            for f in ("real", "imag", "damping", "frequency_hz", "ccbg_pi"):
                assert abs(getattr(got, f) - getattr(ref, f)) <= 1e-9, \
                    (cell.kp, cell.kin, f)


def _counted(monkeypatch, name):
    """Calls of ``windmodal.scenario.<name>``, counted from here on."""
    real = getattr(windmodal.scenario, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(windmodal.scenario, name, counting)
    return calls


@pytest.mark.parametrize("kp_values, kin_values", [
    (None, None), ((0.0, 20.0), (0.0,))])
def test_a_sweep_solves_one_power_flow_and_linearizes_twice(
        scenario_b, monkeypatch, kp_values, kin_values):
    # A00, whose rows give the gain rows, and the check point
    power_flows = _counted(monkeypatch, "solve_power_flow")
    linearizations = _counted(monkeypatch, "linearize")
    sweep = run_sensitivity_sweep(scenario_b, kp_values, kin_values)
    assert not any(c.error for c in sweep.cells)
    assert (len(power_flows), len(linearizations)) == (1, 2)


def test_sweep_rejects_a_model_that_is_not_affine_in_the_gains(
        scenario_b, monkeypatch):
    # a support law quadratic in kp: the basis points cannot see it, the
    # check point (kp*/2, kin*/2) must
    def quadratic(delta_f, rocof, droop):
        return -droop.kp ** 2 * delta_f - droop.kin * rocof

    monkeypatch.setattr(windmodal.dfig, "frequency_support_reference",
                        quadratic)
    sweep = run_sensitivity_sweep(scenario_b, kp_values=(0.0, 20.0),
                                  kin_values=(0.0, 10.0))
    assert len(sweep.cells) == 4
    for cell in sweep.cells:
        assert not cell.dominant
        assert cell.error.startswith("[linearize] state matrix is not affine")
        assert "relative residual" in cell.error and "1e-09" in cell.error


def test_sweep_affinity_guard_fires_on_a_nan_residual(scenario_b,
                                                      monkeypatch):
    # poison the check-point linearization, the second of the two
    real = windmodal.scenario.linearize
    calls = []

    def poisoned(system):
        calls.append(1)
        sm = real(system)
        return StateMatrix(sm.a * np.nan, sm.labels) if len(calls) == 2 \
            else sm

    monkeypatch.setattr(windmodal.scenario, "linearize", poisoned)
    sweep = run_sensitivity_sweep(scenario_b, kp_values=(0.0, 20.0),
                                  kin_values=(0.0,))
    assert len(calls) == 2
    for cell in sweep.cells:
        assert not cell.dominant
        assert cell.error.startswith("[linearize] state matrix is not affine")
        assert "relative residual nan" in cell.error


def test_sweep_cell_with_invalid_gains_fails_alone(scenario_b):
    sweep = run_sensitivity_sweep(scenario_b, kp_values=(-5.0, 10.0),
                                  kin_values=(0.0,))
    bad, good = sweep.cells
    assert "nonnegative" in bad.error and not bad.dominant
    assert not good.error and good.dominant


@pytest.mark.parametrize("bad_kp", [math.nan, math.inf])
def test_sweep_cell_with_a_non_finite_gain_fails_alone(scenario_b, bad_kp):
    # the bad value must neither reach the modal stage nor become K*
    sweep = run_sensitivity_sweep(scenario_b, kp_values=(bad_kp, 10.0),
                                  kin_values=(0.0,))
    bad, good = sweep.cells
    assert bad.error == f"kp must be finite and nonnegative, got {bad_kp!r}"
    assert not bad.dominant
    assert not good.error and good.dominant


def test_sweep_records_failed_cells_and_continues(scenario_b):
    bad = dataclasses.replace(scenario_b,
                              overrides=(Override("G9", "h_s", 7.0),),
                              sha256="")
    sweep = run_sensitivity_sweep(bad, kp_values=(0.0, 10.0),
                                  kin_values=(0.0,))
    assert all(c.error and not c.dominant for c in sweep.cells)
    # the error message itself contains commas (a device list); the CSV
    # writer must keep the column count intact anyway
    assert "," in sweep.cells[0].error
    lines = sweep_to_csv(sweep).strip().split("\n")
    n_cols = len(lines[0].split(","))
    assert all(len(l.split(",")) == n_cols for l in lines[1:])
    assert "G9" in lines[1]


def test_sweep_text_and_csv_round_trip(scenario_b):
    sweep = run_sensitivity_sweep(scenario_b, kp_values=(0.0, 20.0),
                                  kin_values=(0.0,))
    assert parse_sweep(sweep_to_text(sweep)) == sweep
    lines = sweep_to_csv(sweep).strip().split("\n")
    assert len(lines) == 1 + len(sweep.cells)
    assert "inter_area_damping" in lines[0] and lines[0].endswith("error")


def test_sweep_trends_along_each_gain_axis(scenario_b):
    along_kp = run_sensitivity_sweep(scenario_b, kin_values=(0.0,))
    ia = [next(m for m in c.dominant if m.classification == "inter_area")
          for c in along_kp.cells]
    damp = [m.damping for m in ia]
    assert all(b > a for a, b in zip(damp, damp[1:])), damp

    along_kin = run_sensitivity_sweep(scenario_b, kp_values=(0.0,))
    cc = [next(m for m in c.dominant
               if m.classification == "converter_control")
          for c in along_kin.cells]
    imag = [m.imag for m in cc]
    assert all(b > a for a, b in zip(imag, imag[1:])), imag
    assert imag[-1] / imag[0] >= 1.5

    # the local machine modes barely notice the farm's droop gains
    loc = [next(m for m in c.dominant if m.classification == "local").damping
           for c in list(along_kp.cells) + list(along_kin.cells)]
    assert max(loc) - min(loc) < 1e-3
