"""Structured-text and file export: the direct writer against ``json``.

``report_to_text`` writes the indented text in one walk over the record's
fields.  Every test here holds it to the text that ``json.dumps`` of
``dataclasses.asdict`` with sorted keys and a 2-space indent gives, byte for
byte: the nine packaged reports, the four default sweeps, sweeps whose
gains are NaN, infinite, negative, an ``int`` or ``np.float64``, and
generated mode rows and sweep cells whose numbers and error strings are the
hard cases of the JSON grammar.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windmodal.modal import Mode
from windmodal.scenario import (Override, SweepCell, SweepResult,
                                export_report, load_packaged_scenario,
                                packaged_scenario_names, parse_sweep,
                                report_to_text, run_scenario,
                                run_sensitivity_sweep, sweep_to_csv,
                                sweep_to_text)

PROPERTY = settings(max_examples=200, derandomize=True, database=None,
                    deadline=None)

DEFAULT_SWEEPS = ("B_voltage", "B_reactive_power", "C_voltage",
                  "C_reactive_power")


def reference_text(obj) -> str:
    return json.dumps(dataclasses.asdict(obj), sort_keys=True, indent=2) \
        + "\n"


@pytest.mark.parametrize("name", sorted(packaged_scenario_names()))
def test_report_text_is_the_json_encoding(name):
    report = run_scenario(load_packaged_scenario(name))
    assert report_to_text(report) == reference_text(report)


@pytest.mark.parametrize("name", DEFAULT_SWEEPS)
def test_default_sweep_text_is_the_json_encoding(name):
    sweep = run_sensitivity_sweep(load_packaged_scenario(name))
    assert len(sweep.cells) == 36
    assert sweep_to_text(sweep) == reference_text(sweep)


def test_sweep_text_with_invalid_and_integer_gains_is_the_json_encoding():
    sweep = run_sensitivity_sweep(
        load_packaged_scenario("B_voltage"),
        kp_values=(0.0, math.nan, math.inf, -1.0, 10), kin_values=(0.0,))
    assert type(sweep.kp_values[-1]) is int
    assert [bool(c.error) for c in sweep.cells] == [False, True, True, True,
                                                   False]
    text = sweep_to_text(sweep)
    assert text == reference_text(sweep)
    assert "NaN" in text and "Infinity" in text


def test_sweep_text_with_numpy_gains_is_the_json_encoding():
    sweep = run_sensitivity_sweep(load_packaged_scenario("B_voltage"),
                                  kp_values=np.linspace(0.0, 30.0, 4),
                                  kin_values=np.linspace(0.0, 10.0, 3))
    assert type(sweep.kp_values[1]) is np.float64
    assert sweep_to_text(sweep) == reference_text(sweep)


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Scalars:
    """Every scalar and container kind the writer knows."""

    zeta: float
    flag: bool
    count: int
    nothing: None
    empty: tuple
    none_yet: Empty
    names: list


def test_writer_covers_every_scalar_and_empty_container():
    obj = Scalars(zeta=np.float64(-0.0), flag=True, count=-3, nothing=None,
                  empty=(), none_yet=Empty(),
                  names=[False, 2 ** 70, "é\"\\\n", (), [1.5]])
    assert report_to_text(obj) == reference_text(obj)
    assert report_to_text(Empty()) == "{}\n" == reference_text(Empty())


def test_writer_rejects_what_is_no_record():
    with pytest.raises(TypeError):
        report_to_text(3.14)
    with pytest.raises(TypeError):
        report_to_text(Scalars(0.0, False, 0, None, (), Empty(),
                               [np.int64(1)]))


# numbers: every float hypothesis draws (NaN, infinities, subnormals,
# signed zeros), plus the extremes by name, and np.float64 of any of them
HARD_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348623157e308, math.inf, -math.inf,
               math.nan, 0.1, 1e16, 1e-7)
NUMBERS = (st.floats() | st.sampled_from(HARD_FLOATS)).flatmap(
    lambda x: st.sampled_from((x, np.float64(x))))
# text: quotes, backslashes, control characters and non-ASCII, mixed with
# anything hypothesis draws
HARD_TEXT = st.text(st.sampled_from('"\\\n\t\r\x00\x1f\x7f/é€𝄞  ,'))
TEXT = st.text() | HARD_TEXT | st.lists(HARD_TEXT | st.text()).map("".join)

modes = st.builds(Mode, classification=TEXT, real=NUMBERS, imag=NUMBERS,
                  damping=NUMBERS, frequency_hz=NUMBERS, ccbg_pi=NUMBERS)
cells = st.builds(SweepCell, kp=NUMBERS, kin=NUMBERS,
                  dominant=st.lists(modes, max_size=3).map(tuple),
                  error=TEXT)
sweeps = st.builds(SweepResult, scenario_name=TEXT,
                   kp_values=st.lists(NUMBERS, max_size=3).map(tuple),
                   kin_values=st.lists(NUMBERS, max_size=3).map(tuple),
                   cells=st.lists(cells, max_size=3).map(tuple),
                   scenario_sha256=TEXT, version=TEXT)


@PROPERTY
@given(modes)
def test_mode_text_is_the_json_encoding(mode):
    assert report_to_text(mode) == reference_text(mode)


@PROPERTY
@given(sweeps)
def test_generated_sweep_text_is_the_json_encoding(sweep):
    text = sweep_to_text(sweep)
    assert text == reference_text(sweep)
    assert text.isascii()


# -- files -------------------------------------------------------------------


def misnamed_device_sweep():
    """A one-cell sweep whose error names a device that is not there,
    non-ASCII and all."""
    scenario = dataclasses.replace(
        load_packaged_scenario("B_voltage"),
        overrides=(Override("G\u00e9", "h_s", 5.0),), sha256="")
    return run_sensitivity_sweep(scenario, kp_values=(0.0,),
                                 kin_values=(0.0,))


def test_export_writes_the_utf8_render_with_unix_line_ends(tmp_path):
    sweep = misnamed_device_sweep()
    assert "[build] override device 'Gé' not in scenario" \
        in sweep.cells[0].error
    for fmt, render in (("csv", sweep_to_csv),
                        ("structured_text", sweep_to_text)):
        path = export_report(sweep, fmt, tmp_path)
        assert path.read_bytes() == render(sweep).encode("utf-8"), fmt
    raw = (tmp_path / "sweep_B_voltage.csv").read_bytes()
    assert "Gé".encode("utf-8") in raw and b"\r" not in raw
    assert parse_sweep((tmp_path / "sweep_B_voltage.json").read_text(
        encoding="ascii")) == sweep


def test_export_bytes_do_not_depend_on_the_locale(tmp_path):
    # under the C locale with no UTF-8 mode, text files default to ASCII
    child = ("import sys\n"
             "from test_export import misnamed_device_sweep\n"
             "from windmodal.scenario import export_report\n"
             "export_report(misnamed_device_sweep(), 'csv', sys.argv[1])\n")
    env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                   cwd=os.path.dirname(__file__), check=True, timeout=120)
    assert (tmp_path / "sweep_B_voltage.csv").read_bytes() \
        == sweep_to_csv(misnamed_device_sweep()).encode("utf-8")
