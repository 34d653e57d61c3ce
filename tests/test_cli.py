"""End-to-end checks of the command-line front end.

Each test drives ``main`` with real argv lists and asserts on exit codes,
stdout tables, stderr diagnostics, and the files left in the output
directory.
"""

import argparse
import json

import pytest

import windmodal
from windmodal import __version__, cli
from windmodal.cli import OUTPUT_DIR_ENV, _gain_values, main
from windmodal.powerflow import PowerFlowError


def test_gain_grid_parsing():
    assert _gain_values("0:50:10") == (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    assert _gain_values("7") == (7.0,)
    assert _gain_values("5:5:1") == (5.0,)
    for bad in ("1:0:1", "0:50:-10", "0:50:7", "a", "1:2", "1:2:3:4"):
        with pytest.raises(argparse.ArgumentTypeError):
            _gain_values(bad)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_powerflow_case(capsys):
    assert main(["powerflow", "--case", "A"]) == 0
    out = capsys.readouterr().out
    assert "power flow A:" in out
    assert "slack" in out
    # header plus the summary line plus one row per bus
    rows = [l for l in out.splitlines() if l.strip() and l.split()[0].isdigit()]
    assert len(rows) == 11


def test_a_failed_power_flow_is_tagged_with_its_stage(monkeypatch, capsys):
    def diverge(net):
        raise PowerFlowError("did not converge in 1 iterations")

    monkeypatch.setattr(cli, "solve_power_flow", diverge)
    assert main(["powerflow", "--case", "A"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [powerflow] did not converge in 1")


def test_powerflow_scenario_includes_the_farm_bus(capsys):
    assert main(["powerflow", "--scenario", "B_voltage"]) == 0
    out = capsys.readouterr().out
    assert "power flow B_voltage:" in out
    rows = [l for l in out.splitlines() if l.strip() and l.split()[0].isdigit()]
    assert len(rows) == 12


def test_smib_writes_the_damping_grid(tmp_path, capsys):
    assert main(["smib", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "-0.7143" in out and "zeta range" in out
    grid = tmp_path / "smib_grid.csv"
    assert grid.is_file()
    assert len(grid.read_text().strip().splitlines()) == 1 + 36


def test_smib_grid_lines_end_in_a_bare_newline(tmp_path, capsys):
    assert main(["smib", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "smib_grid.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 1 + 36 and raw.endswith(b"\n")


def test_modal_exports_requested_formats(tmp_path, capsys):
    assert main(["modal", "--scenario", "A", "--format", "csv",
                 "--format", "structured_text", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dominant modes:" in out and "inter_area" in out
    assert (tmp_path / "report_A.csv").is_file()
    assert (tmp_path / "report_A.json").is_file()


def test_modal_defaults_to_csv(tmp_path):
    assert main(["modal", "--scenario", "A", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report_A.csv").is_file()
    assert not (tmp_path / "report_A.json").exists()


def test_simulate_writes_a_trace(tmp_path, capsys):
    assert main(["simulate", "--scenario", "A", "--tend", "1.2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "simulated A:" in out and "1 scripted events" in out
    trace = tmp_path / "trace_A.csv"
    assert trace.is_file()
    header = trace.read_text().splitlines()[0]
    assert header.startswith("time,") and "G1.delta" in header


def test_simulate_rejects_an_infinite_step_bound(tmp_path, capsys):
    assert main(["simulate", "--scenario", "A", "--dt-max", "inf",
                 "--out", str(tmp_path)]) == 1
    assert "error: [simulate]" in capsys.readouterr().err
    assert not (tmp_path / "trace_A.csv").exists()


def _c_bus9_study(tmp_path):
    # case C's farm is a constant-magnitude current source: a bolted fault
    # at bus 9 leaves the network no solution at 0.5 s, after 501 samples
    study = tmp_path / "c_bus9.json"
    study.write_text(json.dumps({
        "base_case": "C", "name": "c_bus9", "events": [
            {"kind": "three_phase_fault", "t_start": 0.5, "bus": 9,
             "duration_cycles": 6}]}))
    return study


def test_a_failed_simulation_writes_its_partial_trace(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(_c_bus9_study(tmp_path)),
                 "--tend", "1", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [simulate] network solution "
                                   "failed at t=0.500000s")
    trace = tmp_path / "out" / "trace_c_bus9.csv"
    assert f"wrote a partial trace, 501 samples to t=0.500s: {trace}" \
        in captured.out
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("time,") and len(lines) == 1 + 501
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.5)


def test_an_unwritable_partial_trace_keeps_the_simulate_error(tmp_path,
                                                               capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["simulate", "--scenario", str(_c_bus9_study(tmp_path)),
                 "--tend", "1", "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    note, error = captured.err.splitlines()
    assert note.startswith("note: could not write the partial trace:")
    assert error.startswith("error: [simulate] network solution failed")
    assert "partial trace" not in captured.out
    assert taken.read_text() == "a file, not a directory"


def test_sweep_command(tmp_path, capsys):
    assert main(["sweep", "--scenario", "B_voltage", "--kp", "0:10:10",
                 "--kin", "0", "--out",
                 str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 cells (2 kp x 1 kin), 0 failed" in out
    sweep = tmp_path / "sweep_B_voltage.csv"
    assert sweep.is_file()
    assert len(sweep.read_text().strip().splitlines()) == 1 + 2


def test_sweep_exits_1_when_the_gain_model_is_not_affine(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(
        windmodal.dfig, "frequency_support_reference",
        lambda p_opt, delta_f, rocof, droop:
            p_opt - droop.kp ** 2 * delta_f - droop.kin * rocof)
    assert main(["sweep", "--scenario", "B_voltage", "--kp", "0:10:10",
                 "--kin", "0", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "2 cells (2 kp x 1 kin), 2 failed" in captured.out
    assert "[linearize] state matrix is not affine" in captured.err


def test_output_dir_env_var_and_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["smib"]) == 0
    assert (env_dir / "smib_grid.csv").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["smib", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "smib_grid.csv").is_file()


def test_unknown_scenario_exits_nonzero_with_stage(capsys):
    assert main(["modal", "--scenario", "Z_missing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [load]")
    assert "Z_missing" in err


def test_a_number_too_large_for_a_float_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"base_case": "B", "k_pss": 1' + "0" * 400 + "}")
    assert main(["modal", "--scenario", str(path), "--out",
                 str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [load] k_pss: too large for a float")


@pytest.mark.parametrize("argv", [
    ["modal", "--scenario", "A"],
    ["report", "--scenario", "A"],
    ["sweep", "--scenario", "B_voltage", "--kp", "0", "--kin", "0"],
    ["simulate", "--scenario", "A", "--tend", "0.1"],
    ["smib"],
], ids=lambda argv: argv[0])
def test_an_unwritable_output_is_an_export_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")           # --out names a file, not a directory
    assert main([*argv, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: [export] ")


def test_powerflow_tags_a_bad_override_with_its_stage(tmp_path, capsys):
    path = tmp_path / "stray.json"
    path.write_text('{"base_case": "B", "overrides": '
                    '[{"device": "G9", "field": "h_s", "value": 5.0}]}')
    assert main(["powerflow", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [build] override device 'G9' not in scenario")


def test_report_names_the_study_whose_build_fails(tmp_path, capsys):
    # report tags a failed study with its name and goes on; it writes no
    # report for it and exits 1
    path = tmp_path / "stray.json"
    path.write_text('{"base_case": "B", "overrides": '
                    '[{"device": "G9", "field": "h_s", "value": 5.0}]}')
    out = tmp_path / "out"
    assert main(["report", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{path}: [build] override device 'G9' not in scenario")
    assert not list(out.glob("report_*"))


@pytest.mark.parametrize("name", ["../escaped", "a\\b", "a\0b"],
                         ids=["slash", "backslash", "nul"])
def test_a_name_that_cannot_be_a_file_stem_fails_at_load(tmp_path, capsys,
                                                         name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"base_case": "A", "name": name}))
    out = tmp_path / "out"
    assert main(["report", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [load] name: ")
    assert not out.exists()


def test_powerflow_names_events_that_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "events.json"
    path.write_text('{"base_case": "B", "events": 5}')
    assert main(["powerflow", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [load] events: must be a list")


def test_invalid_gain_spec_is_a_usage_error(capsys):
    for spec in ("5:1:1", "0:inf:10"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "B_voltage", "--kp", spec])
        assert exc.value.code == 2
        assert "start:stop:step" in capsys.readouterr().err


def test_report_all_canned_studies(tmp_path, capsys):
    assert main(["report", "--all-paper-cases", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in ("A", "B_voltage_support", "C_reactive_power_support"):
        assert name in out
    assert "ia zeta" in out and "wrote 9 report files" in out
    assert len(list(tmp_path.glob("report_*.csv"))) == 9


def test_report_single_scenario(tmp_path, capsys):
    assert main(["report", "--scenario", "C_voltage",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report_C_voltage.csv").is_file()
    assert "C_voltage" in capsys.readouterr().out


def test_scenario_file_path_accepted(tmp_path):
    path = tmp_path / "custom_study.json"
    path.write_text(json.dumps({"base_case": "B",
                                "control_mode": "reactive_power"}))
    assert main(["modal", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report_custom_study.csv").is_file()
