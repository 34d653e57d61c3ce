"""Command-line front end.

Subcommands mirror the library pipeline: ``powerflow`` solves one operating
point, ``smib`` maps the closed-form single-machine damping grid, ``modal``
reports eigenstructure for a scenario, ``simulate`` runs its disturbance
script, ``sweep`` scans droop gains, and ``report`` batches the canned
studies.  Output files land in --out, falling back to the
WINDMODAL_OUTPUT_DIR environment variable and then the working directory.
All failures exit nonzero with a stage-tagged message on stderr; an output
that cannot be written is tagged ``[export]``.  A ``simulate`` run that
fails part way still writes the samples up to the failure as its trace.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import scenario as sc
from .powerflow import solve_power_flow
from .smib import (SmibParams, smib_eigenvalues, smib_sensitivity_grid,
                   write_grid_csv)
from .twoarea import CASES, two_area_network

OUTPUT_DIR_ENV = "WINDMODAL_OUTPUT_DIR"


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path(".")


def _gain_values(text: str) -> tuple[float, ...]:
    """Parse a gain grid: 'start:stop:step' (inclusive) or one number."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            if not (math.isfinite(start) and math.isfinite(stop)
                    and 0 < step < math.inf and start <= stop):
                raise ValueError
            n = int(round((stop - start) / step))
            values = tuple(start + i * step for i in range(n + 1))
            if abs(values[-1] - stop) > 1e-9:
                raise ValueError
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 'start:stop:step' or a single number, got {text!r}")


def _load(ref: str) -> sc.Scenario:
    try:
        return sc.resolve_scenario(ref)
    except sc.ScenarioError as exc:
        raise sc.PipelineError("load", str(exc)) from exc


def _mode_table(rows) -> str:
    head = (f"{'class':18s} {'eigenvalue':>22s} {'zeta':>8s} "
            f"{'f_hz':>7s} {'ccbg':>6s}")
    lines = [head, "-" * len(head)]
    for m in rows:
        eig = f"{m.real:+.4f} {'+' if m.imag >= 0 else '-'} j{abs(m.imag):.4f}"
        lines.append(f"{m.classification:18s} {eig:>22s} {m.damping:8.4f} "
                     f"{m.frequency_hz:7.3f} {m.ccbg_pi:6.3f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# subcommands


def cmd_powerflow(args) -> int:
    if args.scenario:
        scen = _load(args.scenario)
        net, _ = sc._stage("build", sc.build_scenario_system, scen)
        label = scen.name or scen.base_case
    else:
        net = two_area_network(args.case)
        label = args.case
    pf = sc._stage("powerflow", solve_power_flow, net)
    print(f"power flow {label}: {pf.iterations} iterations, "
          f"max mismatch {pf.mismatch:.3e} pu")
    print(f"{'bus':>4s} {'kind':>6s} {'|V| pu':>8s} {'angle deg':>10s} "
          f"{'P_gen MW':>10s} {'Q_gen MVAr':>11s}")
    for i, bus in enumerate(net.buses):
        print(f"{bus.id:4d} {bus.kind:>6s} {abs(pf.v[i]):8.4f} "
              f"{np.degrees(np.angle(pf.v[i])):10.3f} "
              f"{pf.p_gen[i] * net.base_mva:10.1f} "
              f"{pf.q_gen[i] * net.base_mva:11.1f}")
    return 0


def cmd_smib(args) -> int:
    params = SmibParams()
    lam, _ = smib_eigenvalues(params)
    from .modal import damping_ratio
    print(f"baseline (kp=kin=0): lambda = {lam[0].real:.4f} "
          f"{'+' if lam[0].imag >= 0 else '-'} j{abs(lam[0].imag):.4f}, "
          f"zeta = {damping_ratio(lam[0]):.4f}")
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    points = smib_sensitivity_grid(params)
    path = write_grid_csv(points, out / "smib_grid.csv")
    zmin = min(points, key=lambda p: p.damping)
    zmax = max(points, key=lambda p: p.damping)
    print(f"grid of {len(points)} points written to {path}")
    print(f"zeta range: {zmin.damping:.4f} at (kp={zmin.kp:.0f}, "
          f"kin={zmin.kin:.0f}) .. {zmax.damping:.4f} at "
          f"(kp={zmax.kp:.0f}, kin={zmax.kin:.0f})")
    return 0


def cmd_modal(args) -> int:
    scen = _load(args.scenario)
    report = sc.run_scenario(scen)
    print(f"scenario {report.scenario_name} (case {report.base_case}, "
          f"{report.n_states} states)")
    pfs = report.power_flow
    print(f"power flow: slack bus {pfs.slack_bus} at {pfs.slack_p_mw:.1f} MW, "
          f"{pfs.iterations} iterations, mismatch {pfs.max_mismatch:.2e}")
    print("dominant modes:")
    print(_mode_table(report.dominant))
    out = _out_dir(args)
    for fmt in args.formats:
        print(f"wrote {sc.export_report(report, fmt, out)}")
    return 0


def cmd_simulate(args) -> int:
    scen = _load(args.scenario)
    out = _out_dir(args)
    path = out / f"trace_{scen.name or scen.base_case}.csv"
    try:
        trace = sc.simulate_scenario(scen, t_end=args.tend,
                                     dt_max=args.dt_max)
    except sc.PipelineError as exc:
        if exc.trace is not None:       # the samples up to the failure
            try:
                out.mkdir(parents=True, exist_ok=True)
                exc.trace.to_csv(path)
            except OSError as write_exc:
                # the [simulate] failure stays the error reported
                print(f"note: could not write the partial trace: "
                      f"{write_exc}", file=sys.stderr)
            else:
                print(f"wrote a partial trace, {exc.trace.time.size} "
                      f"samples to t={exc.trace.time[-1]:.3f}s: {path}")
        raise
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(path)
    print(f"simulated {scen.name or scen.base_case}: "
          f"{trace.time.size} samples to t={trace.time[-1]:.3f}s, "
          f"{len(scen.events)} scripted events, max power-balance residual "
          f"{trace.max_balance_residual:.2e} pu")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    scen = _load(args.scenario)
    sweep = sc.run_sensitivity_sweep(scen, kp_values=args.kp,
                                     kin_values=args.kin)
    failed = [c for c in sweep.cells if c.error]
    print(f"sweep {sweep.scenario_name}: {len(sweep.cells)} cells "
          f"({len(sweep.kp_values)} kp x {len(sweep.kin_values)} kin), "
          f"{len(failed)} failed")
    for c in failed:
        print(f"  cell kp={c.kp:g} kin={c.kin:g}: {c.error}",
              file=sys.stderr)
    out = _out_dir(args)
    for fmt in args.formats:
        print(f"wrote {sc.export_report(sweep, fmt, out)}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    names = (sc.packaged_scenario_names() if args.all_paper_cases
             else [args.scenario])
    out = _out_dir(args)
    failures = 0
    rows = []
    for name in names:
        scen = _load(name)
        try:
            report = sc.run_scenario(scen)
        except sc.PipelineError as exc:
            failures += 1
            print(f"{name}: {exc}", file=sys.stderr)
            continue
        for fmt in args.formats:
            sc.export_report(report, fmt, out)
        by_class = {m.classification: m for m in report.dominant}
        ia = by_class.get("inter_area")
        cc = by_class.get("converter_control")
        rows.append((report.scenario_name,
                     f"{ia.damping:.4f}" if ia else "-",
                     f"{ia.frequency_hz:.3f}" if ia else "-",
                     f"{cc.damping:.4f}" if cc else "-",
                     f"{cc.ccbg_pi:.3f}" if cc else "-"))
    print(f"{'scenario':28s} {'ia zeta':>8s} {'ia f_hz':>8s} "
          f"{'cc zeta':>8s} {'cc ccbg':>8s}")
    for row in rows:
        print(f"{row[0]:28s} {row[1]:>8s} {row[2]:>8s} {row[3]:>8s} "
              f"{row[4]:>8s}")
    print(f"wrote {len(rows) * len(args.formats)} report files to "
          f"{out.resolve()}")
    return 1 if failures else 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windmodal",
        description="Small-signal and time-domain studies of wind-farm "
                    "frequency support on a two-area benchmark.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output directory (default: "
                       f"${OUTPUT_DIR_ENV} or the working directory)")

    def add_formats(p):
        p.add_argument("--format", dest="formats", action="append",
                       choices=["csv", "structured_text"],
                       help="export format; repeatable (default: csv)")

    p = sub.add_parser("powerflow", help="solve one operating point")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scenario", help="scenario file or packaged name")
    group.add_argument("--case", choices=CASES, default="A",
                       help="benchmark case when no scenario is given")
    add_out(p)
    p.set_defaults(fn=cmd_powerflow)

    p = sub.add_parser("smib", help="closed-form single-machine damping "
                       "grid")
    add_out(p)
    p.set_defaults(fn=cmd_smib)

    p = sub.add_parser("modal", help="modal report for a scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario file or packaged name")
    add_formats(p)
    add_out(p)
    p.set_defaults(fn=cmd_modal)

    p = sub.add_parser("simulate", help="time-domain run of a scenario's "
                       "event script")
    p.add_argument("--scenario", required=True,
                   help="scenario file or packaged name")
    p.add_argument("--tend", type=float, default=25.0,
                   help="end time in seconds (default 25)")
    p.add_argument("--dt-max", type=float, default=1e-3,
                   help="sample spacing of the trace in seconds; the step "
                   "is error-controlled (default 1e-3)")
    add_out(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="droop-gain sensitivity sweep")
    p.add_argument("--scenario", required=True,
                   help="scenario file or packaged name")
    p.add_argument("--kp", type=_gain_values, default=None,
                   help="K_p grid as start:stop:step (default 0:50:10)")
    p.add_argument("--kin", type=_gain_values, default=None,
                   help="K_in grid as start:stop:step (default 0:50:10)")
    add_formats(p)
    add_out(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="batch reports for canned studies")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all-paper-cases", action="store_true",
                       help="run every packaged scenario")
    group.add_argument("--scenario", help="scenario file or packaged name")
    add_formats(p)
    add_out(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "formats") and not args.formats:
        args.formats = ["csv"]
    try:
        return args.fn(args)
    except sc.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: [export] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
