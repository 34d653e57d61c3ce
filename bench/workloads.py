"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload turns ``--seed`` into a deterministic sequence of inputs,
runs one operation per input through the public ``windmodal`` API, and
checks the operation's output.  Inputs are drawn in order from one
``random.Random(seed)``, so input ``i`` is the same in every run with that
seed, whether or not it is traced.

Operations rotate over a fixed list of studies.  ``pass_len`` is the length
of one rotation.  The harness stops only after a complete rotation and
compares each position with its own repeats, because the studies of one
rotation differ in cost.

Tolerances of the output checks:

- ``EIG_TOL``: dominant eigenvalues must match their reference to 1e-4 in
  both real and imaginary part.  That is loose enough for the ~6e-6 shift a
  closed-form network solve is expected to cause, and tight enough to catch
  a wrong mode or a wrong operating point.
- ``BALANCE_TOL``: a simulated trace's power-balance residual stays below
  1e-6 pu; a converged network solve leaves it below 1e-12.
- ``RINGDOWN_SIGMA_TOL`` / ``RINGDOWN_OMEGA_TOL``: the ringdown fit of the
  nonlinear response lies within 20 % (decay) and 10 % (frequency) of the
  inter-area eigenvalue, the limits of acceptance criterion 7.  The fit
  window opens ``RINGDOWN_LAG`` after clearing: the first swings after a
  bolted fault are too large for the linear model (a window that opens
  0.5 s after clearing misses the decay rate by about 30 %).

The fault workloads simulate their study with the exciter's field-voltage
limits moved out of reach (``EFD_LIMIT``).  With the packaged limits, some
seeded faults make ``simulate`` stall just after clearing: the limiter
zeroes ``d_efd`` at a bound, the trapezoidal step then has no solution for
any dt above the floor, and the run raises ``integration stalled``.  Which
faults stall has no pattern: in 2-s runs of case A, 6.55- and 8.7-cycle
faults stall and 6.6- and 8.65-cycle faults do not, and a longer run
changes the step grid and with it the set.  So no range of inputs avoids
the defect.  Without the limits, every fault from 6 to 10 cycles in steps
of 0.05 ran through 2.5-s runs of case A and of ``B_voltage_support``.  The defect
stays visible: each fault run ends with an untimed 2-s run of a known
stalling fault with the packaged limits (``STALL_REPRODUCERS``) and prints
whether it still stalls.  That line never fails the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from windmodal import scenario as sc
from windmodal import timedomain as td
from windmodal.dfig import DroopParams

EIG_TOL = 1e-4
BALANCE_TOL = 1e-6
RINGDOWN_SIGMA_TOL = 0.20
RINGDOWN_OMEGA_TOL = 0.10

INERTIA_SPREAD = 0.10          # modal_batch redraws h_s within +-10 %
GAIN_RANGE = (0.0, 50.0)       # gain_sweep draws K_p and K_in from here
GRID_SIZE = 6
FAULT_BRANCHES = ("L8-9a", "L8-9b")
FAULT_START = 1.0
FAULT_CYCLES = (6.0, 10.0)
RINGDOWN_LAG = 2.0             # fit window opens this long after clearing,
                               # once the large first swings have passed
EFD_LIMIT = 1e3                # |efd| bound of the fault workloads, pu;
                               # faulted runs stay within about 45 pu
# study -> (branch, cycles) of a fault that stalls a run of
# STALL_REPRODUCER_S seconds with the packaged limits
STALL_REPRODUCERS = {"B_voltage_support": ("L8-9a", 5.9),
                     "A": ("L8-9a", 6.55)}
STALL_REPRODUCER_S = 2.0

UNSUPPORTED_WIND_STUDIES = ("B_voltage", "B_reactive_power", "C_voltage",
                            "C_reactive_power")
DIGEST_SWEEP_STUDY = "B_voltage"

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dominant_mismatch(got, want) -> str | None:
    """Compare two dominant-mode tables (ModeSummary or dicts) by class."""
    def table(rows):
        return {_get(r, "classification"): (_get(r, "real"), _get(r, "imag"))
                for r in rows}
    g, w = table(got), table(want)
    if set(g) != set(w):
        return f"dominant classes {sorted(g)} != {sorted(w)}"
    for cls, (re_w, im_w) in w.items():
        re_g, im_g = g[cls]
        if abs(re_g - re_w) > EIG_TOL or abs(im_g - im_w) > EIG_TOL:
            return (f"dominant {cls} mode {re_g:.6f}{im_g:+.6f}j differs "
                    f"from {re_w:.6f}{im_w:+.6f}j by more than {EIG_TOL:g}")
    return None


def _get(row, key):
    return row[key] if isinstance(row, dict) else getattr(row, key)


def with_gains(scenario: sc.Scenario, kp: float, kin: float) -> sc.Scenario:
    """The scenario with frequency support on at the given droop gains."""
    droop = DroopParams(kp=kp, kin=kin,
                        rocof_filter_time=scenario.droop.rocof_filter_time,
                        enabled=True)
    return dataclasses.replace(scenario, frequency_support=True, droop=droop,
                               sha256="")


def fault_event(branch: str, n_cycles: float) -> td.Event:
    return td.Event(kind="three_phase_fault", t_start=FAULT_START,
                    branch=branch, duration=td.cycles(n_cycles))


def trace_problem(trace: td.Trace, t_end: float) -> str | None:
    if abs(trace.time[-1] - t_end) > 1e-9:
        return f"trace ends at t={trace.time[-1]:.6f}s, not {t_end}s"
    if not (np.all(np.isfinite(trace.states))
            and np.all(np.isfinite(trace.voltages))):
        return "trace holds non-finite states or voltages"
    if not trace.max_balance_residual <= BALANCE_TOL:
        return (f"power-balance residual {trace.max_balance_residual:.3e} pu "
                f"exceeds {BALANCE_TOL:g}")
    return None


class Workload:
    """Lazily drawn, seed-determined inputs plus run/check hooks."""

    name = ""
    pass_len = 1       # operations per rotation over the workload's studies
    traced_ops = 1     # fixed operation count of the traced replay
    sim_seconds = 0.0  # simulated seconds per operation; 0 if none

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.reference = load_reference()
        self._inputs: list = []
        self.digests: dict[str, str] = {}
        for i in range(self.traced_ops):
            self.input(i)

    def input(self, i: int):
        while len(self._inputs) <= i:
            self._inputs.append(self.draw(len(self._inputs)))
        return self._inputs[i]

    def draw(self, i: int):
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first operation (warm-up, references)."""

    def run(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> str | None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the last operation (informational digests)."""

    def digest_report(self) -> list[str]:
        """One line per digest, saying whether it matches the stored one."""
        known = self.reference["digests"]
        lines = []
        for key, value in sorted(self.digests.items()):
            state = ("matches reference" if known.get(key) == value
                     else "differs from reference")
            lines.append(f"digest {key} {value} ({state})")
        return lines


class ModalBatch(Workload):
    """The nine packaged studies; after the first pass, redrawn inertias."""

    name = "modal_batch"

    def __init__(self, seed: int):
        self.studies = [sc.load_packaged_scenario(n)
                        for n in sc.packaged_scenario_names()]
        self.pass_len = len(self.studies)
        self.traced_ops = 2 * self.pass_len
        self.inertias = []
        for s in self.studies:
            _, devices = sc.build_scenario_system(s)
            self.inertias.append([(d.device_id, d.params.h_s)
                                  for d in devices
                                  if d.device_class == "synchronous"])
        super().__init__(seed)

    def draw(self, i):
        k = i % self.pass_len
        if i < self.pass_len:
            return self.studies[k]
        overrides = tuple(
            sc.Override(device=dev, field="h_s",
                        value=h * (1.0 + self.rng.uniform(-INERTIA_SPREAD,
                                                          INERTIA_SPREAD)))
            for dev, h in self.inertias[k])
        return dataclasses.replace(self.studies[k], overrides=overrides,
                                   sha256="")

    def prepare(self):
        sc.run_scenario(self.studies[0])

    def run(self, inp):
        report = sc.run_scenario(inp)
        return report, sc.report_to_text(report), sc.report_to_csv(report)

    def check(self, i, inp, out):
        report, text, csv = out
        ref = self.reference["studies"][self.studies[i % self.pass_len].name]
        if sc.parse_report(text) != report:
            return "parse_report does not restore the report"
        if len(csv.splitlines()) != len(report.modes) + 1:
            return "CSV export has the wrong number of rows"
        if report.n_states != ref["n_states"]:
            return f"{report.n_states} states, expected {ref['n_states']}"
        if i < self.pass_len:
            self.digests[f"report_to_text:{inp.name}"] = sha256(text)
            return dominant_mismatch(report.dominant, ref["dominant"])
        return None


class GainSweep(Workload):
    """6x6 sweeps over the unsupported wind studies, seed-drawn grids."""

    name = "gain_sweep"
    pass_len = len(UNSUPPORTED_WIND_STUDIES)
    traced_ops = len(UNSUPPORTED_WIND_STUDIES)

    def __init__(self, seed: int):
        self.studies = [sc.load_packaged_scenario(n)
                        for n in UNSUPPORTED_WIND_STUDIES]
        super().__init__(seed)

    def _grid(self):
        lo, hi = (int(v * 1000) for v in GAIN_RANGE)
        return tuple(v / 1000 for v in
                     sorted(self.rng.sample(range(lo, hi + 1), GRID_SIZE)))

    def draw(self, i):
        scenario = self.studies[i % self.pass_len]
        return (scenario, self._grid(), self._grid(),
                self.rng.randrange(GRID_SIZE * GRID_SIZE))

    def prepare(self):
        sc.run_scenario(with_gains(self.studies[0], 0.0, 0.0))

    def run(self, inp):
        scenario, kp, kin, _ = inp
        return sc.run_sensitivity_sweep(scenario, kp_values=kp,
                                        kin_values=kin)

    def check(self, i, inp, out):
        scenario, kp, kin, probe = inp
        if len(out.cells) != len(kp) * len(kin):
            return f"sweep returned {len(out.cells)} cells"
        bad = [c for c in out.cells if c.error]
        if bad:
            return f"{len(bad)} cells failed, first: {bad[0].error}"
        cell = out.cells[probe]
        direct = sc.run_scenario(with_gains(scenario, cell.kp, cell.kin))
        problem = dominant_mismatch(cell.dominant, direct.dominant)
        if problem:
            return f"cell (kp={cell.kp}, kin={cell.kin}) vs direct run: " \
                   f"{problem}"
        return None

    def finish(self):
        study = next(s for s in self.studies
                     if s.name == DIGEST_SWEEP_STUDY)
        text = sc.sweep_to_text(sc.run_sensitivity_sweep(study))
        self.digests[f"sweep_to_text:{DIGEST_SWEEP_STUDY}"] = sha256(text)


class FaultSim(Workload):
    """A packaged study through a sequence of seed-drawn tie-line faults."""

    name = "fault_sim"
    study = "B_voltage_support"
    traced_ops = 2
    sim_seconds = 4.0

    def __init__(self, seed: int):
        self.packaged = sc.load_packaged_scenario(self.study)
        _, devices = sc.build_scenario_system(self.packaged)
        lifted = tuple(sc.Override(device=d.device_id, field=f, value=v)
                       for d in devices if d.device_class == "synchronous"
                       for f, v in (("efd_max", EFD_LIMIT),
                                    ("efd_min", -EFD_LIMIT)))
        self.scenario = dataclasses.replace(
            self.packaged, overrides=self.packaged.overrides + lifted,
            sha256="")
        self.notes: list[str] = []
        super().__init__(seed)

    def draw(self, i):
        event = fault_event(self.rng.choice(FAULT_BRANCHES),
                            self.rng.uniform(*FAULT_CYCLES))
        return dataclasses.replace(self.scenario, events=(event,), sha256="")

    def prepare(self):
        quiet = dataclasses.replace(self.scenario, events=(), sha256="")
        sc.simulate_scenario(quiet, t_end=0.05)

    def run(self, inp):
        return sc.simulate_scenario(inp, t_end=self.sim_seconds)

    def check(self, i, inp, out):
        return trace_problem(out, self.sim_seconds)

    def finish(self):
        branch, n_cycles = STALL_REPRODUCERS[self.study]
        stalling = dataclasses.replace(
            self.packaged, events=(fault_event(branch, n_cycles),), sha256="")
        try:
            sc.simulate_scenario(stalling, t_end=STALL_REPRODUCER_S)
            outcome = "runs through (defect fixed)"
        except Exception as exc:
            outcome = f"still fails: {exc}"
        self.notes.append(f"known defect: {self.study} with packaged exciter "
                          f"limits, {n_cycles:g}-cycle fault on {branch}, "
                          f"{STALL_REPRODUCER_S:g} s: {outcome}")

    def digest_report(self):
        return super().digest_report() + self.notes


class FaultRingdown(FaultSim):
    """Case A through the same kind of faults.

    Each operation also fits a damped sinusoid to the G1-G3 speed swing;
    the fit is checked against the inter-area eigenvalue of the linear
    model.
    """

    name = "fault_ringdown"
    study = "A"
    sim_seconds = 8.0              # three swing peaks after RINGDOWN_LAG

    def prepare(self):
        super().prepare()
        report = sc.run_scenario(self.scenario)
        self.inter_area = next(m for m in report.dominant
                               if m.classification == "inter_area")

    def run(self, inp):
        trace = sc.simulate_scenario(inp, t_end=self.sim_seconds)
        swing = (trace.column("G1.rotor_speed")
                 - trace.column("G3.rotor_speed"))
        cleared = inp.events[0].t_start + inp.events[0].duration
        fit = td.ringdown_fit(trace.time, swing,
                              window=(cleared + RINGDOWN_LAG,
                                      self.sim_seconds))
        return trace, fit

    def check(self, i, inp, out):
        trace, fit = out
        problem = trace_problem(trace, self.sim_seconds)
        if problem:
            return problem
        ia = self.inter_area
        sigma_err = abs(fit.sigma - ia.real) / abs(ia.real)
        omega_err = abs(fit.omega - ia.imag) / abs(ia.imag)
        if sigma_err > RINGDOWN_SIGMA_TOL or omega_err > RINGDOWN_OMEGA_TOL:
            return (f"ringdown sigma {fit.sigma:.4f} omega {fit.omega:.4f} "
                    f"vs inter-area {ia.real:.4f}{ia.imag:+.4f}j "
                    f"({100 * sigma_err:.1f} %, {100 * omega_err:.1f} %)")
        return None


WORKLOADS = {w.name: w for w in (ModalBatch, GainSweep, FaultSim,
                                 FaultRingdown)}
