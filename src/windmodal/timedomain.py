"""Nonlinear time-domain simulation and ringdown analysis.

The integrator advances the assembled device states with the implicit
trapezoidal rule, re-solving the network algebra inside every residual
evaluation so the differential and algebraic parts stay consistent at all
times.  Disturbances never mutate the model: each event swaps in an
admittance variant rebuilt from the unmodified base, so clearing a fault
restores the pre-fault matrices exactly.

``ringdown_fit`` recovers the dominant decaying sinusoid from a simulated
signal, which lets eigenvalue predictions be checked against the nonlinear
response after a fault.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .system import (DEFAULT_FAULT_ADMITTANCE, DynamicSystem, FaultSpec,
                     GridModel, SystemModelError)

logger = logging.getLogger(__name__)

NEWTON_TOL = 1e-8
MAX_NEWTON_ITER = 12
DT_MIN = 1e-5

EVENT_KINDS = ("three_phase_fault", "clear_fault", "load_step", "line_trip")


class SimulationError(RuntimeError):
    """Integration could not proceed; ``trace`` holds what was computed."""

    def __init__(self, message: str, trace: "Trace | None" = None):
        super().__init__(message)
        self.trace = trace


class RingdownError(ValueError):
    """The signal window does not contain a usable ringdown."""


def cycles(n: float, frequency_hz: float = 60.0) -> float:
    """Duration of ``n`` cycles of the fundamental, in seconds."""
    return n / frequency_hz


@dataclass(frozen=True)
class Event:
    """One scripted disturbance.

    ``three_phase_fault`` inserts a large shunt at a bus or at the midpoint
    of a named branch; with a ``duration`` it clears itself, otherwise it
    stays on until a matching ``clear_fault`` (or the end of the run).
    ``clear_fault`` removes an active fault.  ``line_trip`` takes a
    branch out of service permanently; ``load_step`` rescales the load at a
    bus by ``scale`` from ``t_start`` on.
    """

    kind: str
    t_start: float
    bus: int | None = None
    branch: str | None = None
    duration: float | None = None
    admittance: float = DEFAULT_FAULT_ADMITTANCE
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"expected one of {EVENT_KINDS}")
        if self.t_start < 0.0:
            raise ValueError("event t_start must be non-negative")
        if self.kind in ("three_phase_fault", "clear_fault"):
            if (self.bus is None) == (self.branch is None):
                raise ValueError(f"{self.kind} needs exactly one of bus "
                                 "or branch")
        if self.kind == "three_phase_fault":
            if self.duration is not None and self.duration <= 0.0:
                raise ValueError("fault duration must be positive")
            if self.admittance <= 0.0:
                raise ValueError("fault admittance must be positive")
        if self.kind == "line_trip" and self.branch is None:
            raise ValueError("line_trip needs a branch name")
        if self.kind == "load_step":
            if self.bus is None:
                raise ValueError("load_step needs a bus id")
            if self.scale < 0.0:
                raise ValueError("load_step scale must be non-negative")


@dataclass
class Trace:
    """Simulation history on a strictly increasing time grid."""

    time: np.ndarray
    states: np.ndarray                      # (n_samples, n_states)
    state_names: list[str]
    voltages: np.ndarray                    # (n_samples, n_bus) complex
    bus_ids: list[int]
    outputs: dict[str, np.ndarray]          # "<device>.<quantity>"
    events: tuple[Event, ...] = ()
    max_balance_residual: float = 0.0

    def column(self, name: str) -> np.ndarray:
        """A recorded signal: a state label or a device-output key."""
        if name in self.outputs:
            return self.outputs[name]
        try:
            return self.states[:, self.state_names.index(name)]
        except ValueError:
            raise KeyError(f"no trace column {name!r}") from None

    def voltage_magnitude(self, bus_id: int) -> np.ndarray:
        try:
            col = self.bus_ids.index(bus_id)
        except ValueError:
            raise KeyError(f"bus {bus_id} not in trace") from None
        return np.abs(self.voltages[:, col])

    def to_csv(self, path) -> None:
        """Write time, states, outputs and voltage magnitudes as CSV."""
        out_keys = sorted(self.outputs)
        header = (["time"] + list(self.state_names) + out_keys
                  + [f"bus{b}.vm" for b in self.bus_ids])
        cols = [self.time, *self.states.T]
        cols += [self.outputs[k] for k in out_keys]
        cols += [np.abs(self.voltages[:, j])
                 for j in range(len(self.bus_ids))]
        data = np.column_stack(cols)
        np.savetxt(path, data, delimiter=",", comments="",
                   header=",".join(header), fmt="%.10g")


def fault_grid(model: DynamicSystem, bus: int | None = None,
               branch: str | None = None,
               admittance: float = DEFAULT_FAULT_ADMITTANCE) -> GridModel:
    """Admittance view of the system with one three-phase fault applied."""
    spec = FaultSpec(bus=bus, branch=branch, admittance=admittance)
    return model.grid_variant(faults=[spec])


def cleared_grid(model: DynamicSystem) -> GridModel:
    """The unfaulted admittance view; applying then clearing a fault
    returns exactly this matrix."""
    return model.base_grid


# --------------------------------------------------------------------------
# event script compilation


def _compile_marks(events, t_end: float):
    """Map each event to timed grid-state changes, validated up front."""
    marks: dict[float, list] = {}

    def add(t, change):
        marks.setdefault(t, []).append(change)

    for ev in sorted(events, key=lambda e: e.t_start):
        if ev.t_start > t_end:
            logger.warning("event at t=%.3fs is beyond t_end=%.3fs; ignored",
                           ev.t_start, t_end)
            continue
        if ev.kind == "three_phase_fault":
            spec = FaultSpec(bus=ev.bus, branch=ev.branch,
                             admittance=ev.admittance)
            add(ev.t_start, ("fault_on", spec))
            if ev.duration is not None:
                add(ev.t_start + ev.duration, ("fault_expire", spec))
        elif ev.kind == "clear_fault":
            add(ev.t_start, ("fault_clear", (ev.bus, ev.branch)))
        elif ev.kind == "line_trip":
            add(ev.t_start, ("trip", ev.branch))
        elif ev.kind == "load_step":
            add(ev.t_start, ("load", (ev.bus, ev.scale)))
    return dict(sorted(marks.items()))


class _GridState:
    """Active faults/outages/load scales, turned into GridModel variants."""

    def __init__(self, model: DynamicSystem):
        self.model = model
        self.faults: list[FaultSpec] = []
        self.outs: list[str] = []
        self.scales: dict[int, float] = {}

    def apply(self, t: float, changes) -> None:
        for kind, payload in changes:
            if kind == "fault_on":
                self.faults.append(payload)
            elif kind == "fault_expire":
                if payload in self.faults:
                    self.faults.remove(payload)
            elif kind == "fault_clear":
                bus, branch = payload
                match = [f for f in self.faults
                         if f.bus == bus and f.branch == branch]
                if not match:
                    raise SimulationError(
                        f"clear_fault at t={t:.4f}s: no active fault on "
                        f"{'bus %s' % bus if bus is not None else branch}")
                for f in match:
                    self.faults.remove(f)
            elif kind == "trip":
                if payload in self.outs:
                    raise SimulationError(
                        f"line_trip at t={t:.4f}s: branch {payload!r} is "
                        "already out of service")
                self.outs.append(payload)
            elif kind == "load":
                bus, scale = payload
                self.scales[bus] = scale

    def grid(self) -> GridModel:
        if not self.faults and not self.outs and not self.scales:
            return self.model.base_grid
        try:
            return self.model.grid_variant(faults=list(self.faults),
                                           out_branches=list(self.outs),
                                           load_scales=dict(self.scales))
        except SystemModelError as exc:
            raise SimulationError(f"cannot build event grid: {exc}") from exc


# --------------------------------------------------------------------------
# integrator


def _finite_difference_jacobian(model, x, grid, f0):
    n = x.size
    a = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        a[:, j] = (model.rhs(xp, grid=grid) - f0) / h
    return a


class _Recorder:
    def __init__(self, model: DynamicSystem):
        self.model = model
        self.names = [str(lab) for lab in model.state_labels()]
        self.bus_ids = [b.id for b in model.network.buses]
        self.t: list[float] = []
        self.x: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.out: dict[str, list[float]] = {}
        self.max_residual = 0.0

    def add(self, t, x, v, grid):
        n_bus = len(self.bus_ids)
        self.t.append(t)
        self.x.append(x.copy())
        self.v.append(v[:n_bus].copy())
        for key, val in self.model.device_outputs(x, v).items():
            self.out.setdefault(key, []).append(val)
        res = self.model.power_balance_residual(x, v, grid=grid)
        self.max_residual = max(self.max_residual, res)

    def trace(self, events) -> Trace:
        return Trace(
            time=np.array(self.t),
            states=np.array(self.x),
            state_names=self.names,
            voltages=np.array(self.v),
            bus_ids=self.bus_ids,
            outputs={k: np.array(v) for k, v in self.out.items()},
            events=tuple(events),
            max_balance_residual=self.max_residual,
        )


def simulate(model: DynamicSystem, equilibrium: np.ndarray | None = None,
             events=(), t_end: float = 10.0, dt_max: float = 1e-3,
             dt_min: float = DT_MIN, newton_tol: float = NEWTON_TOL,
             max_newton: int = MAX_NEWTON_ITER) -> Trace:
    """Integrate the system through scripted events.

    Implicit trapezoidal rule with chord-Newton inner iterations: the
    iteration matrix I - (dt/2)*J is factored once per segment and step
    size, and J is refreshed whenever convergence degrades.  Each Newton
    iterate solves the network once; an accepted step records the voltages
    of its last iterate, so no step solves the network again.  Integration
    lands exactly on every event time and restarts there with the updated
    admittance view.  On an unrecoverable step, or a network solve that
    fails anywhere in the run, the partial history is attached to the
    raised :class:`SimulationError`.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt_max <= 0.0 or dt_min <= 0.0 or dt_min > dt_max:
        raise ValueError("need 0 < dt_min <= dt_max")

    x = (model.equilibrium() if equilibrium is None
         else np.asarray(equilibrium, dtype=float).copy())
    if x.shape != (model.n_states,):
        raise ValueError(f"equilibrium has shape {x.shape}; model has "
                         f"{model.n_states} states")

    marks = _compile_marks(events, t_end)
    state = _GridState(model)
    rec = _Recorder(model)

    # boundaries partition [0, t_end]; changes at a boundary apply to the
    # segment that starts there (marks at or beyond t_end never integrate)
    boundaries = sorted({0.0, t_end,
                         *(tm for tm in marks if 0.0 < tm < t_end)})
    if 0.0 in marks:
        state.apply(0.0, marks[0.0])
    grid = state.grid()
    v = model.solve_network(x, grid=grid)
    rec.add(0.0, x, v, grid)

    jac = None
    factor_cache: dict[float, tuple] = {}

    def refresh_jacobian(x_at, f_at):
        nonlocal jac
        jac = _finite_difference_jacobian(model, x_at, grid, f_at)
        factor_cache.clear()

    def iteration_matrix(dt):
        if dt not in factor_cache:
            factor_cache[dt] = lu_factor(np.eye(model.n_states)
                                         - 0.5 * dt * jac)
        return factor_cache[dt]

    def newton_step(x0, f0, dt):
        """One trapezoidal step; returns (x1, f1, v1) or None if stalled."""
        x1 = x0 + dt * f0
        for _ in range(max_newton):
            f1, v1 = model._evaluate(x1, grid=grid)
            r = x1 - x0 - 0.5 * dt * (f0 + f1)
            if not np.all(np.isfinite(r)):
                return None
            if float(np.max(np.abs(r))) <= newton_tol:
                return x1, f1, v1
            x1 = x1 - lu_solve(iteration_matrix(dt), r, check_finite=False)
        return None

    t_sub = 0.0
    try:
        for seg_start, seg_end in zip(boundaries[:-1], boundaries[1:]):
            if seg_start > 0.0 and seg_start in marks:
                state.apply(seg_start, marks[seg_start])
                grid = state.grid()
            t_sub = seg_start
            f, v = model._evaluate(x, grid=grid)
            refresh_jacobian(x, f)

            n_steps = max(1, int(np.ceil((seg_end - seg_start) / dt_max
                                         - 1e-9)))
            dt_seg = (seg_end - seg_start) / n_steps
            for i in range(n_steps):
                target = seg_start + (i + 1) * dt_seg
                t_sub = seg_start + i * dt_seg
                dt = dt_seg
                remaining = dt_seg
                while remaining > 1e-12 * max(1.0, seg_end):
                    result = newton_step(x, f, dt)
                    if result is None:
                        # slow or divergent: refresh the chord, then halve
                        refresh_jacobian(x, f)
                        result = newton_step(x, f, dt)
                    if result is None:
                        if dt / 2.0 < dt_min:
                            raise SimulationError(
                                f"integration stalled at t={t_sub:.6f}s "
                                f"(dt={dt:.2e}s has reached the floor)",
                                rec.trace(events))
                        dt /= 2.0
                        continue
                    x, f, v = result
                    t_sub += dt
                    remaining -= dt
                    if 0 < remaining < dt:
                        dt = remaining
                rec.add(target, x, v, grid)
    except SystemModelError as exc:
        # no network solution at some state (e.g. voltage collapse)
        raise SimulationError(
            f"network solution failed at t={t_sub:.6f}s: {exc}",
            rec.trace(events)) from exc

    return rec.trace(events)


# --------------------------------------------------------------------------
# ringdown analysis


@dataclass(frozen=True)
class RingdownFit:
    """Dominant decaying sinusoid y = a*exp(sigma*t)*cos(omega*t+phi)+c."""

    sigma: float
    omega: float
    amplitude: float
    phase: float
    offset: float
    residual: float

    @property
    def frequency_hz(self) -> float:
        return self.omega / (2.0 * np.pi)

    @property
    def damping_ratio(self) -> float:
        mag = np.hypot(self.sigma, self.omega)
        return -self.sigma / mag if mag > 0 else 0.0


def _find_peaks(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of local maxima with prominence >= ``min_prominence``.

    Same definition as ``scipy.signal.find_peaks(y, prominence=...)``: a
    flat top counts once, at its middle sample (rounded down); a peak's
    prominence is its height above the higher of the two lowest points
    reached on each side before the signal first rises above the peak.
    """
    # collapse runs of equal samples; a peak is a run above both neighbours
    starts = np.flatnonzero(np.diff(y, prepend=np.nan) != 0.0)
    ends = np.append(starts[1:] - 1, y.size - 1)
    level = y[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2])
                         & (level[1:-1] > level[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    keep = []
    for p in peaks:
        higher = np.flatnonzero(y[:p] > y[p])
        left = y[higher[-1] + 1 if higher.size else 0:p + 1].min()
        higher = np.flatnonzero(y[p:] > y[p])
        right = y[p:p + higher[0] if higher.size else y.size].min()
        keep.append(y[p] - max(left, right) >= min_prominence)
    return peaks[np.array(keep, dtype=bool)]


def ringdown_fit(time: np.ndarray, signal: np.ndarray,
                 window: tuple[float, float] | None = None) -> RingdownFit:
    """Fit one damped sinusoid to a signal section.

    Peak spacing seeds the frequency and the log-decrement of successive
    maxima seeds the decay, then a least-squares pass refines all five
    parameters.  Requires at least three maxima inside the window.
    """
    t = np.asarray(time, dtype=float)
    y = np.asarray(signal, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("time and signal must be 1-D arrays of equal size")
    if window is not None:
        lo, hi = window
        sel = (t >= lo) & (t <= hi)
        t, y = t[sel], y[sel]
    if t.size < 8:
        raise RingdownError("window contains too few samples to fit")

    t = t - t[0]
    offset0 = float(np.mean(y))
    yc = y - offset0

    peaks = _find_peaks(yc, 0.02 * float(np.max(np.abs(yc))))
    if peaks.size < 3:
        raise RingdownError(
            f"found {peaks.size} peaks in the window; need at least 3 for "
            "a ringdown fit")

    tp, ap = t[peaks], np.abs(yc[peaks])
    omega0 = 2.0 * np.pi / float(np.mean(np.diff(tp)))
    good = ap > 1e-12 * ap.max()
    sigma0 = (float(np.polyfit(tp[good], np.log(ap[good]), 1)[0])
              if good.sum() >= 2 else 0.0)
    amp0 = float(ap[0] / max(np.exp(sigma0 * tp[0]), 1e-12))
    phase0 = float(-omega0 * tp[0])

    def model(p):
        a, sigma, omega, phi, c = p
        return a * np.exp(sigma * t) * np.cos(omega * t + phi) + c

    def residuals(p):
        return model(p) - y

    # imported here so that ``import windmodal`` does not load scipy.optimize
    from scipy.optimize import least_squares

    p0 = [amp0, sigma0, omega0, phase0, offset0]
    fit = least_squares(residuals, p0, method="lm", max_nfev=20000)
    a, sigma, omega, phi, c = fit.x
    # normalize: positive amplitude and frequency
    if a < 0:
        a, phi = -a, phi + np.pi
    if omega < 0:
        omega, phi = -omega, -phi
    phi = float(np.remainder(phi + np.pi, 2.0 * np.pi) - np.pi)
    scale = float(np.max(np.abs(yc))) or 1.0
    residual = float(np.sqrt(np.mean(fit.fun ** 2)) / scale)
    return RingdownFit(sigma=float(sigma), omega=float(omega),
                       amplitude=float(a), phase=phi, offset=float(c),
                       residual=residual)
