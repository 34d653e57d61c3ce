"""Nonlinear time-domain simulation and ringdown analysis.

The integrator advances the assembled device states with the implicit
trapezoidal rule, re-solving the network algebra inside every residual
evaluation so the differential and algebraic parts stay consistent at all
times.  Disturbances never mutate the model: each event swaps in an
admittance variant rebuilt from the unmodified base, so clearing a fault
restores the pre-fault matrices exactly.  The devices' non-windup limiters
(field voltage, governor power, the converter's reactive integrator) are
held and released by the integrator alone, between steps, never inside
one.  The event script becomes a list of segments of constant grid before
the first step, so a script error fails before anything is integrated.
The step loop only integrates: device outputs and the power-balance audit
are computed afterwards, once per segment.

``ringdown_modes`` estimates the eigenvalues and residues present in a
simulated signal with a matrix pencil (one SVD and one small eigenproblem,
no iteration), and ``ringdown_fit`` reduces them to the dominant decaying
sinusoid, which lets eigenvalue predictions be checked against the
nonlinear response after a fault.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

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
    bus by ``scale`` from ``t_start`` on.  Only a fault expires, so any
    other kind with a ``duration`` is rejected; likewise an ``admittance``
    on any kind but a fault, or a ``scale`` on any kind but a load step.
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
        if not (math.isfinite(self.t_start) and self.t_start >= 0.0):
            raise ValueError("event t_start must be finite and non-negative")
        if self.kind in ("three_phase_fault", "clear_fault"):
            if (self.bus is None) == (self.branch is None):
                raise ValueError(f"{self.kind} needs exactly one of bus "
                                 "or branch")
        if self.duration is not None and self.kind != "three_phase_fault":
            raise ValueError(f"{self.kind} takes no duration; only a "
                             "three_phase_fault expires")
        if (self.admittance != DEFAULT_FAULT_ADMITTANCE
                and self.kind != "three_phase_fault"):
            raise ValueError(f"{self.kind} takes no admittance; only a "
                             "three_phase_fault inserts one")
        if self.scale != 1.0 and self.kind != "load_step":
            raise ValueError(f"{self.kind} takes no scale; only a load_step "
                             "rescales a load")
        if self.kind == "three_phase_fault":
            if self.duration is not None and not (
                    math.isfinite(self.duration) and self.duration > 0.0):
                raise ValueError("fault duration must be finite and positive")
            if not (math.isfinite(self.admittance) and self.admittance > 0.0):
                raise ValueError("fault admittance must be finite and "
                                 "positive")
        if self.kind == "line_trip" and self.branch is None:
            raise ValueError("line_trip needs a branch name")
        if self.kind == "load_step":
            if self.bus is None:
                raise ValueError("load_step needs a bus id")
            if not (math.isfinite(self.scale) and self.scale >= 0.0):
                raise ValueError("load_step scale must be finite and "
                                 "non-negative")


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


# --------------------------------------------------------------------------
# event schedule


def _segments(model: DynamicSystem, events, t_end: float):
    """``[(t0, t1, grid)]``: the stretches of constant grid that partition
    ``[0, t_end]``, every grid built before integration starts.

    Events apply in stable order of ``t_start``; a fault with a
    ``duration`` expires at ``t_start + duration``, before the events that
    start at that time.  Each time at which anything happens starts a
    segment with a freshly built grid (the base grid once nothing is
    active); changes at or after ``t_end`` never apply.
    """
    # time -> its events, and the FaultSpec of each timed fault expiring
    # then (appended first, since its fault started earlier)
    changes: dict[float, list] = {}
    for ev in sorted(events, key=lambda e: e.t_start):
        if ev.t_start > t_end:
            logger.warning("event at t=%.3fs is beyond t_end=%.3fs; ignored",
                           ev.t_start, t_end)
            continue
        changes.setdefault(ev.t_start, []).append(ev)
        if ev.kind == "three_phase_fault" and ev.duration is not None:
            changes.setdefault(ev.t_start + ev.duration, []).append(
                FaultSpec(ev.bus, ev.branch, ev.admittance))

    faults, outs, scales = [], [], {}
    segments, t0, grid = [], 0.0, model.base_grid
    for t in sorted(t for t in changes if t < t_end):
        if t > 0.0:
            segments.append((t0, t, grid))
            t0 = t
        for ev in changes[t]:
            if isinstance(ev, FaultSpec):
                if ev in faults:
                    faults.remove(ev)
            elif ev.kind == "three_phase_fault":
                faults.append(FaultSpec(ev.bus, ev.branch, ev.admittance))
            elif ev.kind == "clear_fault":
                kept = [f for f in faults
                        if (f.bus, f.branch) != (ev.bus, ev.branch)]
                if len(kept) == len(faults):
                    where = f"bus {ev.bus}" if ev.branch is None else ev.branch
                    raise SimulationError(f"clear_fault at t={t:.4f}s: no "
                                          f"active fault on {where}")
                faults = kept
            elif ev.kind == "line_trip":
                if ev.branch in outs:
                    raise SimulationError(
                        f"line_trip at t={t:.4f}s: branch {ev.branch!r} is "
                        "already out of service")
                outs.append(ev.branch)
            else:
                scales[ev.bus] = ev.scale
        try:
            grid = (model.grid_variant(faults, outs, scales)
                    if faults or outs or scales else model.base_grid)
        except SystemModelError as exc:
            raise SimulationError(f"cannot build event grid: {exc}") from exc
    return segments + [(t0, t_end, grid)]


# --------------------------------------------------------------------------
# integrator


class _Recorder:
    """Samples of the run.  ``add`` only stores ``t``, ``x``, the full
    voltage vector and the grid; when the grid changes, and in ``trace``,
    the device outputs and the power-balance residual of the finished
    segment are computed at once over its stacked samples."""

    def __init__(self, model: DynamicSystem):
        self.model = model
        self.names = [str(lab) for lab in model.state_labels()]
        self.bus_ids = [b.id for b in model.network.buses]
        self.t: list[float] = []
        self.x: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.grid: GridModel | None = None
        # (states, voltages, outputs) of each finished segment
        self.done: list[tuple] = []
        self.max_residual = 0.0

    def add(self, t, x, v, grid):
        if grid is not self.grid:
            self._close_segment()
            self.grid = grid
        self.t.append(t)
        self.x.append(x.copy())
        self.v.append(v.copy())

    def _close_segment(self):
        if not self.x:
            return
        x, v = np.array(self.x), np.array(self.v)
        outputs = self.model.device_outputs(x, v)
        res = self.model.power_balance_residual(x, v, grid=self.grid)
        self.max_residual = max(self.max_residual, float(res.max()))
        self.done.append((x, v[:, :len(self.bus_ids)], outputs))
        self.x, self.v = [], []

    def trace(self, events) -> Trace:
        self._close_segment()
        xs, vs, outs = zip(*self.done)
        return Trace(
            time=np.array(self.t),
            states=np.concatenate(xs),
            state_names=self.names,
            voltages=np.concatenate(vs),
            bus_ids=self.bus_ids,
            outputs={k: np.concatenate([o[k] for o in outs])
                     for k in outs[0]},
            events=tuple(events),
            max_balance_residual=self.max_residual,
        )


class _Limiters:
    """The devices' non-windup limiters during a run (see ``simulate``):
    the bounds from ``DeviceModel.limits`` and the held system indices.
    A held state's rows of ``f`` and of the chord Jacobian are zero; no
    device equation reads another state's derivative, so no other row
    changes."""

    def __init__(self, model: DynamicSystem):
        self.model = model
        # (system state index, lo, hi) of every limited state
        self.bounds = [(sl.start + k, lo, hi)
                       for dev, sl in zip(model.devices, model._slices)
                       for k, lo, hi in dev.limits()]
        self.held: set[int] = set()

    def evaluate(self, x, grid):
        """``model._evaluate`` with the held rows of ``f`` set to zero."""
        f, v = self.model._evaluate(x, grid)
        if self.held:
            f[list(self.held)] = 0.0
        return f, v

    def switch(self, x, v) -> bool:
        """Clamp crossings and release limiters at an accepted state ``x``
        (changed in place) with bus voltages ``v``; True on any switch."""
        free = None
        switched = False
        for g, lo, hi in self.bounds:
            xg = x[g]
            if g in self.held:
                if free is None:
                    free = self.model._derivatives(x, v)
                # held means on a bound; release if pointing back inside
                if free[g] < 0.0 if xg >= hi else free[g] > 0.0:
                    self.held.discard(g)
                    switched = True
            elif not lo <= xg <= hi:
                x[g] = min(max(xg, lo), hi)
                self.held.add(g)
                switched = True
        return switched


def simulate(model: DynamicSystem, equilibrium: np.ndarray | None = None,
             events=(), t_end: float = 10.0, dt_max: float = 1e-3,
             dt_min: float = DT_MIN, newton_tol: float = NEWTON_TOL,
             max_newton: int = MAX_NEWTON_ITER) -> Trace:
    """Integrate the system through scripted events.

    Implicit trapezoidal rule with chord-Newton inner iterations: the
    iteration matrix I - (dt/2)*J is factored once per segment and step
    size, and J is refreshed whenever convergence degrades.  J is
    ``model.jacobian`` on the active grid: the same central differences,
    and the same bits, as ``modal.linearize``, with device-only
    evaluations for the states that do not reach the network.  Each Newton
    iterate solves the network once and back-substitutes with LAPACK
    ``dgetrs`` on the cached factors; an accepted step records the voltages
    of its last iterate, so no step solves the network again.

    Limited states (``DeviceModel.limits``) are held here, not in the
    devices: the rows of ``f`` and J that belong to held states are zeroed
    after each free evaluation, and the status is frozen within a step, so
    the Newton residual is smooth.  At an accepted step a state that
    crossed a bound is clamped onto it and held, and a held state is
    released once its free derivative points back inside; after any switch
    ``f`` is re-evaluated and the chord refreshed.  A run in which no
    limiter switches makes no extra evaluation.

    The event script is turned into segments of constant grid before the
    first step, so a script error (clearing a fault that is not on,
    tripping a branch twice, a grid that cannot be built) raises
    :class:`SimulationError` before any integration.  Integration lands
    exactly on every segment boundary and restarts there with that
    segment's admittance view; the t = 0 sample takes its voltages from
    the first segment's entry evaluation.  The trace's device outputs and
    ``max_balance_residual`` are computed over the stacked samples of each
    segment.  On an unrecoverable step, or a network solve that fails
    anywhere in the run, the partial history is attached to the raised
    :class:`SimulationError` (``None`` if the network fails at t = 0,
    before anything is recorded).
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    if not 0.0 < dt_min <= dt_max < math.inf:
        raise ValueError("need 0 < dt_min <= dt_max < inf")

    x = (model.equilibrium() if equilibrium is None
         else np.asarray(equilibrium, dtype=float).copy())
    if x.shape != (model.n_states,):
        raise ValueError(f"equilibrium has shape {x.shape}; model has "
                         f"{model.n_states} states")

    segments = _segments(model, events, t_end)
    rec = _Recorder(model)

    limiters = _Limiters(model)
    jac = None
    factor_cache: dict[float, tuple] = {}

    def refresh_jacobian(x_at):
        nonlocal jac
        jac = model.jacobian(x_at, grid)
        jac[list(limiters.held)] = 0.0
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
            f1, v1 = limiters.evaluate(x1, grid)
            r = x1 - x0 - 0.5 * dt * (f0 + f1)
            err = np.abs(r).max()
            if err <= newton_tol:
                return x1, f1, v1
            if not math.isfinite(err):
                return None
            # the bits of lu_solve, without its argument checks
            lu, piv = iteration_matrix(dt)
            x1 = x1 - dgetrs(lu, piv, r)[0]
        return None

    try:
        for seg_start, seg_end, grid in segments:
            t_sub = seg_start
            f, v = limiters.evaluate(x, grid)
            if seg_start == 0.0:
                rec.add(0.0, x, v, grid)
            refresh_jacobian(x)

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
                        refresh_jacobian(x)
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
                    if limiters.switch(x, v):
                        f, v = limiters.evaluate(x, grid)
                        refresh_jacobian(x)
                    if 0 < remaining < dt:
                        dt = remaining
                rec.add(target, x, v, grid)
    except SystemModelError as exc:
        # no network solution at some state (e.g. voltage collapse)
        raise SimulationError(
            f"network solution failed at t={t_sub:.6f}s: {exc}",
            rec.trace(events) if rec.t else None) from exc

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


def _window(time, signal, window):
    """The samples of a signal inside ``window`` (all if ``None``)."""
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
    if not np.all(np.isfinite(y)):
        raise RingdownError("signal has non-finite samples in the window")
    return t, y


def ringdown_modes(time: np.ndarray, signal: np.ndarray,
                   window: tuple[float, float] | None = None
                   ) -> list[tuple[complex, complex]]:
    """Every ``(eigenvalue, residue)`` pair of a signal section, largest
    ``|residue|`` first: ``y(t) ~ sum(r * exp(lam * (t - t0)))``, with
    ``t0`` the first sample of the window.

    Matrix pencil (Hua & Sarkar, IEEE Trans. ASSP 38(5), 1990): every k-th
    sample of the window is kept, k = max(1, n // 240), and must be evenly
    spaced to 1 %; their Hankel matrix of pencil length N // 3 is
    decomposed by SVD.  The singular values above max(1e-3 * s0,
    10 * median(s)) set the model order, the median term keeping white
    noise out of it.  The eigenvalues follow from the shifted right
    singular vectors, the residues from a linear least-squares fit to the
    kept samples.  A real signal yields conjugate pairs.
    """
    t, y = _window(time, signal, window)
    k = max(1, t.size // 240)
    t, y = t[::k] - t[0], y[::k]
    h = t[-1] / (t.size - 1)
    if not (h > 0.0 and np.ptp(np.diff(t)) <= 0.01 * h):
        raise RingdownError("samples in the window are not evenly spaced")

    hankel = np.lib.stride_tricks.sliding_window_view(y, t.size // 3 + 1)
    _, s, vh = np.linalg.svd(hankel, full_matrices=False)
    v = vh[s > max(1e-3 * s[0], 10.0 * np.median(s))].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    lam = np.log(z.astype(complex)) / h
    res = np.linalg.lstsq(np.exp(np.outer(t, lam)), y, rcond=None)[0]
    return [(complex(lam[i]), complex(res[i]))
            for i in np.argsort(-np.abs(res))]


def ringdown_fit(time: np.ndarray, signal: np.ndarray,
                 window: tuple[float, float] | None = None) -> RingdownFit:
    """Fit one damped sinusoid to a signal section.

    The mode is the oscillatory (``Im > 0``) pair of ``ringdown_modes``
    with the largest residue; amplitude, phase and offset then come from
    one linear least-squares fit of every window sample against
    ``exp(sigma t) cos(omega t)``, ``-exp(sigma t) sin(omega t)`` and 1,
    with ``t`` measured from the window's first sample.  Raises
    :class:`RingdownError` if the window holds no oscillatory mode, or
    fewer than two of its periods.
    """
    t, y = _window(time, signal, window)
    oscillatory = [lam for lam, _ in ringdown_modes(t, y) if lam.imag > 0.0]
    if not oscillatory:
        raise RingdownError("no oscillatory mode in the window")
    sigma, omega = oscillatory[0].real, oscillatory[0].imag
    t = t - t[0]
    if t[-1] < 2.0 * (2.0 * np.pi / omega):
        raise RingdownError(
            f"window of {t[-1]:.3g}s holds fewer than two periods of the "
            f"{omega / (2.0 * np.pi):.3g} Hz mode")

    decay = np.exp(sigma * t)
    basis = np.column_stack([decay * np.cos(omega * t),
                             -decay * np.sin(omega * t), np.ones_like(t)])
    (p, q, c), *_ = np.linalg.lstsq(basis, y, rcond=None)
    scale = float(np.max(np.abs(y - np.mean(y)))) or 1.0
    residual = float(np.sqrt(np.mean((basis @ (p, q, c) - y) ** 2)) / scale)
    return RingdownFit(sigma=float(sigma), omega=float(omega),
                       amplitude=float(np.hypot(p, q)),
                       phase=float(np.arctan2(q, p)), offset=float(c),
                       residual=residual)
