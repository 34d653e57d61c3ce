"""Nonlinear time-domain simulation and ringdown analysis.

The integrator advances the assembled device states with an explicit,
error-controlled Dormand-Prince 5(4) pair; every stage re-solves the network
algebra, so the differential and algebraic parts stay consistent at all
times.  The step is free of the recording grid: the samples of the trace
come from each step's dense output.  Disturbances never mutate the model:
the event script becomes a list of segments of constant grid before the
first step, each grid rebuilt from the unmodified base by
``DynamicSystem.grid_variant`` from the script's own events active then, so
clearing a fault restores the pre-fault matrices exactly and a script error
fails before anything is integrated.  The devices' non-windup limiters
(the machines' field voltage, the converter's reactive integrator) are
held and released by the integrator alone, which locates each bound
crossing and each release inside its step.  The step loop only
integrates: it hands each accepted step, as it holds it, to the recorder,
which writes each sample of the trace once, into buffers sized before the
first step.  When a segment closes, its samples are matched to its steps
and their dense output is one stacked pass, one small product per step,
straight into their rows; their bus voltages, device outputs and
power-balance audit follow from one pass that computes each machine's E''
once per sample, and the quiet stretch held before the first event is
solved as one row.

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
# only the wrap point of the benchmark's ``timedomain.lu_factor_calls``
from scipy.linalg import lu_factor  # noqa: F401

from .system import DynamicSystem, GridModel, SystemModelError

logger = logging.getLogger(__name__)

DT_MIN = 1e-5      # shortest error-controlled step, s
RTOL = 1e-5        # relative tolerance of the step error
ATOL = 1e-8        # absolute floor of the step error's scale
H_MAX = 0.04       # longest step, s (see simulate)

EVENT_KINDS = ("three_phase_fault", "clear_fault", "load_step", "line_trip")
DEFAULT_FAULT_ADMITTANCE = 1e4     # a bolted fault's shunt, pu


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
    on any kind but a fault, a ``scale`` on any kind but a load step, and a
    ``bus`` on a line trip or a ``branch`` on a load step.  A ``bus`` is an
    ``int`` (not a ``bool``) and a ``branch`` a ``str``, the types the
    scenario parser reads back.
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
        if self.bus is not None and (not isinstance(self.bus, int)
                                     or isinstance(self.bus, bool)):
            raise ValueError(f"event bus {self.bus!r}: must be an integer "
                             "bus id")
        if self.branch is not None and not isinstance(self.branch, str):
            raise ValueError(f"event branch {self.branch!r}: must be a "
                             "branch name")
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
        stray = {"line_trip": "bus", "load_step": "branch"}.get(self.kind)
        if stray is not None and getattr(self, stray) is not None:
            raise ValueError(f"{self.kind} takes no {stray}")


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
        with open(path, "wb") as fh:     # "\n" line ends on every platform
            np.savetxt(fh, data, delimiter=",", comments="",
                       header=",".join(header), fmt="%.10g")


# --------------------------------------------------------------------------
# event schedule


def _segments(model: DynamicSystem, events, t_end: float):
    """``[(t0, t1, grid)]``: the stretches of constant grid that partition
    ``[0, t_end]``, every grid built before integration starts.

    Events apply in stable order of ``t_start``; a fault with a
    ``duration`` expires at ``t_start + duration``, before the events that
    start at that time; the expiry removes that fault only, and nothing if
    a ``clear_fault`` removed it already.  A load step replaces an earlier
    one on its bus.  Each time at
    which anything happens starts a segment with a grid built from the
    events active then (the base grid once nothing is active); changes at
    or after ``t_end`` never apply.
    """
    # time -> [(event, starts)]: each event, and each timed fault again
    # where it expires (appended first, since its fault started earlier)
    changes: dict[float, list] = {}
    for ev in sorted(events, key=lambda e: e.t_start):
        if ev.t_start > t_end:
            logger.warning("event at t=%.3fs is beyond t_end=%.3fs; ignored",
                           ev.t_start, t_end)
            continue
        changes.setdefault(ev.t_start, []).append((ev, True))
        if ev.kind == "three_phase_fault" and ev.duration is not None:
            changes.setdefault(ev.t_start + ev.duration, []).append(
                (ev, False))

    # faults and trips in start order, and the last load step of each bus
    faults, trips, steps = [], [], {}
    segments, t0, grid = [], 0.0, model.base_grid
    for t in sorted(t for t in changes if t < t_end):
        if t > 0.0:
            segments.append((t0, t, grid))
            t0 = t
        for ev, starts in changes[t]:
            if not starts:
                if ev in faults:
                    faults.remove(ev)
            elif ev.kind == "three_phase_fault":
                faults.append(ev)
            elif ev.kind == "clear_fault":
                kept = [f for f in faults
                        if (f.bus, f.branch) != (ev.bus, ev.branch)]
                if len(kept) == len(faults):
                    where = f"bus {ev.bus}" if ev.branch is None else ev.branch
                    raise SimulationError(f"clear_fault at t={t:.4f}s: no "
                                          f"active fault on {where}")
                faults = kept
            elif ev.kind == "line_trip":
                if any(trip.branch == ev.branch for trip in trips):
                    raise SimulationError(
                        f"line_trip at t={t:.4f}s: branch {ev.branch!r} is "
                        "already out of service")
                trips.append(ev)
            else:
                steps[ev.bus] = ev
        active = faults + trips + list(steps.values())
        try:
            grid = model.grid_variant(active) if active else model.base_grid
        except SystemModelError as exc:
            raise SimulationError(f"cannot build event grid: {exc}") from exc
    return segments + [(t0, t_end, grid)]


# --------------------------------------------------------------------------
# integrator

# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980) in the form of
# Hairer, Norsett & Wanner, Solving ODEs I, Table II.5.2.  The model is
# autonomous, so the nodes are not needed.  The last coupling row holds the
# 5th-order weights, so the 7th stage is f at the step's end (first same as
# last).  _DP_E weighs all 7 stages into the error estimate (5th minus
# embedded 4th order), _DP_D into the dense output's last term (CONTD5).
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40))
_DP_D = np.array((-12715105075 / 11282082432, 0.0,
                  87487479700 / 32700410799, -10690763975 / 1880347072,
                  701980252875 / 199316789632, -1453857185 / 822651844,
                  69997945 / 29380423))
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(z: np.ndarray) -> float:
    # the bits of np.sqrt(np.mean(np.square(z))) at a quarter of the cost;
    # z @ z would sum in BLAS's order instead
    return math.sqrt(float((z * z).sum()) / z.size)


def _dopri_step(evaluate, x, f, h):
    """One step of size ``h`` from ``x`` with ``f = f(x)``: the stages
    ``k`` (7 × n), the 5th-order solution and the held rows' free values
    there, which come with ``k[6]`` (first same as last) at no extra cost."""
    k = np.empty((7, x.size))
    k[0] = f
    for s, a in enumerate(_DP_A, start=1):
        x1 = x + h * (a @ k[:s])
        k[s], free1 = evaluate(x1)
    return k, x1, free1


def _dense(x, x1, k, h, theta, step, out):
    """States at the fractions ``theta`` (1-D) of steps, written into the
    rows of ``out`` and returned: the 4th-order interpolant of Hairer's
    CONTD5, one row per fraction.  The steps are stacked on a leading axis
    (``x``, ``x1`` and ``k`` of each, ``h`` its size), and ``step[j]`` is
    the step of fraction ``theta[j]``, in ascending order.  CONTD5 regrouped
    is ``x + s dx + su r3 + s su r4 + su su r5`` with ``su = s (1 - s)``, so
    the samples of a step are one product of their coefficients ``[1, s,
    su, s su, su su]`` (one row per sample) with the step's rows ``[x, dx,
    r3, r4, r5]``, each formed once for all stacked steps."""
    rows = np.empty((x.shape[0], 5, x.shape[1]))
    rows[:, 0] = x
    dx = np.subtract(x1, x, out=rows[:, 1])
    h = h[:, None]
    r3 = np.subtract(h * k[:, 0], dx, out=rows[:, 2])
    np.subtract(dx - h * k[:, 6], r3, out=rows[:, 3])
    np.multiply(h, _DP_D @ k, out=rows[:, 4])
    su = theta * (1.0 - theta)
    coef = np.column_stack((np.ones_like(theta), theta, su, theta * su,
                            su * su))
    a = 0
    for j, b in enumerate(np.bincount(step).cumsum().tolist()):
        np.matmul(coef[a:b], rows[j], out=out[a:b])
        a = b
    return out


def _starting_step(evaluate, x, f, rtol):
    """Hairer's starting step (Solving ODEs I, II.4), one evaluation."""
    scale = ATOL + rtol * np.abs(x)
    d0, d1 = _rms(x / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = _rms((evaluate(x + h0 * f)[0] - f) / scale) / h0
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.2
    return min(100.0 * h0, h1)


class _Recorder:
    """The trace of a run, written once into buffers of the planned
    ``rows``: row 0 at t = 0, then each segment's sample times in turn,
    one segment open at a time.  ``step`` keeps an accepted step as the
    step loop holds it: its start ``t``, size ``h``, states ``x`` and
    ``x1`` at its ends, stages ``k`` and the point ``t1`` it was used up
    to.  ``close`` maps the segment's samples to its steps, writes their
    dense output into their rows in one stacked pass of ``_dense`` and
    clips it there; a held stretch repeats the t = 0 row of ``start`` over
    every sample of its segment.  It then writes the voltages and device
    outputs of the segment's rows from one ``DynamicSystem.observe`` over
    the stacked samples (over the one row of a held stretch, broadcast
    over its rows), with the bits of a solve per sample and each machine's
    E'' computed once, and takes their power-balance residual, also
    stacked.  A single-sample network solve thus runs once per model
    evaluation, never per recorded sample."""

    def __init__(self, model: DynamicSystem, clip, rows: int):
        self.model = model
        self.clip = clip
        self.names = [str(lab) for lab in model.state_labels()]
        self.bus_ids = [b.id for b in model.network.buses]
        self.time = np.empty(rows)
        self.states = np.empty((rows, model.n_states))
        self.voltages = np.empty((rows, len(self.bus_ids)), dtype=complex)
        self.outputs: dict[str, np.ndarray] = {}   # keyed at the first close
        # the rows of the closed segments
        self.n = 0
        # the open segment: its grid and sample times, the row of its first
        # sample and the first of its rows (after row 0, t = 0), whether
        # its samples are held, and its steps
        self.grid: GridModel | None = None
        self.samples = np.empty(0)
        self.row = self.lo = 1
        self.held = False
        self.steps: list[tuple] = []
        self.max_residual = 0.0

    def open(self, grid, samples):
        """Open a segment at the first row not yet taken."""
        self.grid, self.samples = grid, samples
        self.time[self.row:self.row + samples.size] = samples

    def start(self, x, held):
        """The t = 0 row ``x``, the first of the open segment; if ``held``,
        every sample of the segment equals it."""
        self.time[0], self.states[0] = 0.0, x
        self.lo, self.held = 0, held

    def step(self, t, h, x, x1, k, t1):
        self.steps.append((t, h, x, x1, k, t1))

    def close(self, complete=False):
        """Close the open segment.  Each sample goes to the first step
        whose ``t1`` reaches it; a ``complete`` segment ends at its last
        step, which takes its last sample as that step's end itself, and
        any other ends at the last sample its steps reach, short of the
        segment's last.  The segment is left before its rows are solved,
        so a sample without a network solution raises ``SystemModelError``
        and leaves only the closed segments."""
        n = self.samples.size if complete or self.held else 0
        if self.steps:
            t, h, x, x1, k, t1 = zip(*self.steps)
            self.steps = []
            if not complete:
                n = min(int(np.searchsorted(self.samples, t1[-1], "right")),
                        self.samples.size - 1)
            times = self.samples[:n]
            step = np.searchsorted(t1, times)
            if complete:
                step[-1] = len(t1) - 1
            h = np.array(h)
            xs = self.states[self.row:self.row + n]
            _dense(np.array(x), np.array(x1), np.array(k), h,
                   (times - np.array(t)[step]) / h[step], step, xs)
            if complete:
                xs[-1] = x1[-1]
            self.clip(xs)
        lo, hi, held = self.lo, self.row + n, self.held
        self.row = self.lo = hi
        self.held = False
        if hi == lo:
            return
        x = self.states[lo:lo + 1 if held else hi]    # held: one row
        v, outputs = self.model.observe(x, self.grid)
        res = self.model.power_balance_residual(v, outputs, grid=self.grid)
        self.max_residual = max(self.max_residual, float(res.max()))
        if held:                        # the one row over the held rows
            self.states[lo + 1:hi] = x
        self.voltages[lo:hi] = v[:, :len(self.bus_ids)]
        if not self.outputs:
            self.outputs = {key: np.empty(self.time.size) for key in outputs}
        for key, o in outputs.items():
            self.outputs[key][lo:hi] = o
        self.n = hi

    def trace(self, events) -> Trace:
        """The run so far, the rows of its closed segments; a rotor speed
        outside its device's protection band is logged here, once per
        device and run."""
        self.close()
        n = self.n
        time = self.time[:n]
        outputs = {key: o[:n] for key, o in self.outputs.items()}
        for dev in self.model.devices:
            if dev.speed_band is None:
                continue
            lo, hi = dev.speed_band
            speed = outputs[f"{dev.device_id}.rotor_speed"]
            out = np.flatnonzero((speed < lo) | (speed > hi))
            if out.size:
                logger.warning(
                    "%s: rotor speed %.3f pu at t=%.3fs is outside the "
                    "protection band [%.2f, %.2f]", dev.device_id,
                    speed[out[0]], time[out[0]], lo, hi)
        return Trace(
            time=time,
            states=self.states[:n],
            state_names=self.names,
            voltages=self.voltages[:n],
            bus_ids=self.bus_ids,
            outputs=outputs,
            events=tuple(events),
            max_balance_residual=self.max_residual,
        )


class _Limiters:
    """The exciters' and converters' non-windup limiters in a ``simulate``
    run: the bounds from ``model.limits()`` and the held system indices, each
    with its free derivative at the current point, signed so that a
    positive value pushes against the bound.  A held state's row of every
    stage is zero, so the state keeps its bits through steps and dense
    output; no device equation reads another state's derivative, so no
    other row changes.  Each evaluation, one ``model.rhs`` call, also
    gives the held rows' free values, so holding costs no extra one."""

    def __init__(self, model: DynamicSystem):
        self.model = model
        # (system state index, lo, hi) of every limited state
        self.bounds = model.limits()
        self._index = [g for g, _, _ in self.bounds]
        self._lo = np.array([lo for _, lo, _ in self.bounds])
        self._hi = np.array([hi for _, _, hi in self.bounds])
        self.held: dict[int, float] = {}

    def _push(self, g, x, free):
        """``free``, the free derivative of held ``g``, signed outward."""
        hi = next(hi for k, _, hi in self.bounds if k == g)
        return free if x[g] >= hi else -free

    def evaluate(self, x, grid):
        """``(f, free)``: ``model.rhs`` with the held rows zeroed, and
        their values before, in the order of ``held``."""
        f = self.model.rhs(x, grid)
        free = ()
        if self.held:
            held = list(self.held)
            free = f[held]
            f[held] = 0.0
        return f, free

    def start(self, x, grid):
        """``f`` of ``evaluate`` at a fresh start, noting the free
        derivatives of the held states there."""
        f, free = self.evaluate(x, grid)
        for g, p in zip(self.held, free):
            self.held[g] = self._push(g, x, p)
        return f

    def inside(self, x):
        """Whether every limited state lies strictly inside its bounds."""
        z = x[self._index]
        return bool(np.all((self._lo < z) & (z < self._hi)))

    def first_switch(self, x, x1, free1):
        """The first limiter switch inside an accepted step from ``x`` to
        ``x1``, as ``(theta, index, bound)``, ``bound`` ``None`` for a
        release; or ``None``.  ``theta`` is the fraction of the step.  A
        free state that ends the step beyond a bound crosses it where the
        secant on ``x_g - bound`` between the step's ends does; a held
        state whose free derivative at ``x1`` points back inside is
        released where the secant between its free derivatives at the two
        ends changes sign.  ``free1``, the held states' free derivatives at
        ``x1`` from the step's last stage, is noted for the next step."""
        first = None
        for g, lo, hi in self.bounds:
            if g in self.held or lo <= x1[g] <= hi:
                continue
            bound = hi if x1[g] > hi else lo
            g0, g1 = x[g] - bound, x1[g] - bound
            # held at once if outside already; if released on the bound and
            # back out within the step, held at its end, so that a release
            # is always followed by progress
            theta = (g0 / (g0 - g1) if g0 * g1 < 0.0
                     else 1.0 if g0 == 0.0 else 0.0)
            if first is None or theta < first[0]:
                first = (theta, g, bound)
        for (g, p0), p in zip(self.held.items(), free1):
            p1 = self._push(g, x1, p)
            self.held[g] = p1
            if p1 < 0.0:
                theta = p0 / (p0 - p1) if p0 > 0.0 else 0.0
                if first is None or theta < first[0]:
                    first = (theta, g, None)
        return first

    def clip(self, xs):
        """Clamp stacked samples onto the bounds: the dense output of a
        step that ends at a located crossing may graze the bound before."""
        xs[:, self._index] = np.clip(xs[:, self._index], self._lo, self._hi)


def simulate(model: DynamicSystem, equilibrium: np.ndarray | None = None,
             events=(), t_end: float = 10.0, dt_max: float = 1e-3,
             rtol: float = RTOL) -> Trace:
    """Integrate the system through scripted events.

    Explicit Dormand-Prince 5(4) with first-same-as-last stages, error
    control and 4th-order dense output (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4-II.6).  A step is accepted when the RMS of its error
    estimate, scaled by ``ATOL + rtol * max(|x|, |x_new|)``, is at most
    1; the next step is the last one times ``0.9 * err**(-1/5)``, clamped
    to [0.2, 10] and to at most 1 right after a rejection.  The step is
    free of the recording grid: ``dt_max`` is only the sample spacing, with
    ``ceil(length / dt_max)`` evenly spaced samples per segment, whose
    states come from the dense output of the step that contains them (a
    segment's last sample is that step's end itself).  That plan, and with
    it the trace's row count, is known before the first step, so the trace
    is allocated once and each row is written once.  The step loop does
    no work for the samples: the recorder keeps each accepted step as it
    is and, when the segment closes, writes the dense output of all its
    samples into the trace, and clips it there onto the limiter bounds, in
    one stacked pass with the bits of a pass per step.  The dense output
    is CONTD5 regrouped as
    ``x + s dx + s(1-s) r3 + s^2(1-s) r4 + s^2(1-s)^2 r5`` for the fraction
    ``s`` of the step: each step's samples are one product of their five
    coefficients with the step's five rows, within a few units in the last
    place of the Horner form.  Each stage solves the network once; the
    samples' voltages, device outputs and ``max_balance_residual`` are
    computed once per segment, over its stacked samples, by one broadcast
    network solve (``DynamicSystem.observe``) that computes each machine's
    E'' once for both voltages and outputs.

    Steps are at most ``H_MAX`` (40 ms): h|lambda| <= 2.6 for the largest
    |lambda| of the packaged studies (65.6/s), inside the method's real
    stability interval (about -3.3), so an equilibrium holds to the size of
    its residual instead of drifting at the tolerance.

    The quiet stretch before the first event is not integrated when the
    first segment ends at an event before ``t_end``, every limited state
    lies strictly inside its bounds at the start state ``x0``, and
    ``max|f(x0)| * t_first <= ATOL``: that segment's samples are ``x0``,
    recorded as that one row and their times, whose voltages, device
    outputs and residual come from one solve of the row, and integration
    starts at the event.  Over a stretch of length t the
    state moves by about ``|f(x0)| t``, which the error control cannot tell
    from standing still within its absolute floor ``ATOL``.  The rule reads
    only ``f(x0)``, the segment's first evaluation and the stretch's only
    one, so ``equilibrium=model.equilibrium()`` runs exactly as ``None``
    does.  An equilibrium with an unstable mode is thus held exactly until
    the first event instead of growing from its residual; a start state off
    the equilibrium, with ``|f(x0)|`` far above ``ATOL``, integrates from
    t = 0, and a run with no event before ``t_end`` integrates throughout.

    Limited states (``model.limits()``) are held here, not in the
    devices: every stage zeroes the rows of held states, so a held state
    stays on its bound bit for bit.  After each accepted step, a free state
    that ends it beyond a bound has crossed the bound where the secant on
    ``x_g - bound`` between the step's ends does, and a held state whose
    free derivative at the step's end points back inside is released where
    the secant between its free derivatives at the two ends changes sign.
    The step ends at the first such switch, the state is clamped and held
    or released there, and integration starts afresh.  The free derivatives
    at a step's end come from its last stage: a hold costs no extra
    evaluation, only a switch does.

    The event script is turned into segments of constant grid before the
    first step, so a script error (clearing a fault that is not on,
    tripping a branch twice, a grid that cannot be built) raises
    :class:`SimulationError` before any integration.  Every segment starts
    afresh, with Hairer's starting step, and its last step lands exactly on
    its end; steps shortened to land on a segment end or a limiter switch
    may be shorter than ``DT_MIN``.  A rejected step whose retry would be
    shorter than ``DT_MIN`` ends the run with ``integration stalled``; a
    step whose error estimate is not finite (a NaN derivative) is
    rejected, so it ends the same way.  On a stall, or a network solve
    that fails at a stage or a sample, the partial history is attached to
    the raised :class:`SimulationError` (``None`` if the network fails at
    t = 0, before anything is recorded).
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    if not DT_MIN <= dt_max < math.inf:
        raise ValueError(f"dt_max must be finite and at least DT_MIN = "
                         f"{DT_MIN:g} s")
    if not 0.0 < rtol < 1.0:
        raise ValueError("rtol must lie in (0, 1)")

    x = (model.equilibrium() if equilibrium is None
         else np.asarray(equilibrium, dtype=float).copy())
    if x.shape != (model.n_states,):
        raise ValueError(f"equilibrium has shape {x.shape}; model has "
                         f"{model.n_states} states")

    # each segment's sample times, all known before the first step
    plan = []
    for seg_start, seg_end, grid in _segments(model, events, t_end):
        length = seg_end - seg_start
        n = max(1, int(np.ceil(length / dt_max - 1e-9)))
        samples = seg_start + np.arange(1, n + 1) * (length / n)
        plan.append((seg_start, seg_end, grid, samples))
    limiters = _Limiters(model)
    rec = _Recorder(model, limiters.clip,
                    1 + sum(samples.size for *_, samples in plan))

    t = 0.0
    try:
        for seg_start, seg_end, grid, samples in plan:
            def evaluate(z):
                return limiters.evaluate(z, grid)

            rec.open(grid, samples)
            f = limiters.start(x, grid)
            h, rejected, last = None, False, False
            if seg_start == 0.0:
                # the quiet stretch before the first event (see docstring)
                held = (seg_end < t_end and limiters.inside(x)
                        and np.abs(f).max() * seg_end <= ATOL)
                rec.start(x, held)
                if held:
                    t, last = seg_end, True
            while not last:
                if h is None:           # a fresh start
                    h, rejected = _starting_step(evaluate, x, f, rtol), False
                h = min(h, H_MAX)
                last = t + h >= seg_end
                step = seg_end - t if last else h
                k, x1, free1 = _dopri_step(evaluate, x, f, step)
                scale = ATOL + rtol * np.maximum(np.abs(x), np.abs(x1))
                err = _rms(step * (_DP_E @ k) / scale)
                # max() keeps MIN_FACTOR for a NaN err; inf gives 0 here
                factor = max(MIN_FACTOR, SAFETY * err ** -0.2) if err else \
                    MAX_FACTOR
                if not err <= 1.0:      # rejected; so is a NaN
                    h = step * factor
                    if not h >= DT_MIN:
                        raise SimulationError(
                            f"integration stalled at t={t:.6f}s (the error "
                            f"estimate asks for a step below DT_MIN="
                            f"{DT_MIN:.2e}s)", rec.trace(events))
                    last, rejected = False, True
                    continue
                h = step * min(factor, 1.0 if rejected else MAX_FACTOR)
                rejected = False

                switch = limiters.first_switch(x, x1, free1)
                theta = 1.0 if switch is None else switch[0]
                last = last and theta == 1.0
                t1 = seg_end if last else t + theta * step
                rec.step(t, step, x, x1, k, t1)
                if switch is None:
                    x, f, t = x1, k[6], t1
                    continue
                # end the step at the switch and start afresh, from a copy
                # of x1: the recorder holds it
                _, g, bound = switch
                x = x1.copy() if theta == 1.0 else _dense(
                    x[None], x1[None], k[None], np.array([step]),
                    np.array([theta]), [0], np.empty((1, x.size)))[0]
                if bound is None:
                    del limiters.held[g]
                else:
                    x[g] = bound
                    limiters.held[g] = 0.0
                t, f, h = t1, limiters.start(x, grid), None
            rec.close(complete=True)
    except SystemModelError as exc:
        # no network solution at some state (e.g. voltage collapse)
        try:
            rec.close()
        except SystemModelError:
            pass            # the open segment's samples are left out
        raise SimulationError(
            f"network solution failed at t={t:.6f}s: {exc}",
            rec.trace(events) if rec.n else None) from exc

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
