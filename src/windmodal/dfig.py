"""Reduced-order DFIG wind farm model with primary frequency support.

The aggregated farm is represented the way stability studies usually do it:
stator transients are neglected, the machine plus its converter act as a
controlled current injection, and the converter current control is a
first-order lag.  On top of that sit

* a single-mass drive train (wind power in, electrical power out),
* a maximum-power-tracking curve P_opt(rotor speed),
* farm-level active-power command dynamics (second order), and
* the frequency-support droop  P_ref = P_opt - K_p*df - K_in*d(df)/dt,
  fed by a washout estimate of the local bus frequency and a filtered
  rate-of-change-of-frequency signal.

Kinetic-energy extraction for inertial response is implicit: whenever the
command exceeds the wind input the rotor decelerates, the tracking curve
winds the reference back down, and the rotor recovers.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .devices import (SCALAR, DeviceError, DeviceModel, nonnegative,
                      parameter_class, positive)

# Rotor-speed protection band, per unit.  A simulation logs an excursion
# on the recorded speed (``DeviceModel.speed_band``); nothing trips.
ROTOR_SPEED_BOUNDS = (0.6, 1.3)

# index of the reactive-channel integrator, whose limit is non-windup
Q_CTRL = 7

CONTROL_MODES = ("voltage", "reactive_power")   # reactive-channel outer loop
# K_p and K_in values of the gain studies (single machine and sweep)
DEFAULT_GAIN_GRID = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def check_control_mode(mode: str) -> None:
    """Reject a reactive-channel mode outside ``CONTROL_MODES``."""
    if mode not in CONTROL_MODES:
        raise DeviceError("control_mode must be " + " or ".join(
            map(repr, CONTROL_MODES)) + f", got {mode!r}")


@parameter_class(DeviceError)
class DroopParams:
    """Gains of the primary-support law, per unit on the device base."""

    kp: float = nonnegative(0.0)
    kin: float = nonnegative(0.0)
    rocof_filter_time: float = positive(0.1)
    enabled: bool = False


# The cubic tracking curve P_opt(w): zero at and below cut-in, K_OPT*w^3 up
# to rated speed, then flat at P_RATED.  With K_OPT = 1 and rated speed 1.0
# the top is exactly 1.0 pu, so the flat segment doubles as the pitch
# limiter.  Speeds are clamped to [0, SPEED_MAX], the top of the protection
# band.
K_OPT = 1.0
SPEED_CUTIN = 0.5
SPEED_RATED = 1.0
SPEED_MAX = ROTOR_SPEED_BOUNDS[1]
P_RATED = K_OPT * SPEED_RATED ** 3


def p_opt(speed, m=SCALAR):
    """Tracking power at ``speed``, clamped to the domain [0, SPEED_MAX]
    without a log record: every speed outside it is also outside the
    protection band, which a simulation reports once.  ``speed`` may be an
    array of samples, with ``m=devices.STACK``."""
    speed = m.min(m.max(speed, 0.0), SPEED_MAX)
    p = m.min(K_OPT * m.pow(speed, 3), P_RATED)
    return m.where(speed <= SPEED_CUTIN, 0.0, p)


def speed_at(power: float) -> float:
    """Inverse of the cubic segment; errors outside the tracking range."""
    if not 0.0 < power <= P_RATED:
        raise DeviceError(
            f"power {power:.4f} pu is outside the tracking range "
            f"(0, {P_RATED:.4f}]"
        )
    speed = (power / K_OPT) ** (1.0 / 3.0)
    if speed <= SPEED_CUTIN:
        raise DeviceError(
            f"power {power:.4f} pu would require operating below cut-in"
        )
    return speed


def frequency_support_reference(delta_f: float, rocof: float,
                                droop: DroopParams) -> float:
    """Droop power, the support added to the tracked active-power reference.

    ``delta_f`` is the per-unit frequency deviation, ``rocof`` its filtered
    derivative in pu/s.  Disabled droop gives 0.0, which is also what zero
    gains produce.
    """
    if not droop.enabled:
        return 0.0
    return -droop.kp * delta_f - droop.kin * rocof


@parameter_class(DeviceError)
class DfigParams:
    """Aggregated-farm parameters, per unit on ``base_mva``.

    With stator transients neglected the farm is a current source with no
    Norton shunt, and its electrical response is governed by the converter
    controls, so the model carries no induction-machine constants.
    """

    base_mva: float = positive(300.0)
    h_turbine: float = positive(4.0)  # lumped drive-train inertia, s

    # converter current control
    t_current: float = positive(0.02)
    i_pmax: float = positive(1.2)
    i_qmax: float = positive(0.66)
    v_filter_time: float = positive(0.05)
    v_floor: float = positive(0.2)

    # farm-level active-power command dynamics; the speed-tracking power
    # reference is deliberately slow so fast power moves come only from the
    # frequency-support path
    p_ctrl_omega: float = positive(16.3)  # rad/s
    p_ctrl_zeta: float = positive(0.125)
    mppt_filter_time: float = positive(5.0)

    # reactive channel (voltage-control or constant-Q outer loop)
    kv_p: float = nonnegative(0.0)
    kv_i: float = nonnegative(20.0)
    kq_p: float = nonnegative(0.0)
    kq_i: float = nonnegative(2.0)

    # frequency measurement and droop actuation.  The actuation stage is a
    # damped second-order tracker: nearly transparent at electromechanical
    # frequencies, with its phase concentrated up where the power-command
    # dynamics live.  Its poles are kept away from the ROCOF washout pole so
    # the independent channels never produce a repeated eigenvalue (which
    # would defeat modal analysis).
    freq_filter_time: float = positive(0.025)
    droop_omega: float = positive(26.0)
    droop_zeta: float = positive(0.40)

    control_mode: str = "voltage"  # one of CONTROL_MODES
    droop: DroopParams = field(default_factory=DroopParams)

    def __post_init__(self):
        check_control_mode(self.control_mode)


class Dfig(DeviceModel):
    """Dynamic model of the aggregated farm; see the module docstring."""

    device_class = "converter"

    speed_band = ROTOR_SPEED_BOUNDS

    state_names = (
        "rotor_speed",   # drive train, pu
        "p_cmd",         # farm power command, pu
        "p_cmd_rate",    # its rate, pu/s
        "droop_power",   # droop contribution after the actuation stage, pu
        "droop_rate",    # its rate, pu/s
        "i_p",           # active current, pu
        "v_filt",        # feed-forward voltage filter, pu
        "q_ctrl",        # reactive-channel integrator, pu
        "i_q",           # reactive current, pu
        "angle_filt",    # frequency-washout state, rad
        "rocof_filt",    # rocof-washout state, pu
        "mppt_power",    # filtered speed-tracking power reference, pu
    )

    def __init__(self, device_id: str, bus_id: int, params: DfigParams):
        super().__init__(device_id, bus_id)
        self.params = params
        # operating point, fixed by initialize()
        self.p_mech = None
        self.v_ref = None
        self.q_ref = None
        # what ``rates`` reads of the parameters and omega_s
        self._coef = None

    def initialize(self, v, s_gen_system, system_base_mva, omega_s):
        p = self.params
        vm = abs(v)
        if vm < p.v_floor:
            raise DeviceError(
                f"{self.device_id}: terminal voltage {vm:.3f} pu too low to initialize"
            )
        s_dev = s_gen_system * system_base_mva / p.base_mva
        p0, q0 = s_dev.real, s_dev.imag
        speed0 = speed_at(p0)  # errors if dispatch is off the curve
        i_p0 = p0 / vm
        i_q0 = q0 / vm
        if i_p0 > p.i_pmax or abs(i_q0) > p.i_qmax:
            raise DeviceError(
                f"{self.device_id}: dispatch exceeds converter current limits"
            )
        self.p_mech = p0
        self.v_ref = vm
        self.q_ref = q0
        # the factors of ``rates`` that depend only on the parameters and
        # omega_s, each formed as its term would form it in place, so the
        # rates round alike; the reactive gains are those of its mode
        voltage = p.control_mode == "voltage"
        self._coef = (
            p.freq_filter_time * omega_s, p.droop.rocof_filter_time, p.droop,
            p.p_ctrl_omega ** 2, 2.0 * p.p_ctrl_zeta * p.p_ctrl_omega,
            p.v_floor, p.i_pmax, p.t_current, p.v_filter_time,
            2.0 * p.h_turbine, voltage, p.kv_i if voltage else p.kq_i,
            p.kv_p if voltage else p.kq_p, p.i_qmax, p.droop_omega ** 2,
            2.0 * p.droop_zeta * p.droop_omega, p.freq_filter_time,
            p.mppt_filter_time)
        return np.array([
            speed0, p0, 0.0, 0.0, 0.0, i_p0, vm, i_q0, i_q0, np.angle(v),
            0.0, p0,
        ])

    # named on the class, where ``bench/tracer.py`` wraps them
    source_current = DeviceModel.source_current
    derivatives = DeviceModel.derivatives

    def source(self, states, internal, m, system_base_mva):
        base = self.params.base_mva
        return m.complex(states[5] * base / system_base_mva,
                         -states[8] * base / system_base_mva)

    def limits(self):
        return ((Q_CTRL, -self.params.i_qmax, self.params.i_qmax),)

    def rates(self, states, internal, v, m):
        (speed, p_cmd, p_rate, droop_p, droop_rate, i_p, v_filt, q_ctrl, i_q,
         angle_filt, rocof_filt, p_track) = states
        (tf_omega_s, t_rocof, droop, p_omega2, p_damp, v_floor, i_pmax,
         t_current, t_v, two_h, voltage, k_i, k_p, i_qmax, droop_omega2,
         droop_damp, t_f, t_mppt) = self._coef
        vm = m.modulus(v)
        # washout frequency estimate from the bus angle; wrap-safe difference
        dth = _wrap_angle(m.phase(v) - angle_filt)
        delta_f = dth / tf_omega_s
        rocof = (delta_f - rocof_filt) / t_rocof

        p_curve = p_opt(speed, m)
        droop_target = frequency_support_reference(delta_f, rocof, droop)
        p_ref = p_track + droop_p

        # active channel
        d_p_cmd = p_rate
        d_p_rate = p_omega2 * (p_ref - p_cmd) - p_damp * p_rate
        i_cmd = m.min(m.max(p_cmd / m.max(v_filt, v_floor), 0.0), i_pmax)
        d_i_p = (i_cmd - i_p) / t_current
        d_v_filt = (vm - v_filt) / t_v

        # drive train
        p_elec = vm * i_p
        d_speed = (self.p_mech - p_elec) / (two_h * m.max(speed, 0.05))

        # reactive channel (voltage-control or constant-Q outer loop)
        err = self.v_ref - vm if voltage else self.q_ref - vm * i_q
        d_q_ctrl = k_i * err
        iq_cmd = q_ctrl + k_p * err
        d_i_q = (m.min(m.max(iq_cmd, -i_qmax), i_qmax) - i_q) / t_current

        return [
            d_speed,
            d_p_cmd,
            d_p_rate,
            droop_rate,
            droop_omega2 * (droop_target - droop_p) - droop_damp * droop_rate,
            d_i_p,
            d_v_filt,
            d_q_ctrl,
            d_i_q,
            dth / t_f,
            rocof,
            (p_curve - p_track) / t_mppt,
        ]

    def gain_rows(self, a, offset):
        """``(r, g_p, g_i)`` for ``a``, the state matrix at zero droop gains
        with this farm's states from ``offset``: at (K_p, K_in) row ``r``
        gains K_p*g_p + K_in*g_i, -omega_d^2 times the gradients of df and
        rocof, rows of ``a``: d(angle_filt)/dt / omega_s, d(rocof_filt)/dt."""
        r, angle, rocof = (offset + self.state_names.index(name) for name
                           in ("droop_rate", "angle_filt", "rocof_filt"))
        tf_omega_s, *_, w2, _, t_f, _ = self._coef      # w2 = omega_d^2
        return r, -w2 * t_f / tf_omega_s * a[angle], -w2 * a[rocof]

    def outputs(self, x, v, internal=None):
        x, v = np.asarray(x), np.asarray(v)
        vm = np.hypot(v.real, v.imag)     # the bits of abs() of a complex
        dth = _wrap_angle(np.arctan2(v.imag, v.real) - x[..., 9])
        delta_f = dth / self._coef[0]        # freq_filter_time * omega_s
        return {       # the rotor speed is state 0, recorded once as such
            "active_power": vm * x[..., 5],
            "reactive_power": vm * x[..., 8],
            "bus_frequency": 1.0 + delta_f,
        }


def _wrap_angle(angle: float) -> float:
    """Map an angle difference into (-pi, pi]."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi
