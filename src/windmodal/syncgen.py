"""Sixth-order synchronous machine with excitation and stabilizer.

Two-axis model with one transient and one subtransient circuit per axis,
interfaced to the network as a Norton source behind Ra + jX''.  Equal d- and
q-axis subtransient reactances are required so the interface reduces to a
single complex impedance.  Controls are deliberately low order: a first-order
static exciter and a speed-input stabilizer (washout plus two lead-lag stages)
whose output is clamped; mechanical power is a first-order lag to its dispatch.
Field voltage has a non-windup limit (``limits``) that the integrator holds.
"""

from __future__ import annotations

import math

import numpy as np

from .devices import (STACK, DeviceError, DeviceModel, above, finite,
                      nonnegative, parameter_class, positive)

# index of the limited state: field voltage
EFD = 6
# the rotor angle delta locates the q axis; the d axis lags it by pi/2
_QUARTER_TURN = math.pi / 2.0


@parameter_class(DeviceError)
class SyncGenParams:
    """Machine and control constants, per unit on ``base_mva``."""

    base_mva: float = positive(900.0)
    h_s: float = positive(6.5)        # inertia constant, s
    d_pu: float = nonnegative(0.0)    # damping torque coefficient
    ra: float = nonnegative(0.0025)
    xd: float = above("xd_t", 1.8)
    xq: float = above("xq_t", 1.7)
    xd_t: float = above("xd_st", 0.3)     # transient reactances
    xq_t: float = above("xq_st", 0.55)
    xd_st: float = above("ra", 0.25)      # subtransient; d and q must match
    xq_st: float = positive(0.25)
    td0_t: float = positive(8.0)      # open-circuit time constants, s
    tq0_t: float = positive(0.45)
    td0_st: float = positive(0.03)
    tq0_st: float = positive(0.05)

    # static exciter
    ka: float = positive(200.0)
    ta: float = positive(0.02)
    efd_max: float = above("efd_min", 6.0)
    efd_min: float = finite(0.0)

    # power system stabilizer on speed deviation
    k_pss: float = nonnegative(10.0)
    t_washout: float = positive(10.0)
    t1: float = nonnegative(0.05)
    t2: float = positive(0.02)
    t3: float = nonnegative(3.0)
    t4: float = positive(5.4)
    vs_max: float = nonnegative(0.2)

    # turbine: pm is a first-order lag to its dispatch in (pm_min, pm_max)
    t_gov: float = positive(0.5)
    pm_max: float = above("pm_min", 1.0)
    pm_min: float = nonnegative(0.0)

    def __post_init__(self):
        if self.xd_st != self.xq_st:
            raise DeviceError(
                "equal subtransient reactances are required for the complex "
                f"Norton interface (xd_st={self.xd_st}, xq_st={self.xq_st})"
            )


class SyncGen(DeviceModel):
    """State order: delta, speed, eq_t, ed_t, eq_st, ed_st, efd, pm,
    pss_washout, pss_lead1, pss_lead2.  Speed is the per-unit deviation."""

    device_class = "synchronous"

    state_names = (
        "delta", "speed", "eq_t", "ed_t", "eq_st", "ed_st",
        "efd", "pm", "pss_washout", "pss_lead1", "pss_lead2",
    )

    def __init__(self, device_id: str, bus_id: int, params: SyncGenParams):
        super().__init__(device_id, bus_id)
        self.params = params
        self.v_ref = None
        self.pm_ref = None
        # what ``rates`` reads of the parameters and omega_s, set by
        # initialize()
        self._coef = None
        # 1 / (ra + j xd'')
        self._y_dev = 1.0 / complex(params.ra, params.xd_st)

    # -- network interface ------------------------------------------------

    def norton_admittance(self, system_base_mva):
        return self._y_dev * self.params.base_mva / system_base_mva

    # named on the class, where ``bench/tracer.py`` wraps it
    derivatives = DeviceModel.derivatives

    def internal(self, states, m):
        return _subtransient_emf(m, states)

    def source(self, states, emf, m, system_base_mva):
        e_re, e_im, _, _ = emf
        y, base = self._y_dev, self.params.base_mva
        i_re = (y.real * e_re - y.imag * e_im) * base
        i_im = (y.real * e_im + y.imag * e_re) * base
        return m.complex(i_re / system_base_mva, i_im / system_base_mva)

    # -- initialization ----------------------------------------------------

    def initialize(self, v, s_gen_system, system_base_mva, omega_s):
        p = self.params
        # the ratio and denominator of Python's complex division by
        # ra + j xd'' (Smith's, scaled by xd'' > ra), then the factors of
        # ``rates`` that depend only on the parameters and omega_s, each
        # formed as its term would form it in place, so the rates round
        # alike
        ratio = p.ra / p.xd_st
        self._coef = (
            ratio, p.ra * ratio + p.xd_st, p.t1 / p.t2, 1.0 - p.t1 / p.t2,
            p.t3 / p.t4, 1.0 - p.t3 / p.t4, p.k_pss, p.vs_max, omega_s,
            p.d_pu, 2.0 * p.h_s, p.xd - p.xd_t, p.td0_t, p.xq - p.xq_t,
            p.tq0_t, p.xd_t - p.xd_st, p.td0_st, p.xq_t - p.xq_st, p.tq0_st,
            p.ka, p.ta, p.t_gov, p.t_washout, p.t2, p.t4)
        s_dev = s_gen_system * system_base_mva / p.base_mva
        i = np.conj(s_dev / v)
        # internal emf along the q axis fixes the rotor angle
        e = v + complex(p.ra, p.xq) * i
        delta0 = float(np.angle(e))
        rot = np.exp(-1j * (delta0 - np.pi / 2.0))
        v_dq = v * rot
        i_dq = i * rot
        vd, vq = v_dq.real, v_dq.imag
        id_, iq = i_dq.real, i_dq.imag

        eq_st = vq + p.ra * iq + p.xd_st * id_
        ed_st = vd + p.ra * id_ - p.xq_st * iq
        eq_t = vq + p.ra * iq + p.xd_t * id_
        ed_t = vd + p.ra * id_ - p.xq_t * iq
        efd0 = vq + p.ra * iq + p.xd * id_
        te0 = ed_st * id_ + eq_st * iq

        if not p.efd_min < efd0 < p.efd_max:
            raise DeviceError(
                f"{self.device_id}: field voltage {efd0:.3f} pu at the "
                "operating point violates the exciter limits"
            )
        if not p.pm_min < te0 < p.pm_max:
            raise DeviceError(
                f"{self.device_id}: mechanical power {te0:.3f} pu at the "
                "operating point violates the turbine limits"
            )
        # plain floats, so that derivatives() does no numpy scalar arithmetic
        self.v_ref = float(abs(v) + efd0 / p.ka)
        self.pm_ref = float(te0)
        return np.array([
            delta0, 0.0, eq_t, ed_t, eq_st, ed_st, efd0, te0, 0.0, 0.0, 0.0,
        ])

    # -- dynamics ----------------------------------------------------------

    def limits(self):
        p = self.params
        return ((EFD, p.efd_min, p.efd_max),)

    def rates(self, states, emf, v, m):
        (delta, speed, eq_t, ed_t, eq_st, ed_st, efd, pm,
         pss_w, pss_a, pss_b) = states
        (r, den, lead1, lag1, lead2, lag2, k_pss, vs_max, omega_s, d_pu,
         two_h, xd_xd_t, td0_t, xq_xq_t, tq0_t, xd_t_xd_st, td0_st,
         xq_t_xq_st, tq0_st, ka, ta, t_gov, t_washout, t2, t4) = self._coef
        e_re, e_im, c, s = emf
        # stator current (E'' - v) / (ra + j xd''), divided as Python's
        # complex ``/`` does (numpy's division rounds differently)
        a_re, a_im = e_re - v.real, e_im - v.imag
        i_re = (a_re * r + a_im) / den
        i_im = (a_im * r - a_re) / den
        # stator current in the machine frame: i_net * conj(rotation)
        id_ = i_re * c + i_im * s
        iq = i_im * c - i_re * s
        te = ed_st * id_ + eq_st * iq

        # stabilizer chain: washout then two lead-lags, clamped output
        y_w = speed - pss_w
        y_1 = lead1 * y_w + lag1 * pss_a
        y_2 = lead2 * y_1 + lag2 * pss_b
        v_s = m.min(m.max(k_pss * y_2, -vs_max), vs_max)

        return [
            omega_s * speed,
            (pm - te - d_pu * speed) / two_h,
            (efd - eq_t - xd_xd_t * id_) / td0_t,
            (-ed_t + xq_xq_t * iq) / tq0_t,
            (eq_t - eq_st - xd_t_xd_st * id_) / td0_st,
            (ed_t - ed_st + xq_t_xq_st * iq) / tq0_st,
            (ka * (self.v_ref - m.modulus(v) + v_s) - efd) / ta,
            (self.pm_ref - pm) / t_gov,
            y_w / t_washout,
            (y_w - pss_a) / t2,
            (y_1 - pss_b) / t4,
        ]

    def outputs(self, x, v, emf=None):
        # the emf's product written out for the bits of one sample at a
        # time, as in ``_subtransient_emf``
        x, v = np.asarray(x), np.asarray(v)
        e_re, e_im, _, _ = self.internal(x.T, STACK) if emf is None else emf
        i_net = ((e_re + 1j * e_im - v)
                 / complex(self.params.ra, self.params.xd_st))
        speed = 1.0 + x[..., 1]
        return {       # v * conj(i_net)
            "rotor_speed": speed,
            "active_power": v.real * i_net.real + v.imag * i_net.imag,
            "reactive_power": v.imag * i_net.real - v.real * i_net.imag,
            "bus_frequency": speed,
        }


def _subtransient_emf(m, states):
    """``(E''.real, E''.imag, cos, sin)``: the emf ``(ed'' + j eq'')
    e^{j(delta - pi/2)}`` on the network frame and the parts of that
    rotation, with the operations ``m`` (``devices.OPS``).  The product is
    written out as Python's complex one, (ac - bd) + (ad + bc)j, for the
    same bits on a stack; numpy's complex product rounds differently."""
    angle = states[0] - _QUARTER_TURN
    c, s = m.cos(angle), m.sin(angle)
    ed, eq = states[5], states[4]
    return ed * c - eq * s, ed * s + eq * c, c, s
