"""Device model tests: synchronous machine and DFIG wind farm.

Each device must reproduce its own initialization: evaluating the
derivatives at the state returned by ``initialize`` with the same terminal
voltage has to give (numerically) zero, otherwise the device would drift
away from the power-flow point it was anchored to.
"""

import math

import numpy as np
import pytest

from windmodal.devices import DeviceError
from windmodal.dfig import (Dfig, DfigParams, DroopParams, MpptCurve,
                            frequency_support_reference, mppt_reference,
                            rocof_estimate)
from windmodal.syncgen import SyncGen, SyncGenParams

OMEGA_S = 2.0 * math.pi * 60.0


def init_and_check(device, v, s_gen, tol=1e-9):
    x0 = device.initialize(v, s_gen, 100.0, OMEGA_S)
    dx = device.derivatives(x0, v)
    assert np.max(np.abs(dx)) < tol, f"drift {np.max(np.abs(dx)):.2e}"
    return x0


# -- synchronous machine ----------------------------------------------------


def test_syncgen_initialization_is_an_equilibrium():
    rng = np.random.default_rng(11)
    gen = SyncGen("G", 1, SyncGenParams())
    for _ in range(15):
        v = rng.uniform(0.95, 1.05) * np.exp(1j * rng.uniform(-0.5, 0.5))
        s = complex(rng.uniform(0.5, 8.0), rng.uniform(-1.0, 2.5))
        init_and_check(gen, v, s)


def test_syncgen_injected_power_matches_dispatch():
    gen = SyncGen("G", 1, SyncGenParams())
    v = 1.01 * np.exp(0.2j)
    s = complex(5.85, 1.1)  # system base
    x0 = gen.initialize(v, s, 100.0, OMEGA_S)
    i = gen.source_current(x0, v, 100.0) - gen.norton_admittance(100.0) * v
    assert abs(v * np.conj(i) - s) < 1e-9


def test_syncgen_outputs_at_equilibrium():
    gen = SyncGen("G", 1, SyncGenParams())
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 4.5 + 0.9j, 100.0, OMEGA_S)
    out = gen.outputs(x0, v)
    assert out["rotor_speed"] == 1.0
    # outputs are on the device base (900 MVA), dispatch on the system base
    assert abs(out["active_power"] - 4.5 * 100.0 / 900.0) < 1e-9
    assert abs(out["reactive_power"] - 0.9 * 100.0 / 900.0) < 1e-9


def test_syncgen_accelerates_when_electrical_load_vanishes():
    p = SyncGenParams()
    gen = SyncGen("G", 1, p)
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 5.0 + 0.5j, 100.0, OMEGA_S)
    # holding the terminal at the subtransient emf zeroes the stator current,
    # so the full mechanical power accelerates the rotor
    dx = gen.derivatives(x0, gen._subtransient_emf(x0))
    assert dx[1] == pytest.approx(x0[7] / (2.0 * p.h_s), rel=1e-12)


def test_syncgen_exciter_limit_is_non_windup():
    p = SyncGenParams()
    gen = SyncGen("G", 1, p)
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 4.0 + 0.8j, 100.0, OMEGA_S)
    x = x0.copy()
    x[6] = p.efd_max
    sag = 0.8 * v  # deep sag drives the exciter up against its ceiling
    dx = gen.derivatives(x, sag)
    assert dx[6] == 0.0
    x[6] = p.efd_min
    swell = 1.2 * v
    dx = gen.derivatives(x, swell)
    assert dx[6] == 0.0


def test_syncgen_rejects_dispatch_outside_limits():
    gen = SyncGen("G", 1, SyncGenParams())
    with pytest.raises(DeviceError, match="mechanical power"):
        gen.initialize(1.0 + 0.0j, 15.0 + 0.0j, 100.0, OMEGA_S)


@pytest.mark.parametrize("kwargs, match", [
    (dict(xd_st=0.25, xq_st=0.3), "equal subtransient"),
    (dict(xd_t=2.0), "xd > xd_t"),
    (dict(xq_t=1.9), "xq > xq_t"),
    (dict(h_s=0.0), "must be positive"),
    (dict(ta=-0.01), "must be positive"),
])
def test_syncgen_parameter_validation(kwargs, match):
    with pytest.raises(DeviceError, match=match):
        SyncGenParams(**kwargs)


def test_governor_holds_dispatch_when_disabled():
    gen = SyncGen("G", 1, SyncGenParams(has_governor=False))
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 5.0 + 0.5j, 100.0, OMEGA_S)
    x = x0.copy()
    x[1] = -0.01  # under-frequency would call for more power with a governor
    dx = gen.derivatives(x, v)
    assert abs(dx[7]) < 1e-12


# -- tracking curve ----------------------------------------------------------


def test_mppt_curve_shape():
    c = MpptCurve()
    assert c.p_opt(0.3) == 0.0           # below cut-in
    assert abs(c.p_opt(0.8) - 0.8 ** 3) < 1e-15
    assert c.p_opt(1.2) == c.p_rated     # flat above rated
    assert c.speed_at(0.512) == pytest.approx(0.8, abs=1e-12)


def test_mppt_curve_clamps_out_of_domain_speed(caplog):
    c = MpptCurve()
    with caplog.at_level("WARNING"):
        assert c.p_opt(2.0) == c.p_rated
    assert "clamping" in caplog.text


def test_mppt_inverse_rejects_untrackable_power():
    c = MpptCurve()
    with pytest.raises(DeviceError, match="outside the tracking range"):
        c.speed_at(1.5)
    with pytest.raises(DeviceError, match="below cut-in"):
        c.speed_at(0.01)


def test_mppt_reference_is_the_curve():
    c = MpptCurve(k_opt=0.9)
    assert mppt_reference(0.9, c) == c.p_opt(0.9)


# -- droop law ---------------------------------------------------------------


def test_support_reference_arithmetic():
    droop = DroopParams(kp=20.0, kin=5.0, enabled=True)
    assert frequency_support_reference(0.8, 0.01, 0.002, droop) == \
        pytest.approx(0.8 - 0.2 - 0.01)
    off = DroopParams(kp=20.0, kin=5.0, enabled=False)
    assert frequency_support_reference(0.8, 0.01, 0.002, off) == 0.8
    zero = DroopParams(enabled=True)
    assert frequency_support_reference(0.8, 0.01, 0.002, zero) == 0.8


def test_droop_params_validation():
    with pytest.raises(DeviceError, match="nonnegative"):
        DroopParams(kp=-1.0)
    with pytest.raises(DeviceError, match="nonnegative"):
        DroopParams(kin=-0.5)
    with pytest.raises(DeviceError, match="rocof_filter_time"):
        DroopParams(rocof_filter_time=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DeviceError, match="finite and nonnegative"):
            DroopParams(kp=bad)
        with pytest.raises(DeviceError, match="finite and nonnegative"):
            DroopParams(kin=bad)
        with pytest.raises(DeviceError, match="positive and finite"):
            DroopParams(rocof_filter_time=bad)


# -- ROCOF washout ------------------------------------------------------------


def test_rocof_estimate_of_a_ramp_settles_to_the_slope():
    # washout of f = a*t starting from rest: out(t) = a (1 - exp(-t/T))
    a, t_filt = 0.004, 0.1
    t = np.linspace(0.0, 1.0, 2001)
    out = rocof_estimate(t, a * t, filter_time=t_filt)
    expect = a * (1.0 - np.exp(-t / t_filt))
    assert np.max(np.abs(out - expect)) < 1e-8
    assert abs(out[-1] - a) < 1e-6


def test_rocof_estimate_sinusoid_gain_and_phase():
    # steady-state response to sin(w t) is |H| sin(w t + phase) with
    # H = jw/(1 + jwT)
    w, t_filt = 3.0, 0.1
    t = np.linspace(0.0, 40.0, 40001)
    out = rocof_estimate(t, np.sin(w * t), filter_time=t_filt)
    h = 1j * w / (1.0 + 1j * w * t_filt)
    expect = np.abs(h) * np.sin(w * t + np.angle(h))
    tail = t > 2.0  # past the washout transient
    assert np.max(np.abs(out[tail] - expect[tail])) < 1e-5


def test_rocof_estimate_handles_nonuniform_sampling():
    rng = np.random.default_rng(3)
    t = np.unique(np.cumsum(rng.uniform(1e-4, 5e-3, 4000)))
    a = 0.01
    out = rocof_estimate(t, a * t, filter_time=0.05)
    assert abs(out[-1] - a) < 1e-6


def test_rocof_estimate_argument_validation():
    t = np.array([0.0, 0.1, 0.1])
    with pytest.raises(DeviceError, match="strictly increasing"):
        rocof_estimate(t, np.zeros(3))
    with pytest.raises(DeviceError, match="equal length"):
        rocof_estimate(np.arange(3.0), np.zeros(4))
    with pytest.raises(DeviceError, match="two samples"):
        rocof_estimate(np.array([0.0]), np.array([1.0]))
    with pytest.raises(DeviceError, match="filter_time"):
        rocof_estimate(np.arange(3.0), np.zeros(3), filter_time=-1.0)


# -- DFIG ----------------------------------------------------------------------


def farm(control_mode="voltage", droop=None):
    return Dfig("W", 12, DfigParams(
        base_mva=300.0,
        control_mode=control_mode,
        droop=droop if droop is not None else DroopParams(),
    ))


def test_dfig_initialization_is_an_equilibrium():
    for mode in ("voltage", "reactive_power"):
        for droop in (None, DroopParams(kp=20.0, kin=10.0, enabled=True)):
            dev = farm(mode, droop)
            v = 1.01 * np.exp(0.15j)
            init_and_check(dev, v, 2.4 + 0.3j, tol=1e-9)


def test_dfig_equilibrium_rotor_speed_sits_on_the_curve():
    dev = farm()
    x0 = dev.initialize(1.0 + 0.0j, 2.4 + 0.0j, 100.0, OMEGA_S)
    p_dev = 2.4 * 100.0 / 300.0
    assert x0[0] == pytest.approx(p_dev ** (1.0 / 3.0), abs=1e-12)
    out = dev.outputs(x0, 1.0 + 0.0j)
    assert out["active_power"] == pytest.approx(p_dev, abs=1e-12)
    assert out["bus_frequency"] == pytest.approx(1.0, abs=1e-12)


def test_dfig_norton_injection_matches_dispatch():
    dev = farm()
    v = 1.02 * np.exp(-0.1j)
    s = 2.4 + 0.45j
    x0 = dev.initialize(v, s, 100.0, OMEGA_S)
    i = dev.source_current(x0, v, 100.0) - dev.norton_admittance(100.0) * v
    assert abs(v * np.conj(i) - s) < 1e-9


def test_dfig_rejects_bad_operating_points():
    dev = farm()
    with pytest.raises(DeviceError, match="too low"):
        dev.initialize(0.1 + 0.0j, 2.4 + 0.0j, 100.0, OMEGA_S)
    with pytest.raises(DeviceError, match="tracking range"):
        dev.initialize(1.0 + 0.0j, 9.0 + 0.0j, 100.0, OMEGA_S)
    with pytest.raises(DeviceError, match="current limits"):
        dev.initialize(1.0 + 0.0j, 2.4 + 2.5j, 100.0, OMEGA_S)


def test_dfig_support_path_reacts_to_a_frequency_drop():
    droop = DroopParams(kp=20.0, kin=0.0, enabled=True)
    dev = farm(droop=droop)
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    # rotate the bus angle backwards: the washout sees a falling frequency
    x = x0.copy()
    v_lag = v * np.exp(-1j * 0.01)
    dx = dev.derivatives(x, v_lag)
    # droop acceleration (droop_rate derivative, index 4) must push power up
    assert dx[4] > 0.0
    off = farm()
    x0_off = off.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    assert off.derivatives(x0_off, v_lag)[4] == 0.0


def test_dfig_reactive_channel_tracks_its_target():
    # voltage mode: a sag raises the integrator; constant-Q mode holds Q
    dev_v = farm("voltage")
    v = 1.0 + 0.0j
    x_v = dev_v.initialize(v, 2.4 + 0.3j, 100.0, OMEGA_S)
    assert dev_v.derivatives(x_v, 0.97 * v)[7] > 0.0

    dev_q = farm("reactive_power")
    x_q = dev_q.initialize(v, 2.4 + 0.3j, 100.0, OMEGA_S)
    dx = dev_q.derivatives(x_q, 0.97 * v)
    # measured Q = vm * i_q fell below target, so the integrator rises too,
    # but through the q error rather than the voltage error
    assert dx[7] > 0.0


def test_dfig_anti_windup_freezes_the_reactive_integrator():
    p = DfigParams(base_mva=300.0)
    dev = Dfig("W", 12, p)
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.3j, 100.0, OMEGA_S)
    x = x0.copy()
    x[7] = p.i_qmax
    assert dev.derivatives(x, 0.9 * v)[7] == 0.0  # sag pushes up: frozen
    assert dev.derivatives(x, 1.1 * v)[7] < 0.0   # swell pulls back: active


def test_dfig_rotor_decelerates_when_command_exceeds_wind_power():
    dev = farm(droop=DroopParams(kp=50.0, kin=0.0, enabled=True))
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    x = x0.copy()
    x[5] = x0[5] * 1.2   # active current above the mechanical input
    dx = dev.derivatives(x, v)
    assert dx[0] < 0.0   # kinetic energy is being extracted


def test_dfig_speed_protection_band_logs_once(caplog):
    dev = farm()
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    x = x0.copy()
    x[0] = 0.5  # below the protection band
    with caplog.at_level("WARNING"):
        dev.derivatives(x, v)
        dev.derivatives(x, v)
    assert caplog.text.count("protection band") == 1


def test_dfig_params_validation():
    with pytest.raises(DeviceError, match="control_mode"):
        DfigParams(control_mode="droop")
    with pytest.raises(DeviceError, match="must be positive"):
        DfigParams(h_turbine=0.0)
    with pytest.raises(DeviceError, match="must be positive"):
        DfigParams(mppt_filter_time=-1.0)


def test_dfig_transient_reactance_formula():
    p = DfigParams()
    expect = p.xls + p.xm * p.xlr / (p.xm + p.xlr)
    assert p.x_transient == pytest.approx(expect, abs=1e-15)
