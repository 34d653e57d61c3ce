"""Device model tests: synchronous machine and DFIG wind farm.

Each device must reproduce its own initialization: evaluating the
derivatives at the state returned by ``initialize`` with the same terminal
voltage has to give (numerically) zero, otherwise the device would drift
away from the power-flow point it was anchored to.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from windmodal.devices import DeviceError
from windmodal.powerflow import solve_power_flow
from windmodal.scenario import (build_scenario_system, load_packaged_scenario,
                                packaged_scenario_names)
from windmodal.smib import SmibError, SmibParams
from windmodal.system import assemble
from windmodal import dfig
from windmodal.dfig import (Q_CTRL, Dfig, DfigParams, DroopParams,
                            frequency_support_reference, p_opt, speed_at)
from windmodal.syncgen import EFD, SyncGen, SyncGenParams
from windmodal.timedomain import simulate

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
    i = gen.source_current(x0, 100.0) - gen.norton_admittance(100.0) * v
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
    emf = complex(x0[5], x0[4]) * np.exp(1j * (x0[0] - math.pi / 2.0))
    dx = gen.derivatives(x0, emf)
    assert dx[1] == pytest.approx(x0[7] / (2.0 * p.h_s), rel=1e-12)


def test_syncgen_exciter_limit_is_non_windup():
    p = SyncGenParams()
    gen = SyncGen("G", 1, p)
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 4.0 + 0.8j, 100.0, OMEGA_S)
    assert gen.limits() == ((EFD, p.efd_min, p.efd_max),)
    x = x0.copy()
    x[6] = p.efd_max
    sag = 0.8 * v  # deep sag drives the exciter up against its ceiling
    # free, as linearized: the integrator holds efd on the bound
    assert gen.derivatives(x, sag)[6] > 0.0
    x[6] = p.efd_min
    swell = 1.2 * v
    assert gen.derivatives(x, swell)[6] < 0.0


def test_syncgen_rejects_dispatch_outside_limits():
    gen = SyncGen("G", 1, SyncGenParams())
    with pytest.raises(DeviceError, match="mechanical power .* turbine "
                       "limits"):
        gen.initialize(1.0 + 0.0j, 15.0 + 0.0j, 100.0, OMEGA_S)


@pytest.mark.parametrize("kwargs, match", [
    (dict(xd_st=0.25, xq_st=0.3), "equal subtransient"),
    (dict(xd_t=2.0), "xd > xd_t"),
    (dict(xq_t=1.9), "xq > xq_t"),
    (dict(h_s=0.0), "must be positive"),
    (dict(ta=-0.01), "must be positive"),
    (dict(h_s=math.nan), "h_s must be positive and finite"),
    (dict(td0_t=math.inf), "td0_t must be positive and finite"),
    (dict(ra=0.25), "xd_st > ra"),
    (dict(ra=-0.01), "ra must be finite and nonnegative"),
])
def test_syncgen_parameter_validation(kwargs, match):
    with pytest.raises(DeviceError, match=match):
        SyncGenParams(**kwargs)


def test_governor_holds_dispatch_when_disabled():
    # the machine has no governor: mechanical power ignores speed
    gen = SyncGen("G", 1, SyncGenParams())
    v = 1.0 + 0.0j
    x0 = gen.initialize(v, 5.0 + 0.5j, 100.0, OMEGA_S)
    x = x0.copy()
    x[1] = -0.01  # under-frequency would call for more power with a governor
    dx = gen.derivatives(x, v)
    assert abs(dx[7]) < 1e-12


# -- tracking curve ----------------------------------------------------------


def test_mppt_curve_shape():
    assert p_opt(0.3) == 0.0             # below cut-in
    assert abs(p_opt(0.8) - 0.8 ** 3) < 1e-15
    assert p_opt(1.2) == dfig.P_RATED == 1.0   # flat above rated
    assert speed_at(0.512) == pytest.approx(0.8, abs=1e-12)
    # the curve's domain ends where the protection band does
    assert dfig.SPEED_MAX is dfig.ROTOR_SPEED_BOUNDS[1]
    # the curve is the model's, not a parameter a scenario could set
    assert "mppt" not in {f.name for f in dataclasses.fields(DfigParams)}
    with pytest.raises(TypeError, match="unexpected keyword"):
        DfigParams(mppt=None)


def test_mppt_curve_clamps_out_of_domain_speed(caplog):
    # no log record: such a speed is outside the protection band too, and
    # Dfig reports that once per device
    with caplog.at_level("DEBUG"):
        assert p_opt(2.0) == dfig.P_RATED
        assert p_opt(2.0) == dfig.P_RATED
        assert p_opt(-0.5) == 0.0
    assert not caplog.records


def test_mppt_inverse_rejects_untrackable_power():
    with pytest.raises(DeviceError, match="outside the tracking range"):
        speed_at(1.5)
    with pytest.raises(DeviceError, match="below cut-in"):
        speed_at(0.01)


# -- droop law ---------------------------------------------------------------


def test_support_reference_arithmetic():
    droop = DroopParams(kp=20.0, kin=5.0, enabled=True)
    assert frequency_support_reference(0.01, 0.002, droop) == \
        pytest.approx(-0.2 - 0.01)
    off = DroopParams(kp=20.0, kin=5.0, enabled=False)
    assert frequency_support_reference(0.01, 0.002, off) == 0.0
    zero = DroopParams(enabled=True)
    assert frequency_support_reference(0.01, 0.002, zero) == 0.0


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
    # the converter current follows the terminal-voltage angle
    i = (dev.source_current(x0, 100.0) * v / abs(v)
         - dev.norton_admittance(100.0) * v)
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
    assert dev.limits() == ((Q_CTRL, -p.i_qmax, p.i_qmax),)
    x = x0.copy()
    x[7] = p.i_qmax
    assert dev.derivatives(x, 0.9 * v)[7] > 0.0   # free, as linearized
    # under a swell the free derivative points back in: the integrator
    # releases the hold
    assert dev.derivatives(x, 1.1 * v)[7] < 0.0


def test_dfig_rotor_decelerates_when_command_exceeds_wind_power():
    dev = farm(droop=DroopParams(kp=50.0, kin=0.0, enabled=True))
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    x = x0.copy()
    x[5] = x0[5] * 1.2   # active current above the mechanical input
    dx = dev.derivatives(x, v)
    assert dx[0] < 0.0   # kinetic energy is being extracted


def test_dfig_speed_protection_band_logs_once(caplog):
    # evaluating the model logs nothing: finite differences and rejected
    # integration stages visit states that no run records.  A run checks
    # the recorded rotor speed and logs the first excursion, once.
    dev = farm()
    v = 1.0 + 0.0j
    x0 = dev.initialize(v, 2.4 + 0.0j, 100.0, OMEGA_S)
    x = x0.copy()
    x[0] = 0.5  # below the protection band
    with caplog.at_level("WARNING"):
        dev.derivatives(x, v)
        dev.derivatives(x, v)
    assert not caplog.records

    net, devices = build_scenario_system(
        load_packaged_scenario("B_voltage_support"))
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    x = model.equilibrium()
    x[[str(lab) for lab in model.state_labels()].index("W1.rotor_speed")] = 0.5
    with caplog.at_level("WARNING"):
        tr = simulate(model, equilibrium=x, t_end=0.05)
    assert np.all(tr.column("W1.rotor_speed") < 0.6)
    assert caplog.text.count("protection band") == 1


def test_dfig_params_validation():
    with pytest.raises(DeviceError, match="control_mode"):
        DfigParams(control_mode="droop")
    with pytest.raises(DeviceError, match="must be positive"):
        DfigParams(h_turbine=0.0)
    with pytest.raises(DeviceError, match="must be positive"):
        DfigParams(mppt_filter_time=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DeviceError, match="h_turbine must be positive "
                           "and finite"):
            DfigParams(h_turbine=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (SyncGenParams, DfigParams, DroopParams, SmibParams)
    for f in dataclasses.fields(cls) if isinstance(f.default, float)])
def test_every_float_parameter_must_be_finite(cls, name, bad):
    # a NaN limit would fail every comparison and so switch the limit off
    error = SmibError if cls is SmibParams else DeviceError
    with pytest.raises(error, match=rf"^{name} must be .*, got {bad}$"):
        cls(**{name: bad})


# -- limiter contract ----------------------------------------------------------


@pytest.mark.parametrize("study", packaged_scenario_names())
def test_limits_are_valid_finite_and_bracket_the_equilibrium(study):
    # limits() is all the integrator knows of a device's limiters
    net, devices = build_scenario_system(load_packaged_scenario(study))
    model = assemble(net, devices, solve_power_flow(net, tol=1e-12))
    x0 = model.equilibrium()
    start = 0
    for dev in model.devices:
        for k, lo, hi in dev.limits():
            assert isinstance(k, int) and 0 <= k < dev.n_states
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
            assert lo <= x0[start + k] <= hi, (dev.device_id,
                                               dev.state_names[k])
        start += dev.n_states
    assert start == model.n_states


# -- one body for a sample and a stack ----------------------------------------


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_stack_is_rowwise(dev, xs, vs):
    """``derivatives`` and ``source_current`` over the stack have the bits
    of one scalar call per row (with the Python complex the system hands a
    single sample)."""
    d = dev.derivatives(xs, vs)
    i = dev.source_current(xs, 100.0)
    assert d.shape == xs.shape and i.shape == xs.shape[:1]
    for k, v in enumerate(vs.tolist()):
        assert np.array_equal(bits(d[k]), bits(dev.derivatives(xs[k], v))), k
        assert np.array_equal(bits(i[k:k + 1]),
                              bits(np.array([dev.source_current(xs[k],
                                                                100.0)]))), k


def random_voltages(rng, n):
    v = rng.uniform(0.05, 1.3, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    # on the negative real axis from both sides: the bus angle is +-pi
    v[:2] = [complex(-1.0, 0.0), complex(-1.0, -0.0)]
    return v


def test_syncgen_stack_has_the_bits_of_one_sample_at_a_time():
    p = SyncGenParams()
    gen = SyncGen("G", 1, p)
    x0 = gen.initialize(1.0 + 0.0j, 5.0 + 0.5j, 100.0, OMEGA_S)
    rng = np.random.default_rng(7)
    n = 400
    xs = x0 + 0.1 * rng.standard_normal((n, gen.n_states))
    xs[:, 0] = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, n)
    xs[:, 1] = rng.uniform(-0.05, 0.05, n)
    # the stabilizer output before its clamp, to show the stack reaches
    # both bounds and the inside
    y_w = xs[:, 1] - xs[:, 8]
    y_1 = (p.t1 / p.t2) * y_w + (1.0 - p.t1 / p.t2) * xs[:, 9]
    y_2 = (p.t3 / p.t4) * y_1 + (1.0 - p.t3 / p.t4) * xs[:, 10]
    v_s = p.k_pss * y_2
    assert (v_s > p.vs_max).any() and (v_s < -p.vs_max).any()
    assert (np.abs(v_s) < p.vs_max).any()
    assert_stack_is_rowwise(gen, xs, random_voltages(rng, n))


@pytest.mark.parametrize("droop", [None, DroopParams(kp=20.0, kin=10.0,
                                                     enabled=True)],
                         ids=["droop_off", "droop_on"])
@pytest.mark.parametrize("mode", ["voltage", "reactive_power"])
def test_dfig_stack_has_the_bits_of_one_sample_at_a_time(mode, droop):
    dev = farm(mode, droop)
    p = dev.params
    x0 = dev.initialize(1.01 * np.exp(0.15j), 2.4 + 0.3j, 100.0, OMEGA_S)
    rng = np.random.default_rng(3)
    n = 400
    xs = x0 + 0.1 * rng.standard_normal((n, dev.n_states))
    speed = xs[:, 0] = rng.uniform(-0.2, 1.6, n)
    p_cmd = xs[:, 1] = rng.uniform(-0.5, 1.5, n)
    v_filt = xs[:, 6] = rng.uniform(0.05, 1.2, n)
    q_ctrl = xs[:, 7] = rng.uniform(-1.0, 1.0, n)
    xs[:, 9] = rng.uniform(-np.pi, np.pi, n)
    vs = random_voltages(rng, n)
    # every branch: speed below 0.05, below cut-in, on the curve, above
    # rated and above speed_max; the current command at 0 and at i_pmax;
    # the voltage filter below its floor; the reactive command clamped
    for band in ((-1.0, 0.05), (0.05, dfig.SPEED_CUTIN),
                 (dfig.SPEED_CUTIN, dfig.SPEED_RATED),
                 (dfig.SPEED_RATED, dfig.SPEED_MAX), (dfig.SPEED_MAX, 9)):
        assert ((speed > band[0]) & (speed < band[1])).any(), band
    i_cmd = p_cmd / np.maximum(v_filt, p.v_floor)
    assert (i_cmd < 0.0).any() and (i_cmd > p.i_pmax).any()
    assert ((i_cmd > 0.0) & (i_cmd < p.i_pmax)).any()
    assert (v_filt < p.v_floor).any()
    assert (q_ctrl > p.i_qmax).any() and (q_ctrl < -p.i_qmax).any()
    # the bus angle minus its filter state wraps across +-pi both ways
    raw = np.angle(vs) - xs[:, 9]
    assert (raw > np.pi).any() and (raw < -np.pi).any()
    assert_stack_is_rowwise(dev, xs, vs)


def complex_form_derivatives(gen, x, v):
    """``SyncGen.derivatives`` in Python complex arithmetic, the form the
    real-arithmetic body replaced."""
    p = gen.params
    (delta, speed, eq_t, ed_t, eq_st, ed_st, efd, pm,
     pss_w, pss_a, pss_b) = x.tolist()
    rot = cmath.exp(1j * (delta - math.pi / 2.0))
    i_dq = ((complex(ed_st, eq_st) * rot - v) / complex(p.ra, p.xd_st)
            * rot.conjugate())
    id_, iq = i_dq.real, i_dq.imag
    te = ed_st * id_ + eq_st * iq
    y_w = speed - pss_w
    y_1 = (p.t1 / p.t2) * y_w + (1.0 - p.t1 / p.t2) * pss_a
    y_2 = (p.t3 / p.t4) * y_1 + (1.0 - p.t3 / p.t4) * pss_b
    v_s = min(max(p.k_pss * y_2, -p.vs_max), p.vs_max)
    return np.array([
        OMEGA_S * speed,
        (pm - te - p.d_pu * speed) / (2.0 * p.h_s),
        (efd - eq_t - (p.xd - p.xd_t) * id_) / p.td0_t,
        (-ed_t + (p.xq - p.xq_t) * iq) / p.tq0_t,
        (eq_t - eq_st - (p.xd_t - p.xd_st) * id_) / p.td0_st,
        (ed_t - ed_st + (p.xq_t - p.xq_st) * iq) / p.tq0_st,
        (p.ka * (gen.v_ref - abs(v) + v_s) - efd) / p.ta,
        (gen.pm_ref - pm) / p.t_gov,
        y_w / p.t_washout,
        (y_w - pss_a) / p.t2,
        (y_1 - pss_b) / p.t4,
    ])


@pytest.mark.parametrize("ra", [0.0, 0.0025, 0.2])
def test_syncgen_real_arithmetic_has_the_bits_of_the_complex_form(ra):
    gen = SyncGen("G", 1, SyncGenParams(ra=ra))
    x0 = gen.initialize(1.0 + 0.0j, 5.0 + 0.5j, 100.0, OMEGA_S)
    rng = np.random.default_rng(2)
    xs = x0 + 0.1 * rng.standard_normal((500, gen.n_states))
    xs[:, 0] = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 500)
    for x, v in zip(xs, random_voltages(rng, 500).tolist()):
        assert np.array_equal(bits(gen.derivatives(x, v)),
                              bits(complex_form_derivatives(gen, x, v)))
