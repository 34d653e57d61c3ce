"""Modal analysis tests: eigenstructure, participation, classification.

The damped oscillator [[0, 1], [-w^2, -2 z w]] supplies exact eigenvalues
-z w +- j w sqrt(1-z^2) for spot checks; random stable matrices exercise
the biorthogonality and reconstruction identities.
"""

import math

import numpy as np
import pytest

from windmodal.modal import (ZERO_MODE_TOL, ModalError, Mode, StateLabel,
                             StateMatrix, analyze_modes, ccbg_pi, classify_mode,
                             damping_ratio, decompose, dominant_modes,
                             jacobian, linearize, participation_factors,
                             participation_products)


def labels(n, device_class="synchronous", prefix="g"):
    return [StateLabel(f"{prefix}{k}", "x", device_class) for k in range(n)]


def oscillator(zeta, omega):
    return np.array([[0.0, 1.0], [-omega ** 2, -2.0 * zeta * omega]])


def random_stable_matrix(rng, n):
    a = rng.normal(size=(n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    return a


# -- damping ratio -------------------------------------------------------------


def test_damping_ratio_of_oscillator_pair():
    zeta, omega = 0.12, 4.0
    lam = complex(-zeta * omega, omega * math.sqrt(1.0 - zeta ** 2))
    assert damping_ratio(lam) == pytest.approx(zeta, abs=1e-15)


def test_damping_ratio_sign_conventions():
    assert damping_ratio(-3.0 + 0.0j) == 1.0
    assert damping_ratio(0.5 + 0.0j) == -1.0
    assert damping_ratio(0.1 + 2.0j) < 0.0
    with pytest.raises(ModalError, match="zero eigenvalue"):
        damping_ratio(0.0 + 0.0j)


# -- state matrix container ------------------------------------------------------


def test_state_matrix_validation():
    with pytest.raises(ModalError, match="square"):
        StateMatrix(a=np.zeros((2, 3)), labels=labels(2))
    with pytest.raises(ModalError, match="labels"):
        StateMatrix(a=np.zeros((2, 2)), labels=labels(3))
    same = [StateLabel("g", "x", "synchronous")] * 2
    with pytest.raises(ModalError, match="not unique"):
        StateMatrix(a=np.zeros((2, 2)), labels=same)


def test_building_a_state_matrix_formats_no_label(monkeypatch):
    # uniqueness is checked on the label values, not on their text
    def refuse(label):
        raise AssertionError(f"{label.device_id}.{label.state} formatted")

    monkeypatch.setattr(StateLabel, "__str__", refuse)
    StateMatrix(a=np.zeros((3, 3)), labels=labels(3))
    with pytest.raises(ModalError, match="not unique"):
        StateMatrix(a=np.zeros((2, 2)), labels=labels(1) * 2)


# -- linearize --------------------------------------------------------------------


class LinearModel:
    """dx/dt = A x, over a leading sample axis as ``rhs`` must be; the
    linearization must recover A itself."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def state_labels(self):
        return labels(self.a.shape[0])

    def equilibrium(self):
        return np.zeros(self.a.shape[0])

    def rhs(self, x):
        return x @ self.a.T


def test_linearize_recovers_a_linear_model_exactly():
    rng = np.random.default_rng(23)
    a = random_stable_matrix(rng, 6)
    sm = linearize(LinearModel(a))
    assert np.max(np.abs(sm.a - a)) < 1e-9


def test_linearize_rejects_non_equilibrium_points():
    model = LinearModel(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(ModalError, match="not an equilibrium.*g1"):
        linearize(model, equilibrium=np.array([0.0, 1.0]))


def test_linearize_rejects_a_nan_derivative_at_the_point():
    class NanModel(LinearModel):
        def rhs(self, x):
            dx = x @ self.a.T
            dx[..., 1] = np.nan
            return dx

    with pytest.raises(ModalError, match="not an equilibrium.*g1.*nan"):
        linearize(NanModel(np.eye(3)))


def test_jacobian_rejects_an_rhs_without_a_sample_axis():
    # a per-sample rhs handed the (2n, n) stack must fail, not return junk
    with pytest.raises(ModalError, match="leading sample axis"):
        jacobian(lambda x: np.array([x[0] - x[1], x[1]]), np.zeros(2))


def test_linearize_is_second_order_in_the_step():
    class Cubic:
        """dx/dt has a cubic term, so the FD error scales with step^2."""

        def state_labels(self):
            return labels(1)

        def equilibrium(self):
            return np.array([1.0])  # x=1 is not a root; shift below

        def rhs(self, x):
            return -(x - 1.0) + (x - 1.0) ** 3

    exact = -1.0
    e1 = abs(linearize(Cubic(), step=1e-3).a[0, 0] - exact)
    e2 = abs(linearize(Cubic(), step=5e-4).a[0, 0] - exact)
    assert e1 / e2 >= 3.5


# -- decomposition properties -----------------------------------------------------


def test_biorthogonality_and_reconstruction():
    rng = np.random.default_rng(41)
    for n in (4, 8, 16):
        a = random_stable_matrix(rng, n)
        dec = decompose(StateMatrix(a=a, labels=labels(n)))
        gram = dec.left.conj().T @ dec.right
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8
        rebuilt = (dec.right * dec.eigenvalues) @ dec.left.conj().T
        assert np.max(np.abs(rebuilt - a)) < 1e-8


def test_defective_matrix_is_rejected():
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ModalError, match="defective"):
        decompose(StateMatrix(a=jordan, labels=labels(2)))


def test_participation_columns_sum_to_one():
    rng = np.random.default_rng(9)
    a = random_stable_matrix(rng, 10)
    dec = decompose(StateMatrix(a=a, labels=labels(10)))
    raw = participation_products(dec).sum(axis=0)
    assert np.max(np.abs(raw - 1.0)) < 1e-10
    norm = participation_factors(dec).sum(axis=0)
    assert np.max(np.abs(norm - 1.0)) < 1e-12


def test_participation_of_decoupled_blocks_is_block_local():
    a = np.zeros((4, 4))
    a[:2, :2] = oscillator(0.1, 2.0)
    a[2:, 2:] = oscillator(0.2, 9.0)
    dec = decompose(StateMatrix(a=a, labels=labels(4)))
    pf = participation_factors(dec)
    for i, lam in enumerate(dec.eigenvalues):
        fast = abs(lam.imag) > 5.0
        block = pf[2:, i] if fast else pf[:2, i]
        assert block.sum() > 1.0 - 1e-9


# -- converter participation share --------------------------------------------------


def test_ccbg_bounds_and_pure_cases():
    p = np.array([0.25, 0.25, 0.5])
    sync = labels(3)
    conv = labels(3, device_class="converter", prefix="w")
    assert ccbg_pi(p, sync) == 0.0
    assert ccbg_pi(p, conv) == 1.0
    mixed = [sync[0], sync[1], conv[2]]
    assert ccbg_pi(p, mixed) == pytest.approx(0.5)
    assert ccbg_pi(np.zeros(3), mixed) == 0.0


def test_ccbg_random_mixtures_stay_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        p = rng.uniform(0.0, 1.0, n)
        kinds = rng.uniform(size=n) < 0.5
        labs = [StateLabel(f"d{k}", "x",
                           "converter" if kinds[k] else "synchronous")
                for k in range(n)]
        share = ccbg_pi(p, labs)
        assert 0.0 <= share <= 1.0


def test_analyze_modes_share_equals_ccbg_pi_on_a_wind_study():
    # analyze_modes builds the converter mask once per call; each mode's
    # share must still be exactly what ccbg_pi gives for its column
    from windmodal.scenario import (assemble, build_scenario_system,
                                    load_packaged_scenario, solve_power_flow)
    net, devices = build_scenario_system(
        load_packaged_scenario("B_voltage_support"))
    a = linearize(assemble(net, devices, solve_power_flow(net, tol=1e-12)))
    dec = decompose(a)
    pf = participation_factors(dec)
    want = sorted((lam.real, lam.imag, ccbg_pi(pf[:, i], a.labels))
                  for i, lam in enumerate(dec.eigenvalues)
                  if lam.imag >= 0.0 and abs(lam) > ZERO_MODE_TOL)
    got = sorted((m.eigenvalue.real, m.eigenvalue.imag, m.ccbg_pi)
                 for m in analyze_modes(a))
    assert any(share > 0.5 for _, _, share in got)
    assert got == want


# -- classification -----------------------------------------------------------------


@pytest.mark.parametrize("f_hz, share, expect", [
    (0.5, 0.0, "inter_area"),
    (0.11, 0.0, "inter_area"),
    (1.0, 0.0, "local"),        # band edge belongs to local
    (2.5, 0.0, "local"),
    (3.1, 0.0, "local"),
    (3.2, 0.0, "other"),
    (0.05, 0.0, "other"),
    (0.5, 0.6, "converter_control"),   # converter share wins over band
    (2.0, 0.5, "converter_control"),   # threshold is inclusive
    (2.0, 0.49, "local"),
])
def test_classification_bands(f_hz, share, expect):
    lam = complex(-0.3, 2.0 * math.pi * f_hz)
    assert classify_mode(lam, share) == expect


def test_real_eigenvalue_is_non_oscillatory():
    assert classify_mode(-4.0 + 0.0j, 0.9) == "non_oscillatory"


# -- mode workup ----------------------------------------------------------------------


def test_analyze_modes_reports_each_conjugate_pair_once():
    a = np.zeros((4, 4))
    a[:2, :2] = oscillator(0.1, 2.0 * math.pi * 0.5)
    a[2:, 2:] = oscillator(0.05, 2.0 * math.pi * 1.5)
    modes = analyze_modes(StateMatrix(a=a, labels=labels(4)))
    assert len(modes) == 2
    assert all(m.eigenvalue.imag > 0.0 for m in modes)
    # sorted least damped first
    assert modes[0].damping <= modes[1].damping
    assert modes[0].classification == "local"
    assert modes[0].is_critical
    assert modes[1].classification == "inter_area"
    assert not modes[1].is_critical


def test_analyze_modes_drops_reference_zeros():
    a = np.array([[0.0, 0.0], [1.0, -1.0]])
    modes = analyze_modes(StateMatrix(a=a, labels=labels(2)))
    assert len(modes) == 1
    assert modes[0].eigenvalue == pytest.approx(-1.0)


def test_analyze_modes_on_assembled_case_a(system_a):
    modes = analyze_modes(linearize(system_a))
    assert all(m.ccbg_pi == 0.0 for m in modes)
    assert not any(m.classification == "converter_control" for m in modes)
    # conjugate symmetry of the underlying spectrum
    eigs = np.linalg.eigvals(linearize(system_a).a)
    for lam in eigs:
        if abs(lam.imag) > 1e-9:
            partner = np.min(np.abs(eigs - np.conj(lam)))
            assert partner < 1e-8


def test_dominant_mode_tie_breaks():
    def mode(lam, cls):
        return Mode(eigenvalue=lam, damping=damping_ratio(lam),
                    frequency_hz=abs(lam.imag) / (2.0 * math.pi),
                    classification=cls, participation=np.ones(1),
                    ccbg_pi=0.0)

    a = mode(complex(-0.1, 4.0), "inter_area")
    b = mode(complex(-0.2, 4.0), "inter_area")
    picked = dominant_modes([b, a])
    assert picked["inter_area"] is a  # least damped wins

    # same damping ratio: larger real part (slower decay) wins
    c = mode(complex(-0.1, 2.0), "inter_area")
    d = mode(complex(-0.2, 4.0), "inter_area")
    assert abs(c.damping - d.damping) < 1e-12
    assert dominant_modes([d, c])["inter_area"] is c

    nonosc = Mode(eigenvalue=-1.0 + 0.0j, damping=1.0, frequency_hz=0.0,
                  classification="non_oscillatory",
                  participation=np.ones(1), ccbg_pi=0.0)
    assert dominant_modes([nonosc]) == {}
