"""Modal analysis tests: eigenstructure, participation, classification.

The damped oscillator [[0, 1], [-w^2, -2 z w]] supplies exact eigenvalues
-z w +- j w sqrt(1-z^2) for spot checks; random stable matrices exercise
the biorthogonality and reconstruction identities.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import windmodal.scenario
from windmodal.dfig import DEFAULT_GAIN_GRID
from windmodal.modal import (ZERO_MODE_TOL, ModalError, Mode, StateLabel,
                             StateMatrix, _eigenpairs, analyze_modes,
                             ccbg_pi, classify_mode, converter_mask,
                             damping_ratio, decompose, dominant_modes,
                             dominant_rows, jacobian, linearize,
                             mode_spectrum, participation_factors,
                             participation_products)
from windmodal.scenario import (Scenario, _affine_gain_model, _dominant_rows,
                                assemble, build_scenario_system,
                                load_packaged_scenario,
                                packaged_scenario_names,
                                run_sensitivity_sweep, solve_power_flow)

from conftest import cell_matrix


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


@pytest.mark.filterwarnings("error")
def test_a_singular_eigenvector_matrix_is_rejected_as_defective():
    # for the 3 x 3 nilpotent block eig returns three parallel
    # eigenvectors, so inv raises LinAlgError; for the 2 x 2 one the
    # norm of the inverse overflows.  Both end in decompose's own error.
    nilpotent = np.diag([1.0, 1.0], 1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(nilpotent)[1])
    for n in (3, 2):
        with pytest.raises(ModalError, match="defective"):
            decompose(StateMatrix(a=np.diag(np.ones(n - 1), 1),
                                  labels=labels(n)))
        a = StateMatrix(a=np.diag(np.ones(n - 1), 1), labels=labels(n))
        with pytest.raises(ModalError, match="defective"):
            mode_spectrum(a.a, converter_mask(a.labels))
        with pytest.raises(ModalError, match="defective"):
            analyze_modes(a)


@st.composite
def eigenproblems(draw):
    """A random n x n matrix, or one similar to a Jordan block of size k
    split by eps in its corner (eigenvalues lam + eps^(1/k) roots of 1)."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if not draw(st.booleans()):
        return rng.normal(size=(n, n))
    k = draw(st.integers(2, n))
    eps = 10.0 ** draw(st.floats(-14.0, -2.0))
    t = np.triu(rng.normal(size=(n, n)))
    t[:k, :k] = rng.normal() * np.eye(k) + np.eye(k, k=1)
    t[k - 1, 0] = eps
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ t @ q.T


@settings(max_examples=300, deadline=None)
@given(eigenproblems())
def test_the_conditioning_guard_is_never_below_the_2_norm_condition(a):
    # decompose's guard is sqrt(n) ||inv(R)||_F for the unit-column
    # eigenvector matrix R, which is >= cond_2(R) in exact arithmetic.
    # Each side carries a relative rounding error of order cond * eps
    # (the smallest singular value, the inverse), so the floor allows
    # 8 cond * eps; the largest deficit seen in 20000 draws was
    # 1.5 cond * eps with the complex inverse and 1.0 cond * eps with the
    # real basis.
    n = a.shape[0]
    lam, vectors = np.linalg.eig(a)
    norms = np.sqrt(np.square(vectors.real).sum(axis=0)
                    + np.square(vectors.imag).sum(axis=0))
    right = vectors.real / norms + 1j * (vectors.imag / norms)
    # inv(R) from the inverse of the real basis of R: a pair's rows
    # count half
    basis = np.where(lam.imag < 0.0, -right.imag, right.real)
    try:
        with np.errstate(over="ignore"):
            rows = np.square(np.linalg.inv(basis)).sum(axis=1)
            guard = math.sqrt(n * (rows[lam.imag == 0.0].sum()
                                   + 0.5 * rows[lam.imag != 0.0].sum()))
    except np.linalg.LinAlgError:
        guard = math.inf
    cond = np.linalg.cond(right)
    assert guard >= cond * (1.0 - 8.0 * np.finfo(float).eps * cond)
    try:
        dec = decompose(StateMatrix(a=a, labels=labels(n)))
    except ModalError:
        assert not guard <= 1e10
    else:
        assert guard <= 1e10
        # so an accepted matrix also passes a 2-norm guard of equal bound
        assert cond <= 1e10 * (1.0 + 8.0 * np.finfo(float).eps * 1e10)
        assert np.array_equal(dec.right, right)


def _complex_reference(a, converter):
    """Eigenvalues, shares and guard of the reported modes of ``a`` from
    the complex inverse of the unit-column eigenvector matrix: the
    reference for the real basis of ``modal._eigenpairs``."""
    lam, vectors = np.linalg.eig(a)
    right = vectors / np.linalg.norm(vectors, axis=0)
    left_rows = np.linalg.inv(right)
    guard = math.sqrt(a.shape[0]) * np.linalg.norm(left_rows)
    keep = (lam.imag >= 0.0) & (np.hypot(lam.real, lam.imag) > ZERO_MODE_TOL)
    pf = np.abs(right * left_rows.T)
    pf = pf / pf.sum(axis=0)
    share = pf[converter][:, keep].sum(axis=0) / pf[:, keep].sum(axis=0)
    return lam[keep], share, guard


def _reference_matrices():
    """The nine studies' state matrices, then every cell of the default
    6 x 6 grids of the four unsupported wind studies."""
    for name in packaged_scenario_names():
        net, devices = build_scenario_system(load_packaged_scenario(name))
        yield linearize(assemble(net, devices, solve_power_flow(net)))
    k_star = max(DEFAULT_GAIN_GRID)
    for name in ("B_voltage", "B_reactive_power", "C_voltage",
                 "C_reactive_power"):
        *model, labs = _affine_gain_model(load_packaged_scenario(name),
                                          k_star, k_star)
        for kin in DEFAULT_GAIN_GRID:
            for kp in DEFAULT_GAIN_GRID:
                yield StateMatrix(cell_matrix(*model, kp, kin), labs)


def test_the_real_basis_matches_the_complex_inverse():
    # the largest share difference seen is 1.1e-11, the largest relative
    # guard difference 4.5e-11
    for a in _reference_matrices():
        converter = converter_mask(a.labels)
        lam_ref, share_ref, guard_ref = _complex_reference(a.a, converter)
        lam, share = mode_spectrum(a.a, converter)
        assert np.array_equal(lam, lam_ref)
        assert np.max(np.abs(share - share_ref)) <= 1e-9
        left_sq = _eigenpairs(a.a)[4]
        guard = math.sqrt(a.a.shape[0] * left_sq.sum())
        assert abs(guard - guard_ref) <= 1e-9 * guard_ref
        rows = _rows_by_the_scalar_formulas(lam, share)
        rows_ref = _rows_by_the_scalar_formulas(lam_ref, share_ref)
        assert [m.classification for m in rows] == \
            [m.classification for m in rows_ref]
        (dominant,), (dominant_ref,) = (dominant_rows([(lam, share)]),
                                        dominant_rows([(lam_ref, share_ref)]))
        assert [(m.classification, m.real, m.imag) for m in dominant] == \
            [(m.classification, m.real, m.imag) for m in dominant_ref]


@settings(max_examples=300, deadline=None)
@given(eigenproblems())
def test_eig_returns_the_pair_layout_of_the_real_basis(a):
    # each complex pair adjacent, Im > 0 first, exact conjugates; and the
    # real basis accepts and rejects as the complex inverse does, but
    # within the rounding of either guard, 8 cond * eps, of the bound
    lam, vectors = np.linalg.eig(a)
    up = np.flatnonzero(lam.imag > 0.0)
    assert np.count_nonzero(lam.imag) == 2 * up.size
    assert np.array_equal(lam[up + 1], lam[up].conj())
    assert np.array_equal(vectors[:, up + 1], vectors[:, up].conj())
    right = vectors / np.linalg.norm(vectors, axis=0)
    try:
        with np.errstate(over="ignore"):
            guard = math.sqrt(a.shape[0]) * np.linalg.norm(
                np.linalg.inv(right))
    except np.linalg.LinAlgError:
        guard = math.inf
    cond = np.linalg.cond(right)
    try:
        decompose(StateMatrix(a=a, labels=labels(a.shape[0])))
    except ModalError:
        accepted = False
    else:
        accepted = True
    if not abs(guard - 1e10) <= 8.0 * np.finfo(float).eps * cond * 1e10:
        assert accepted == (guard <= 1e10)


def test_a_changed_eig_layout_fails_loudly(monkeypatch):
    # the conjugate of each pair first: the real basis would be wrong
    eig = np.linalg.eig

    def conjugate_first(a):
        lam, vectors = eig(a)
        return lam.conj(), vectors.conj()

    monkeypatch.setattr(np.linalg, "eig", conjugate_first)
    a = StateMatrix(a=oscillator(0.1, 2.0), labels=labels(2))
    for call in (decompose, analyze_modes,
                 lambda a: mode_spectrum(a.a, converter_mask(a.labels))):
        with pytest.raises(ModalError, match="layout"):
            call(a)


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


@pytest.mark.parametrize("study", [*packaged_scenario_names(),
                                   "all_synchronous", "all_converter"])
def test_analyze_modes_has_the_bits_of_the_per_mode_formulas(study):
    # analyze_modes works on all modes at once; each mode must still carry
    # exactly what the scalar formulas give for its eigenvalue and column
    if study.startswith("all_"):
        rng = np.random.default_rng(17)
        a = StateMatrix(a=random_stable_matrix(rng, 12),
                        labels=labels(12, study.removeprefix("all_")))
    else:
        net, devices = build_scenario_system(load_packaged_scenario(study))
        a = linearize(assemble(net, devices, solve_power_flow(net)))
    dec = decompose(a)
    pf = participation_factors(dec)
    want = []
    for i, lam in enumerate(dec.eigenvalues):
        if lam.imag >= 0.0 and abs(lam) > ZERO_MODE_TOL:
            share = ccbg_pi(pf[:, i], a.labels)
            want.append((complex(lam), damping_ratio(lam),
                         abs(lam.imag) / (2.0 * math.pi), share,
                         classify_mode(lam, share)))
    want.sort(key=lambda row: row[1])
    got = [(complex(m.real, m.imag), m.damping, m.frequency_hz, m.ccbg_pi,
            m.classification) for m in analyze_modes(a)]
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
    assert all(m.imag > 0.0 for m in modes)
    # sorted least damped first
    assert modes[0].damping <= modes[1].damping
    assert modes[0].classification == "local"
    assert modes[1].classification == "inter_area"


def test_analyze_modes_drops_reference_zeros():
    a = np.array([[0.0, 0.0], [1.0, -1.0]])
    modes = analyze_modes(StateMatrix(a=a, labels=labels(2)))
    assert len(modes) == 1
    assert complex(modes[0].real, modes[0].imag) == pytest.approx(-1.0)


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
        return Mode(classification=cls, real=lam.real, imag=abs(lam.imag),
                    damping=damping_ratio(lam),
                    frequency_hz=abs(lam.imag) / (2.0 * math.pi),
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

    nonosc = Mode(classification="non_oscillatory", real=-1.0, imag=0.0,
                  damping=1.0, frequency_hz=0.0, ccbg_pi=0.0)
    assert dominant_modes([nonosc]) == {}

    # same damping and real part: the lower frequency wins, then the
    # earlier row
    e = Mode(classification="local", real=-0.3, imag=9.0, damping=0.05,
             frequency_hz=1.5, ccbg_pi=0.0)
    f = dataclasses.replace(e, frequency_hz=1.4)
    g = dataclasses.replace(f, ccbg_pi=0.2)
    assert dominant_modes([e, f, g])["local"] is f
    assert dominant_modes([g, e, f])["local"] is g
    assert list(dominant_modes([e, c, nonosc])) == ["inter_area", "local"]


def _rows_by_the_scalar_formulas(lam, share):
    return [Mode(classification=classify_mode(x, s), real=x.real,
                 imag=abs(x.imag), damping=damping_ratio(x),
                 frequency_hz=abs(x.imag) / (2.0 * math.pi), ccbg_pi=s)
            for x, s in zip(lam.tolist(), share.tolist())]


def test_dominant_rows_picks_each_cell_on_its_own():
    # eig order: inter-area modes of equal damping, the larger real part
    # second; two identical local modes told apart by their share; a
    # converter mode and a real one
    lam = np.array([-0.5 + 5.0j, -0.25 + 2.5j, -0.3 + 8.0j, -0.3 + 8.0j,
                    -1.0 + 6.0j, -4.0 + 0.0j])
    share = np.array([0.1, 0.2, 0.3, 0.1, 0.7, 0.0])
    assert damping_ratio(lam[0]) == damping_ratio(lam[1])
    rows = _rows_by_the_scalar_formulas(lam, share)
    assert [m.classification for m in rows] == [
        "inter_area", "inter_area", "local", "local", "converter_control",
        "non_oscillatory"]
    other = (np.array([-0.1 + 3.0j]), np.array([0.0]))
    # rows in class-name order; of the identical local modes the earlier
    # one in eig order, which the reversed cell turns round
    assert dominant_rows([(lam, share), other, (lam[::-1], share[::-1])]) \
        == [(rows[4], rows[1], rows[2]),
            tuple(_rows_by_the_scalar_formulas(*other)),
            (rows[4], rows[1], rows[3])]
    assert dominant_rows([]) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_sweep_cell_whose_matrix_fails_fails_alone(monkeypatch):
    # an oscillator plus a 2 x 2 block that is a Jordan block at kin = 1;
    # kp = 10 overflows one entry of the gain row to inf
    a00 = np.zeros((4, 4))
    a00[:2, :2] = oscillator(0.05, 3.0)
    a00[2:, 2:] = [[-1.0, 1.0], [0.0, -2.0]]
    g_p = np.array([1e308, 0.0, 0.0, 0.0])
    g_i = np.array([0.0, 0.0, 0.0, 1.0])
    labs = labels(2) + labels(2, "converter", prefix="w")
    monkeypatch.setattr(windmodal.scenario, "_affine_gain_model",
                        lambda *args: (a00, 3, g_p, g_i, labs))
    scenario = Scenario(base_case="B")
    sweep = run_sensitivity_sweep(scenario, kp_values=(0.0, 10.0),
                                  kin_values=(0.0, 1.0, 0.5))
    errors = {}
    for cell in sweep.cells:
        a = StateMatrix(cell_matrix(a00, 3, g_p, g_i, cell.kp, cell.kin),
                        labs)
        try:
            want = _dominant_rows(analyze_modes(a))
        except (ModalError, np.linalg.LinAlgError) as exc:
            assert cell.error == f"[modal] {exc}" and not cell.dominant
            errors[cell.kp, cell.kin] = cell.error
        else:
            assert not cell.error and cell.dominant == want
    assert sorted(errors) == [(0.0, 1.0), (10.0, 0.0), (10.0, 0.5),
                              (10.0, 1.0)]
    assert errors[0.0, 1.0].startswith(
        "[modal] eigenvector matrix condition number")
    assert errors[10.0, 0.0] == "[modal] Array must not contain infs or NaNs"
    # the cells that pass have the rows of a sweep without the failing ones
    alone = run_sensitivity_sweep(scenario, kp_values=(0.0,),
                                  kin_values=(0.0, 0.5))
    assert alone.cells == (sweep.cells[0], sweep.cells[4])
