"""Single-machine closed-form model tests.

Baseline literals were derived independently from the characteristic
polynomial m s^2 + (K_D + K_p) s + K_S w0 = 0 with m = 2H + K_in,
H = 3.5 s, K_D = 10, K_S = 0.75, w0 = 377 rad/s:

    lambda = -0.7142857142857143 +- 6.315271416275352j
    zeta   =  0.11238793135299596
"""

import csv
import math

import numpy as np
import pytest

from windmodal.modal import damping_ratio, linearize
from windmodal.smib import (SmibError, SmibModel, SmibParams,
                            smib_eigenvalues, smib_sensitivity_grid,
                            smib_system_matrix, write_grid_csv)

BASE_RE = -0.7142857142857143
BASE_IM = 6.315271416275352
BASE_ZETA = 0.11238793135299596


def test_baseline_eigenvalues_match_frozen_oracle():
    lam, oscillatory = smib_eigenvalues(SmibParams())
    assert oscillatory
    assert abs(lam[0] - complex(BASE_RE, BASE_IM)) < 1e-12
    assert abs(lam[1] - complex(BASE_RE, -BASE_IM)) < 1e-12
    assert abs(damping_ratio(lam[0]) - BASE_ZETA) < 1e-12


def test_closed_form_agrees_with_numeric_eigensolve():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = SmibParams(
            h_s=float(rng.uniform(2.0, 8.0)),
            k_damping=float(rng.uniform(0.0, 30.0)),
            k_synchronizing=float(rng.uniform(0.3, 2.0)),
        ).with_gains(float(rng.uniform(0.0, 50.0)),
                     float(rng.uniform(0.0, 50.0)))
        lam, _ = smib_eigenvalues(p)
        numeric = np.linalg.eigvals(smib_system_matrix(p))
        # match the pair regardless of ordering
        err = min(
            max(abs(lam[0] - numeric[0]), abs(lam[1] - numeric[1])),
            max(abs(lam[0] - numeric[1]), abs(lam[1] - numeric[0])),
        )
        assert err / max(abs(n) for n in numeric) < 1e-12


def test_damping_check_equals_eigenvalue_damping_when_oscillatory():
    # zeta = (K_p + K_D) / sqrt(4 K_S w0 (2H + K_in)) in the oscillatory
    # regime, independently of the eigenvalues
    rng = np.random.default_rng(17)
    for _ in range(20):
        kp, kin = float(rng.uniform(0.0, 40.0)), float(rng.uniform(0.0, 40.0))
        p = SmibParams().with_gains(kp, kin)
        lam, oscillatory = smib_eigenvalues(p)
        assert oscillatory
        algebraic = (p.k_damping + kp) / math.sqrt(
            4.0 * p.k_synchronizing * p.omega0 * (2.0 * p.h_s + kin))
        assert damping_ratio(lam[0]) == pytest.approx(algebraic, abs=1e-12)


def test_overdamped_regime_returns_real_pair():
    # an absurd proportional gain kills the oscillation entirely
    p = SmibParams(k_damping=10.0).with_gains(3000.0, 0.0)
    lam, oscillatory = smib_eigenvalues(p)
    assert not oscillatory
    assert lam[0].imag == 0.0 and lam[1].imag == 0.0
    assert lam[0].real < 0.0 and lam[1].real < 0.0


@pytest.mark.parametrize("gains", [
    {"kp": math.nan}, {"kin": math.nan}, {"kp": math.inf}, {"kin": math.inf},
    {"kp": -math.inf}, {"kin": -math.inf}, {"kp": -1.0}, {"kin": -0.5},
])
def test_a_negative_or_nonfinite_gain_is_rejected(gains):
    with pytest.raises(SmibError, match="nonnegative"):
        SmibParams(**gains)
    kp, kin = gains.get("kp", 0.0), gains.get("kin", 0.0)
    with pytest.raises(SmibError, match="nonnegative"):
        SmibParams().with_gains(kp, kin)


@pytest.mark.parametrize("name, value, domain", [
    ("k_damping", math.nan, "finite and nonnegative"),
    ("k_damping", -1.0, "finite and nonnegative"),
    ("k_synchronizing", math.nan, "positive and finite"),
    ("k_synchronizing", 0.0, "positive and finite"),
    ("omega0", math.nan, "positive and finite"),
    ("omega0", -377.0, "positive and finite"),
])
def test_a_machine_constant_outside_its_domain_is_rejected(name, value,
                                                           domain):
    # a NaN constant used to give NaN eigenvalues, flagged not oscillatory
    with pytest.raises(SmibError,
                       match=rf"^{name} must be {domain}, got {value!r}$"):
        SmibParams(**{name: value})


@pytest.mark.parametrize("h_s, kin", [(0.0, 0.0), (-1.0, 2.0), (-3.0, 1.0)])
def test_a_nonpositive_effective_inertia_fails_at_construction(h_s, kin):
    with pytest.raises(SmibError, match=r"effective inertia 2H \+ K_in"):
        SmibParams(h_s=h_s, kin=kin)


def test_with_gains_keeps_the_machine_constants():
    p = SmibParams(h_s=4.0, k_damping=12.0, k_synchronizing=0.9, omega0=314.0,
                   kp=1.0, kin=2.0)
    g = p.with_gains(20.0, 10.0)
    assert (g.h_s, g.k_damping, g.k_synchronizing, g.omega0) == (
        4.0, 12.0, 0.9, 314.0)
    assert (g.kp, g.kin) == (20.0, 10.0)


def test_effective_inertia_is_twice_h_plus_the_inertial_gain():
    assert SmibParams().effective_inertia == 7.0
    assert SmibParams().with_gains(20.0, 10.0).effective_inertia == 17.0
    p = SmibParams(h_s=2.5, kin=0.25)
    assert p.effective_inertia == 2.0 * p.h_s + p.kin


@pytest.mark.parametrize("entry", [smib_system_matrix, smib_eigenvalues,
                                   SmibModel])
def test_nonpositive_effective_inertia_is_rejected(entry):
    with pytest.raises(SmibError,
                       match=r"effective inertia 2H \+ K_in = -2\.0000 must "
                             "be positive"):
        entry(SmibParams(h_s=-1.0))


def test_inertial_gain_lowers_damping_proportional_gain_raises_it():
    def zeta(p):
        return damping_ratio(smib_eigenvalues(p)[0][0])

    base = zeta(SmibParams())
    assert zeta(SmibParams().with_gains(10.0, 0.0)) > base
    assert zeta(SmibParams().with_gains(0.0, 10.0)) < base


def test_grid_ordering_and_shape():
    pts = smib_sensitivity_grid(SmibParams())
    assert len(pts) == 36
    # K_in is the outer loop, K_p the fast axis
    assert [p.kp for p in pts[:6]] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert all(p.kin == 0.0 for p in pts[:6])
    assert pts[6].kin == 10.0
    corner = pts[-1]
    assert corner.kp == 50.0 and corner.kin == 50.0


def test_grid_rejects_negative_gains():
    with pytest.raises(SmibError, match="nonnegative"):
        smib_sensitivity_grid(SmibParams(), kp_values=[-1.0])


def test_grid_csv_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    pts = smib_sensitivity_grid(SmibParams(), kp_values=[0.0, 20.0],
                                kin_values=[0.0, 30.0])
    write_grid_csv(pts, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(pts) == 4
    for row, pt in zip(rows, pts):
        assert float(row["kp"]) == pt.kp
        assert float(row["kin"]) == pt.kin
        assert float(row["re"]) == pytest.approx(pt.eigenvalue.real, rel=1e-10)
        assert float(row["damping"]) == pytest.approx(pt.damping, rel=1e-10)
        assert int(row["oscillatory_flag"]) == int(pt.oscillatory)


def test_write_grid_csv_returns_path(tmp_path):
    pts = smib_sensitivity_grid(SmibParams(), kp_values=[0.0],
                                kin_values=[0.0])
    out = write_grid_csv(pts, tmp_path / "one.csv")
    assert out.exists()


def test_numerical_linearization_recovers_the_closed_form_matrix():
    for kp, kin in ((0.0, 0.0), (20.0, 0.0), (0.0, 30.0), (40.0, 50.0)):
        p = SmibParams().with_gains(kp, kin)
        a_fd = linearize(SmibModel(p)).a
        assert np.max(np.abs(a_fd - smib_system_matrix(p))) < 1e-6
