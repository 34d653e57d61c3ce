"""Eigenvalue analysis of linearized power-system models.

Builds the state matrix of a nonlinear model by central finite differences,
decomposes it into modes, and attaches the quantities used throughout the
toolkit: damping ratio, modal frequency, participation factors, the share of
participation carried by converter-based devices, and a coarse mode
classification (inter-area / local / converter control).  Every state
matrix in the toolkit comes from one routine, ``jacobian``: it stacks the
2n central-difference points and evaluates the model once on the stack, so
a model's ``rhs`` accepts a leading sample axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Classification bands, in Hz. Oscillations between the inter-area floor and
# the local ceiling are labelled by frequency; everything else is "other".
INTER_AREA_BAND_HZ = (0.1, 1.0)
LOCAL_BAND_HZ = (1.0, 3.1)

# A mode whose converter participation share reaches this level is attributed
# to converter controls regardless of its frequency.
CONVERTER_SHARE_THRESHOLD = 0.5

# An eigenvalue whose imaginary part is at most this is non-oscillatory.
REAL_MODE_TOL = 1e-9

CRITICAL_DAMPING = 0.05

EQUILIBRIUM_TOL = 1e-8


class ModalError(ValueError):
    pass


@dataclass(frozen=True)
class StateLabel:
    """Identity of one state variable in an assembled model."""

    device_id: str
    state: str
    device_class: str  # "synchronous" or "converter"

    def __str__(self) -> str:
        return f"{self.device_id}.{self.state}"


@dataclass
class StateMatrix:
    """Dense A matrix plus the labels of its rows/columns."""

    a: np.ndarray
    labels: list[StateLabel]

    def __post_init__(self):
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ModalError(f"state matrix must be square, got {self.a.shape}")
        if len(self.labels) != n:
            raise ModalError(
                f"{len(self.labels)} labels for a {n}-state matrix"
            )
        if len(set(self.labels)) != n:
            raise ModalError("state labels are not unique")


@dataclass
class ModalDecomposition:
    """Eigenvalues with biorthogonal right/left eigenvector sets.

    Right eigenvectors (columns of ``right``) have unit 2-norm.  Left
    eigenvectors (columns of ``left``) are scaled so that
    ``left[:, i].conj() @ right[:, i] == 1``; for distinct modes the product
    is zero, which is what makes participation factors sum to one.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    labels: list[StateLabel]


@dataclass
class Mode:
    """One oscillatory (or real) mode of the linearized system."""

    eigenvalue: complex
    damping: float
    frequency_hz: float
    classification: str
    participation: np.ndarray  # normalized magnitudes, one entry per state
    ccbg_pi: float
    is_critical: bool = field(init=False)

    def __post_init__(self):
        self.is_critical = self.damping <= CRITICAL_DAMPING


def damping_ratio(eigenvalue: complex) -> float:
    """Damping ratio -Re(lam)/|lam| of a single eigenvalue.

    Real eigenvalues map to +-1.0 depending on sign; lam = 0 has no defined
    damping and raises.
    """
    mag = abs(eigenvalue)
    if mag == 0.0:
        raise ModalError("damping ratio of a zero eigenvalue is undefined")
    return -eigenvalue.real / mag


def jacobian(f, x0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x0``.

    Column k is ``(f(x0 + h_k e_k) - f(x0 - h_k e_k)) / 2h_k`` with
    ``h_k = step * max(1, |x0_k|)``.  The 2n points are stacked into one
    (2n, n) array, rows ``k`` and ``n + k`` the two sides of state k, and
    ``f`` is called once on the stack: it must map a leading sample axis
    to the same axis of its result.  ``x0`` is left untouched.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    h = step * np.maximum(1.0, np.abs(x0))
    k = np.arange(n)
    points = np.tile(x0, (2 * n, 1))
    points[k, k] += h
    points[n + k, k] -= h
    fx = np.asarray(f(points))
    if fx.shape != (2 * n, n):
        raise ModalError(
            f"rhs returned shape {fx.shape} for {2 * n} stacked samples of "
            f"{n} states; it must accept a leading sample axis"
        )
    # row k of the difference is column k of the matrix
    return np.ascontiguousarray(((fx[:n] - fx[n:]) / (2.0 * h)[:, None]).T)


def linearize(model, equilibrium: np.ndarray | None = None,
              step: float = 1e-6) -> StateMatrix:
    """Central-difference state matrix of ``model`` about an equilibrium.

    ``model`` must expose ``rhs(x) -> dx/dt``, accepting a leading sample
    axis, ``equilibrium() -> x`` and ``state_labels() ->
    list[StateLabel]``.  The point is verified to be an equilibrium first:
    any residual derivative above 1e-8, or one that is not a number, aborts
    with the name of the offending state, because differencing around a
    drifting point produces a meaningless matrix.  The matrix is
    ``jacobian(model.rhs, ...)``: one more ``rhs`` call, on all 2n
    perturbed points at once, with the per-state step ``step * max(1,
    |x_k|)``.
    """
    x0 = np.asarray(model.equilibrium() if equilibrium is None else equilibrium,
                    dtype=float)
    labels = model.state_labels()
    f0 = np.asarray(model.rhs(x0), dtype=float)
    worst = int(np.argmax(np.abs(f0)))
    if not abs(f0[worst]) <= EQUILIBRIUM_TOL:     # NaN fails too
        raise ModalError(
            "not an equilibrium: d/dt of state "
            f"'{labels[worst]}' is {f0[worst]:.3e} (tolerance {EQUILIBRIUM_TOL:g})"
        )
    return StateMatrix(a=jacobian(model.rhs, x0, step), labels=list(labels))


def decompose(state_matrix: StateMatrix) -> ModalDecomposition:
    """Eigendecomposition with normalized right/left eigenvector pairs."""
    a = state_matrix.a
    eigvals, right = np.linalg.eig(a)
    norms = np.linalg.norm(right, axis=0)
    if np.any(norms == 0.0):
        raise ModalError("degenerate right eigenvector")
    right = right / norms
    # Rows of inv(right) are the left eigenvectors already scaled to
    # w_i @ u_j = delta_ij. Guard against a defective/near-defective matrix,
    # where this inverse loses all accuracy.
    cond = np.linalg.cond(right)
    if not np.isfinite(cond) or cond > 1e10:
        raise ModalError(
            f"eigenvector matrix condition number {cond:.3e}; the state "
            "matrix is defective or too close to defective for modal analysis"
        )
    left_rows = np.linalg.inv(right)
    # Store left eigenvectors as columns satisfying left^H A = lam left^H.
    left = left_rows.conj().T
    return ModalDecomposition(
        eigenvalues=eigvals,
        right=right,
        left=left,
        labels=list(state_matrix.labels),
    )


def participation_products(dec: ModalDecomposition) -> np.ndarray:
    """Raw complex participation factors, states x modes.

    Entry (k, i) is right[k, i] * left_row[i, k]; each column sums to exactly
    one by biorthogonality.
    """
    return dec.right * dec.left.conj()


def participation_factors(dec: ModalDecomposition) -> np.ndarray:
    """Participation magnitudes normalized to unit column sum."""
    mags = np.abs(participation_products(dec))
    sums = mags.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return mags / sums


def ccbg_pi(participation: np.ndarray, labels: list[StateLabel]) -> float:
    """Share of one mode's participation carried by converter-based states.

    ``participation`` is the magnitude vector of a single mode.  The result
    is sum(converter states) / sum(all states), zero for an all-synchronous
    system, in [0, 1] by construction.
    """
    return _converter_share(np.abs(np.asarray(participation, dtype=float)),
                            _converter_mask(labels))


def _converter_mask(labels: list[StateLabel]) -> np.ndarray:
    return np.array([lab.device_class == "converter" for lab in labels])


def _converter_share(p: np.ndarray, mask: np.ndarray) -> float:
    total = p.sum()
    if total == 0.0:
        return 0.0
    return float(p[mask].sum() / total)


def classify_mode(eigenvalue: complex, converter_share: float) -> str:
    """Coarse mode class from frequency and converter participation.

    Converter attribution takes precedence over the frequency bands so that
    converter-control modes falling inside the electromechanical range are
    not mislabelled.
    """
    if abs(eigenvalue.imag) <= REAL_MODE_TOL:
        return "non_oscillatory"
    if converter_share >= CONVERTER_SHARE_THRESHOLD:
        return "converter_control"
    f = abs(eigenvalue.imag) / (2.0 * np.pi)
    if INTER_AREA_BAND_HZ[0] <= f < INTER_AREA_BAND_HZ[1]:
        return "inter_area"
    if LOCAL_BAND_HZ[0] <= f <= LOCAL_BAND_HZ[1]:
        return "local"
    return "other"


ZERO_MODE_TOL = 1e-3
"""Eigenvalue magnitude below which a mode is treated as a reference zero.

Systems without an infinite bus carry an exact zero from the rotor-angle
reference; with mechanical power held constant a second structural zero
(frequency reference) joins it.  Such a double zero splits under numerical
noise into a conjugate pair of magnitude ~sqrt(noise), so the cut is by
magnitude, far below any physical mode (the slowest here are ~0.1 rad/s
washouts) yet far above the splitting."""


def analyze_modes(state_matrix: StateMatrix) -> list[Mode]:
    """Full modal workup of a state matrix.

    Conjugate pairs are reported once, by their positive-frequency member.
    Reference zero modes (|eigenvalue| below ``ZERO_MODE_TOL``) carry no
    damping information and are omitted.  Modes come back sorted by damping
    ratio, least damped first.
    """
    dec = decompose(state_matrix)
    pf = participation_factors(dec)
    converter = _converter_mask(dec.labels)
    modes = []
    for i, lam in enumerate(dec.eigenvalues):
        if lam.imag < 0.0:
            continue  # conjugate partner carries the same information
        if abs(lam) <= ZERO_MODE_TOL:
            continue
        share = _converter_share(pf[:, i], converter)
        cls = classify_mode(lam, share)
        modes.append(Mode(
            eigenvalue=complex(lam),
            damping=damping_ratio(lam),
            frequency_hz=abs(lam.imag) / (2.0 * np.pi),
            classification=cls,
            participation=pf[:, i],
            ccbg_pi=share,
        ))
    modes.sort(key=lambda m: m.damping)
    return modes


def dominant_modes(modes: list[Mode]) -> dict[str, Mode]:
    """Least-damped oscillatory mode of each class.

    Ties on damping are broken toward the larger real part, then the lower
    frequency.  Non-oscillatory modes are never dominant.
    """
    best: dict[str, Mode] = {}
    for m in modes:
        if m.classification == "non_oscillatory":
            continue
        cur = best.get(m.classification)
        if cur is None or _dominance_key(m) < _dominance_key(cur):
            best[m.classification] = m
    return best


def _dominance_key(m: Mode):
    return (m.damping, -m.eigenvalue.real, m.frequency_hz)
