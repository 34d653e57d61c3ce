"""Eigenvalue analysis of linearized power-system models.

Builds the state matrix of a nonlinear model by central finite differences,
decomposes it into modes, and reduces each mode to one row of the report
table (``Mode``): the eigenvalue's parts, damping ratio, modal frequency,
the share of participation carried by converter-based devices, and a
coarse classification (inter-area / local / converter control).  Every state
matrix in the toolkit comes from one routine, ``jacobian``: it stacks the
2n central-difference points and evaluates the model once on the stack, so
a model's ``rhs`` accepts a leading sample axis.

Rows come from one eigensolve and one real inverse per matrix
(``mode_spectrum``) and one array rule that classifies the eigenvalues of
any number of matrices and picks each one's dominant modes with a stable
sort.  ``analyze_modes`` is the one-matrix case; a gain sweep makes one
pass over all its cells (``dominant_rows``) and builds rows only for the
dominant modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Mode classes sorted by name.  A class's index is its code in the array
# rule, so dominant rows come out in this order.
MODE_CLASSES = ("converter_control", "inter_area", "local",
                "non_oscillatory", "other")
(_CONVERTER_CONTROL, _INTER_AREA, _LOCAL, _NON_OSCILLATORY,
 _OTHER) = range(len(MODE_CLASSES))

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

    Right eigenvectors (columns of ``right``) have unit 2-norm, and the
    two columns of a complex pair are exact conjugates.  Left eigenvectors
    (columns of ``left``) are scaled so that
    ``left[:, i].conj() @ right[:, i] == 1``; for distinct modes the product
    is zero, which is what makes participation factors sum to one.  Both
    sets come from one real basis and its inverse (``_eigenpairs``).
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    labels: list[StateLabel]


@dataclass(frozen=True)
class Mode:
    """One oscillatory (or real) mode: a row of the report's mode table.

    ``imag`` is |Im lam|, so the eigenvalue is ``complex(real, imag)``.
    """

    classification: str
    real: float
    imag: float
    damping: float
    frequency_hz: float
    ccbg_pi: float


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
    """Eigendecomposition with normalized right/left eigenvector pairs.

    Both sets come from the real basis of ``_eigenpairs`` and its one
    inverse.  The left set is the inverse of the right one, so the inverse
    must be accurate: a matrix whose eigenvector matrix ``R`` cannot be
    inverted, or whose Frobenius condition number ``||R||_F ||R^-1||_F``
    is not finite or exceeds 1e10, is rejected as defective.  The columns
    of ``R`` have unit norm, so that number is ``sqrt(n) ||R^-1||_F`` and
    comes from the inverse already in hand.  It is never below the 2-norm
    condition number (``||M||_2 <= ||M||_F``), so, up to rounding of order
    ``cond * eps``, it rejects every matrix a 2-norm guard with the same
    bound would.
    """
    eigvals, basis, inv_basis, _, _ = _eigenpairs(state_matrix.a)
    up = np.flatnonzero(eigvals.imag > 0.0)
    right = basis.astype(complex)
    right[:, up] += 1j * basis[:, up + 1]
    right[:, up + 1] = right[:, up].conj()
    left_rows = inv_basis.astype(complex)
    left_rows[up] -= 1j * inv_basis[up + 1]
    left_rows[up] *= 0.5
    left_rows[up + 1] = left_rows[up].conj()
    # Store left eigenvectors as columns satisfying left^H A = lam left^H.
    return ModalDecomposition(
        eigenvalues=eigvals,
        right=right,
        left=left_rows.conj().T,
        labels=list(state_matrix.labels),
    )


def _eigenpairs(a: np.ndarray):
    """``(eigenvalues, B, inv(B), |R|^2, |inv(R)|^2)`` of ``a``, behind the
    conditioning guard ``decompose`` describes.

    ``eig`` of a real matrix returns each complex pair as adjacent entries
    j, j + 1, Im lam > 0 first, with ``lam[j + 1] == conj(lam[j])``
    exactly; anything else raises ``ModalError``.  The unit-norm
    eigenvector matrix is ``R = B T`` with ``B`` real: a pair's columns in
    ``B`` are the real and imaginary parts of eig's column j, and T is
    [[1, 1], [i, -i]] on the pair, so column j + 1 of ``R`` is
    ``conj(R[:, j])`` by construction; T is 1 on a real mode.  So rows a,
    b of ``inv(B)`` give the rows (a - i b) / 2 and (a + i b) / 2 of
    ``inv(R)``, and a real mode's row is its row of ``inv(B)``.  ``|R|^2``
    and ``|inv(R)|^2`` hold the squared magnitudes of the entries.  On a
    pair, ``B`` is ``R`` times a unitary scaled by 1/sqrt(2), so inverting
    ``B`` is as well conditioned as inverting ``R``.
    """
    eigvals, vectors = np.linalg.eig(a)
    imag = eigvals.imag
    up = np.flatnonzero(imag > 0.0)
    down = up + 1
    if (np.count_nonzero(imag) != 2 * up.size
            or not (eigvals.take(down, mode="clip")
                    == eigvals[up].conj()).all()):
        raise ModalError(
            "eig did not return each complex pair as adjacent conjugate "
            "eigenvalues, positive imaginary part first; the real "
            "eigenvector basis needs that layout"
        )
    basis = vectors.real.copy()
    basis[:, down] = vectors.imag[:, up]
    norms_sq = np.square(basis).sum(axis=0)
    norms_sq[up] = norms_sq[down] = norms_sq[up] + norms_sq[down]
    if not norms_sq.all():
        raise ModalError("degenerate right eigenvector")
    basis /= np.sqrt(norms_sq)
    # Guard against a defective/near-defective matrix, where this inverse
    # loses all accuracy.
    try:
        inv_basis = np.linalg.inv(basis)
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        with np.errstate(over="ignore"):    # an overflow reads as inf
            left_sq = np.square(inv_basis)
            left_sq[up] = left_sq[down] = 0.25 * (left_sq[up]
                                                  + left_sq[down])
            cond = math.sqrt(a.shape[0] * left_sq.sum())
    if not np.isfinite(cond) or cond > 1e10:
        raise ModalError(
            f"eigenvector matrix condition number {cond:.3e}; the state "
            "matrix is defective or too close to defective for modal analysis"
        )
    right_sq = np.square(basis)
    right_sq[:, up] = right_sq[:, down] = right_sq[:, up] + right_sq[:, down]
    return eigvals, basis, inv_basis, right_sq, left_sq


def participation_products(dec: ModalDecomposition) -> np.ndarray:
    """Raw complex participation factors, states x modes.

    Entry (k, i) is right[k, i] * left_row[i, k]; each column sums to exactly
    one by biorthogonality.
    """
    return dec.right * dec.left.conj()


def participation_factors(dec: ModalDecomposition) -> np.ndarray:
    """Participation magnitudes normalized to unit column sum."""
    return _unit_participation(_abs2(dec.right), _abs2(dec.left.T)).T


def _abs2(z: np.ndarray) -> np.ndarray:
    return np.square(z.real) + np.square(z.imag)


def _unit_participation(right_sq: np.ndarray,
                        left_sq: np.ndarray) -> np.ndarray:
    """Participation magnitudes ``|R_kj| |w_jk|``, modes x states, each row
    scaled to unit sum, from ``|R_kj|^2`` (states x modes) and ``|w_jk|^2``
    (modes x states, C-contiguous, scaled in place).

    ``mode_spectrum`` passes the squares of ``_eigenpairs`` and
    ``participation_factors`` those of ``decompose``'s vectors: on a pair,
    0.25 (a^2 + b^2) and (a/2)^2 + (b/2)^2 are the same bits, barring
    underflow.  The rows are C-contiguous, so numpy sums each as it sums a
    single vector: a mode's row has the same bits whichever other modes
    are computed with it.
    """
    left_sq *= right_sq.T
    mags = np.sqrt(left_sq, out=left_sq)
    sums = mags.sum(axis=1)
    sums[sums == 0.0] = 1.0
    mags /= sums[:, None]
    return mags


def ccbg_pi(participation: np.ndarray, labels: list[StateLabel]) -> float:
    """Share of one mode's participation carried by converter-based states.

    ``participation`` is the magnitude vector of a single mode.  The result
    is sum(converter states) / sum(all states), zero for an all-synchronous
    system, in [0, 1] by construction.
    """
    p = np.abs(np.asarray(participation, dtype=float))
    return float(_converter_fractions(p[None, :], converter_mask(labels))[0])


def converter_mask(labels: list[StateLabel]) -> np.ndarray:
    """True at each converter state: the ``converter`` of ``mode_spectrum``."""
    return np.array([lab.device_class == "converter" for lab in labels])


def _converter_fractions(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``ccbg_pi`` of each row of the magnitudes ``p`` (modes x states,
    C-contiguous).

    Each row is summed as one contiguous row, the order numpy sums a
    single vector in, so a row's share has the bits of that vector's.
    """
    total = p.sum(axis=1)
    conv = p.compress(mask, axis=1).sum(axis=1)
    total[total == 0.0] = 1.0       # an all-zero row has share 0
    return conv / total


def classify_mode(eigenvalue: complex, converter_share: float) -> str:
    """Coarse mode class from frequency and converter participation.

    Converter attribution takes precedence over the frequency bands so that
    converter-control modes falling inside the electromechanical range are
    not mislabelled.
    """
    code = _class_codes(np.abs([eigenvalue.imag]),
                        np.array([converter_share], dtype=float))
    return MODE_CLASSES[code[0]]


def _class_codes(imag: np.ndarray, share: np.ndarray) -> np.ndarray:
    """``MODE_CLASSES`` index of each mode from |Im lam| and its converter
    share: the one place the bands are applied."""
    f = imag / (2.0 * np.pi)
    codes = np.full(imag.shape, _OTHER)
    # each assignment overrides the ones before it
    codes[(LOCAL_BAND_HZ[0] <= f) & (f <= LOCAL_BAND_HZ[1])] = _LOCAL
    codes[(INTER_AREA_BAND_HZ[0] <= f) & (f < INTER_AREA_BAND_HZ[1])] = \
        _INTER_AREA
    codes[share >= CONVERTER_SHARE_THRESHOLD] = _CONVERTER_CONTROL
    codes[imag <= REAL_MODE_TOL] = _NON_OSCILLATORY
    return codes


ZERO_MODE_TOL = 1e-3
"""Eigenvalue magnitude below which a mode is treated as a reference zero.

Systems without an infinite bus carry an exact zero from the rotor-angle
reference; with mechanical power held constant a second structural zero
(frequency reference) joins it.  Such a double zero splits under numerical
noise into a conjugate pair of magnitude ~sqrt(noise), so the cut is by
magnitude, far below any physical mode (the slowest here are ~0.1 rad/s
washouts) yet far above the splitting."""


def mode_spectrum(a: np.ndarray, converter: np.ndarray):
    """``(eigenvalues, shares)`` of the modes of ``a`` that get a row, in
    ``eig`` order, with ``decompose``'s guard and errors.

    ``converter`` marks the converter states (``converter_mask``).  The
    participation comes from the real basis and its one inverse
    (``_eigenpairs``), for the modes that get a row only, with the bits of
    ``participation_factors``.
    """
    lam, _, _, right_sq, left_sq = _eigenpairs(a)
    # the conjugate partner (imag < 0) carries the same information;
    # np.hypot has the bits of abs() of each complex, np.abs of the array
    # may differ in the last one
    keep = (lam.imag >= 0.0) & (np.hypot(lam.real, lam.imag) > ZERO_MODE_TOL)
    pf = _unit_participation(right_sq[:, keep], left_sq[keep])
    return lam[keep], _converter_fractions(pf, converter)


def _mode_table(lam: np.ndarray, share: np.ndarray):
    """Class codes, |Im lam|, damping ratios and frequencies of the rows:
    bit for bit ``classify_mode``, ``abs(lam.imag)``, ``damping_ratio``
    and ``abs(lam.imag) / 2 pi`` of each."""
    imag = np.abs(lam.imag)
    return (_class_codes(imag, share), imag,
            -lam.real / np.hypot(lam.real, lam.imag), imag / (2.0 * np.pi))


def _modes(lam, share, table, index) -> list[Mode]:
    """``Mode`` rows of the spectrum entries at ``index``, in that order."""
    codes, imag, damping, freq = (col[index].tolist() for col in table)
    return [
        Mode(classification=MODE_CLASSES[c], real=re, imag=im, damping=d,
             frequency_hz=f, ccbg_pi=s)
        for c, re, im, d, f, s in zip(codes, lam.real[index].tolist(), imag,
                                      damping, freq, share[index].tolist())
    ]


def _dominant(cell, codes, damping, real, freq) -> np.ndarray:
    """Indices of the dominant rows: in each cell, the least-damped mode of
    each oscillatory class, ties broken toward the larger real part, then
    the lower frequency, then the earlier row (``np.lexsort`` is stable);
    ordered by cell, then by class name.
    """
    order = np.lexsort((freq, -real, damping, codes, cell))
    cell, codes = cell[order], codes[order]
    first = codes != _NON_OSCILLATORY
    first[1:] &= (cell[1:] != cell[:-1]) | (codes[1:] != codes[:-1])
    return order[first]


def analyze_modes(state_matrix: StateMatrix) -> list[Mode]:
    """Full modal workup of a state matrix: the rows of its mode table.

    Conjugate pairs are reported once, by their positive-frequency member.
    Reference zero modes (|eigenvalue| below ``ZERO_MODE_TOL``) carry no
    damping information and are omitted.  Modes come back sorted by damping
    ratio, least damped first, ties in ``eig`` order.  A matrix whose
    eigenvector matrix has a Frobenius condition number above 1e10 raises
    ``ModalError``; that number is never below the 2-norm one (see
    ``decompose``).  Each row has the bits of ``damping_ratio``,
    ``abs(lam.imag) / 2 pi``, ``ccbg_pi`` and ``classify_mode`` of its
    mode.  The rows carry no per-state participation;
    ``participation_factors`` of ``decompose`` gives it.
    """
    lam, share = mode_spectrum(state_matrix.a,
                               converter_mask(state_matrix.labels))
    table = _, _, damping, _ = _mode_table(lam, share)
    return _modes(lam, share, table, np.argsort(damping, kind="stable"))


def dominant_rows(spectra) -> list[tuple[Mode, ...]]:
    """Dominant rows of each ``(eigenvalues, shares)`` of ``mode_spectrum``.

    Each tuple is what ``dominant_modes`` picks from ``analyze_modes`` of
    that matrix, from one array pass over all the spectra.
    """
    lam = np.concatenate([np.empty(0, complex), *(s[0] for s in spectra)])
    share = np.concatenate([np.empty(0), *(s[1] for s in spectra)])
    cell = np.repeat(np.arange(len(spectra)), [s[0].size for s in spectra])
    table = codes, _, damping, freq = _mode_table(lam, share)
    pick = _dominant(cell, codes, damping, lam.real, freq)
    rows = [[] for _ in spectra]
    for c, mode in zip(cell[pick].tolist(), _modes(lam, share, table, pick)):
        rows[c].append(mode)
    return [tuple(r) for r in rows]


def dominant_modes(modes: list[Mode]) -> dict[str, Mode]:
    """Least-damped oscillatory mode of each class, in class-name order.

    Ties on damping are broken toward the larger real part, then the lower
    frequency, then the earlier mode in ``modes``.  Non-oscillatory modes
    are never dominant.  This is the rule ``dominant_rows`` applies to a
    sweep's cells, run on one cell.
    """
    table = np.array([(MODE_CLASSES.index(m.classification), m.damping,
                        m.real, m.frequency_hz) for m in modes]).reshape(-1, 4)
    pick = _dominant(np.zeros(len(modes)), *table.T)
    return {modes[i].classification: modes[i] for i in pick.tolist()}
