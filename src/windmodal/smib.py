"""Closed-form single-machine model of droop-equipped wind support.

A synchronous machine against a stiff bus, with the wind farm's droop folded
into the swing equation, reduces to two states: per-unit frequency deviation
and angle deviation.  The inertial gain K_in adds to the effective inertia,
the proportional gain K_p adds to the damping torque,

    [d(df)/dt]   [ -(K_p+K_D)/(2H+K_in)   -K_S/(2H+K_in) ] [df]
    [d(dd)/dt] = [        omega0                 0        ] [dd]

which makes the model a cheap, exact oracle for the numerical linearization
and eigenvalue pipeline, and a direct way to map the (K_p, K_in) gain plane.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dfig import DEFAULT_GAIN_GRID
from .modal import StateLabel, damping_ratio


class SmibError(ValueError):
    pass


@dataclass(frozen=True)
class SmibParams:
    """The six numbers of the swing equation above: machine constants and
    the droop gains K_p and K_in, which default to zero (no support).

    Defaults reproduce the reference operating point used across the test
    suite: H = 3.5 s, K_D = 10, K_S = 0.75, 60 Hz.  Construction rejects a
    negative or non-finite gain and a nonpositive 2H + K_in.
    """

    h_s: float = 3.5
    k_damping: float = 10.0
    k_synchronizing: float = 0.75
    omega0: float = 377.0  # conventional 60 Hz synchronous speed, rad/s
    kp: float = 0.0
    kin: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.kp < math.inf and 0.0 <= self.kin < math.inf):
            raise SmibError("droop gains must be finite and nonnegative "
                            f"(kp={self.kp}, kin={self.kin})")
        m = 2.0 * self.h_s + self.kin
        if not m > 0.0:
            raise SmibError(
                f"effective inertia 2H + K_in = {m:.4f} must be positive"
            )

    def with_gains(self, kp: float, kin: float) -> "SmibParams":
        return replace(self, kp=kp, kin=kin)

    @property
    def effective_inertia(self) -> float:
        """2H + K_in, positive by construction."""
        return 2.0 * self.h_s + self.kin


def smib_system_matrix(params: SmibParams) -> np.ndarray:
    """2x2 state matrix in (frequency deviation, angle deviation) order."""
    m = params.effective_inertia
    kd_total = params.k_damping + params.kp
    return np.array([
        [-kd_total / m, -params.k_synchronizing / m],
        [params.omega0, 0.0],
    ])


def smib_eigenvalues(params: SmibParams) -> tuple[np.ndarray, bool]:
    """Closed-form eigenvalue pair and an oscillatory flag.

    Solves the quadratic of the 2x2 matrix directly.  A negative
    discriminant gives the conjugate pair (returned positive-imag first);
    otherwise two real roots come back with ``oscillatory=False``.
    """
    m = params.effective_inertia
    kd_total = params.k_damping + params.kp
    # characteristic polynomial: m*s^2 + kd_total*s + K_S*omega0 = 0
    disc = kd_total ** 2 - 4.0 * m * params.k_synchronizing * params.omega0
    re = -kd_total / (2.0 * m)
    if disc < 0.0:
        im = math.sqrt(-disc) / (2.0 * m)
        return np.array([re + 1j * im, re - 1j * im]), True
    root = math.sqrt(disc) / (2.0 * m)
    return np.array([re + root + 0j, re - root + 0j]), False


@dataclass
class SmibGridPoint:
    kp: float
    kin: float
    eigenvalue: complex
    damping: float
    frequency_hz: float
    oscillatory: bool


def smib_sensitivity_grid(params: SmibParams, kp_values=None,
                          kin_values=None) -> list[SmibGridPoint]:
    """Damping map over the (K_p, K_in) plane.

    Defaults to the 6x6 grid {0, 10, ..., 50}^2.  Rows iterate K_p fastest.
    """
    kp_values = list(DEFAULT_GAIN_GRID if kp_values is None else kp_values)
    kin_values = list(DEFAULT_GAIN_GRID if kin_values is None else kin_values)
    points = []
    for kin in kin_values:
        for kp in kp_values:
            p = params.with_gains(kp, kin)
            lams, osc = smib_eigenvalues(p)
            lam = lams[0]
            points.append(SmibGridPoint(
                kp=kp, kin=kin, eigenvalue=complex(lam),
                damping=1.0 if not osc else damping_ratio(lam),
                frequency_hz=abs(lam.imag) / (2.0 * math.pi),
                oscillatory=osc,
            ))
    return points


def write_grid_csv(points: list[SmibGridPoint], path: str | Path) -> Path:
    """The grid as CSV with columns kp, kin, re, im, damping, freq_hz,
    oscillatory_flag."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kp", "kin", "re", "im", "damping", "freq_hz",
                         "oscillatory_flag"])
        for pt in points:
            writer.writerow([
                f"{pt.kp:.6g}", f"{pt.kin:.6g}",
                f"{pt.eigenvalue.real:.12g}", f"{pt.eigenvalue.imag:.12g}",
                f"{pt.damping:.12g}", f"{pt.frequency_hz:.12g}",
                int(pt.oscillatory),
            ])
    return path


class SmibModel:
    """Numerical adapter exposing the two ODEs to the linearization pipeline.

    Implements the model protocol (rhs / equilibrium / state_labels) by
    evaluating the differential equations themselves rather than the matrix,
    so running it through ``modal.linearize`` genuinely exercises the
    finite-difference path.
    """

    def __init__(self, params: SmibParams):
        self.params = params

    def state_labels(self):
        return [
            StateLabel("smib", "freq_dev", "synchronous"),
            StateLabel("smib", "angle_dev", "synchronous"),
        ]

    def equilibrium(self):
        return np.zeros(2)

    def rhs(self, x):
        """``dx/dt``; ``x`` may carry a leading sample axis."""
        p = self.params
        df, dd = np.moveaxis(x, -1, 0)
        m = p.effective_inertia
        accel = (-(p.k_damping + p.kp) * df - p.k_synchronizing * dd) / m
        return np.stack([accel, p.omega0 * df], axis=-1)
