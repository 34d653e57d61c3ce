"""Device interface shared by every dynamic model in the toolkit.

A device owns a slice of the system state vector and talks to the network
through a Norton pair: a constant shunt admittance that is folded into the
dynamic admittance matrix once, and a source current set by the device
states (for a converter, its size; the network solve gives it the angle of
the terminal voltage).
Both are expressed on the system MVA base; everything inside ``derivatives``
stays on the device base.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
from types import SimpleNamespace

import numpy as np


class DeviceError(ValueError):
    pass


def _complex_array(re, im):
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


# The operations whose float and array forms differ.  Each device equation,
# and the network's closed form (``DynamicSystem.solve_network``), is
# written once, in real arithmetic over its state columns, with the table
# ``OPS[x.ndim]``: Python floats and numpy scalars for one sample (1-D
# states), arrays over a leading sample axis for a stack (2-D).  Each array
# form has the bits of its scalar form: ``np.hypot`` those of ``abs`` of a
# complex (``np.abs`` rounds differently), ``cmul`` writes the product out
# as the scalar one does, (ac - bd) + (ad + bc)j (numpy's vectorized
# product rounds differently), ``dot`` and ``matvec`` are stacked
# ``matmul``s, so each row takes the BLAS dot or gemv of the scalar call,
# and ``max``/``min`` keep Python's choice of operand (the first unless the
# second is strictly beyond it), NaN and signed zeros included.  ``phase``
# and ``pow`` run per element on a stack, because ``np.arctan2`` and
# ``np.power`` round differently from ``cmath.phase`` and ``**``; squares
# are products in both forms, because a numpy scalar's ``** 2`` rounds
# through ``pow``.  ``column`` copies, where ``states`` may give a view.
SCALAR = SimpleNamespace(
    states=np.ndarray.tolist, array=np.array, complex=complex,
    cos=math.cos, sin=math.sin, modulus=abs, phase=cmath.phase, pow=pow,
    max=max, min=min, where=lambda cond, a, b: a if cond else b,
    column=operator.getitem, dot=np.dot, cmul=operator.mul, sqrt=math.sqrt,
    any=bool, matvec=np.matmul)
STACK = SimpleNamespace(
    states=np.transpose, array=lambda cols: np.stack(cols, axis=-1),
    complex=_complex_array,
    cos=np.cos, sin=np.sin, modulus=lambda z: np.hypot(z.real, z.imag),
    phase=lambda z: np.array([cmath.phase(s) for s in z.tolist()]),
    pow=lambda a, n: np.array([s ** n for s in a.tolist()]),
    max=lambda a, b: np.where(b > a, b, a),
    min=lambda a, b: np.where(b < a, b, a), where=np.where,
    column=lambda a, k: a[:, k].copy(),
    dot=lambda a, b: (a[:, None, :] @ b[:, None])[:, 0, 0],
    cmul=lambda a, b: _complex_array(a.real * b.real - a.imag * b.imag,
                                     a.real * b.imag + a.imag * b.real),
    sqrt=np.sqrt, any=np.any, matvec=lambda a, b: (a @ b[..., None])[..., 0])
OPS = (None, SCALAR, STACK)


def require_finite(params) -> None:
    """Reject a parameter dataclass with a NaN or infinite float field,
    naming the field.  Comparison checks let NaN through, so without this a
    NaN limit such as ``i_pmax`` silently switches the limit off.  Reads by
    name: ``vars`` builds a ``__dict__``, whose fields CPython reads slowly."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DeviceError(f"{f.name} must be finite")


class DeviceModel:
    """Base class: identity, state labelling, and the network contract."""

    #: "synchronous" or "converter"; drives participation bookkeeping.
    device_class = "synchronous"

    #: True when the injected current is ``c·V/|V|``: a current of fixed
    #: size that follows the terminal-voltage angle.  ``source_current``
    #: then returns ``c``, and ``DynamicSystem.solve_network`` places the
    #: angle in closed form; it accepts at most one such device.
    source_depends_on_v = False

    state_names: tuple[str, ...] = ()

    #: Protection band ``(lo, hi)`` of the ``rotor_speed`` output, pu, or
    #: ``None``.  A simulation logs the first sample outside it, once per
    #: run; the model itself never checks it.
    speed_band: tuple[float, float] | None = None

    def __init__(self, device_id: str, bus_id: int):
        self.device_id = device_id
        self.bus_id = bus_id

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def initialize(self, v: complex, s_gen_system: complex,
                   system_base_mva: float, omega_s: float) -> np.ndarray:
        """Compute the operating point behind a power-flow solution.

        ``v`` is the solved terminal voltage, ``s_gen_system`` the device's
        generation on the system base.  Returns the equilibrium state slice;
        setpoint constants (references, mechanical input) are stored on the
        device and treated as immutable afterwards.
        """
        raise NotImplementedError

    def norton_admittance(self, system_base_mva: float) -> complex:
        return 0.0 + 0.0j

    def source_current(self, x: np.ndarray, system_base_mva: float):
        """Norton source current on the system base; ``c`` when
        ``source_depends_on_v``.  ``x`` may carry a leading sample axis;
        the currents then have it, each with the bits of one call on its
        sample alone."""
        raise NotImplementedError

    def limits(self) -> tuple[tuple[int, float, float], ...]:
        """Non-windup limits as ``(state index, lower, upper)``, with finite
        ``lower < upper`` bracketing the equilibrium value.

        This is all the device says about its limiters.  The integrator
        holds a limited state at the bound it crossed, by zeroing that
        state's derivative, and releases it when the free derivative points
        back inside (IEEE Std 421.5 non-windup limiter).  A hold freezes
        only its own state, so no device equation needs to know of it.
        """
        return ()

    def derivatives(self, x: np.ndarray, v) -> np.ndarray:
        """State derivatives at terminal voltage ``v``: the free model,
        which is what linearization sees (limiting is the integrator's; see
        ``limits``).  ``x`` may carry a leading sample axis, with ``v`` the
        matching terminal voltages; the derivatives then have it, each row
        with the bits of one call on its sample alone (see ``OPS``)."""
        raise NotImplementedError

    def outputs(self, x: np.ndarray, v) -> dict:
        """Per-device trace quantities (per unit on the device base).

        ``x`` may carry a leading sample axis, with ``v`` the matching
        terminal voltages; each quantity then has that axis too.
        """
        return {}

