"""Device interface shared by every dynamic model in the toolkit.

A device owns a slice of the system state vector and talks to the network
through a Norton pair: a constant shunt admittance that is folded into the
dynamic admittance matrix once, and a source current set by the device
states (for a converter, its size; the network solve gives it the angle of
the terminal voltage).
Both are expressed on the system MVA base; everything inside ``rates``
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
# ``OPS[x.ndim]``: Python numbers for one sample (1-D states), arrays over
# a leading sample axis for a stack (2-D).  One model evaluation takes one
# list in and gives one array out: ``states`` turns the whole state vector
# into a list of floats (a stack: into its columns) once, each device reads
# its slice of that list, computes its internal quantities (a machine's
# E'') and Norton source once, and returns its rates as a plain list, and
# ``array`` builds the one derivative array from all of them
# (``DynamicSystem._evaluate``).  On one sample no numpy scalar arises:
# the sources stay Python complex numbers through the closed form, and
# numpy sees them only in ``matvec``, the BLAS gemv of the bus voltages
# (a stacked ``matmul`` on a stack, so each row takes its sample's gemv).
# Each array form has the bits of its scalar form: ``np.hypot`` those of
# ``abs`` of a complex (``np.abs`` rounds differently), ``cmul`` writes the
# product out as the scalar one does, (ac - bd) + (ad + bc)j (numpy's
# vectorized product rounds differently), ``dot`` is the ordered sum of
# the products, which ``np.einsum`` forms row by row, and ``max``/``min``
# choose the operand as Python's builtins do (the first unless the second
# is strictly beyond it), NaN and signed zeros included; on one sample
# they are that comparison, which is quicker than the builtins.  ``phase``
# and ``pow`` run per element on a stack, because ``np.arctan2`` and
# ``np.power`` round differently from ``cmath.phase`` and ``**``; squares
# are products in both forms, and a complex quotient is written out,
# because numpy's complex ``/`` rounds unlike Python's.
SCALAR = SimpleNamespace(
    states=np.ndarray.tolist, array=lambda f: np.fromiter(f, float, len(f)),
    complex=complex, cos=math.cos, sin=math.sin, modulus=abs,
    phase=cmath.phase, pow=pow, max=lambda a, b: b if b > a else a,
    min=lambda a, b: b if b < a else a,
    where=lambda cond, a, b: a if cond else b,
    dot=lambda a, b: sum(map(operator.mul, a, b)), cmul=operator.mul,
    sqrt=math.sqrt, any=bool, matvec=lambda z, i: z @ np.array(i))
STACK = SimpleNamespace(
    states=np.transpose, array=lambda cols: np.stack(cols, axis=-1),
    complex=_complex_array,
    cos=np.cos, sin=np.sin, modulus=lambda z: np.hypot(z.real, z.imag),
    phase=lambda z: np.array([cmath.phase(s) for s in z.tolist()]),
    pow=lambda a, n: np.array([s ** n for s in a.tolist()]),
    max=lambda a, b: np.where(b > a, b, a),
    min=lambda a, b: np.where(b < a, b, a), where=np.where,
    dot=lambda a, b: np.einsum("mj,j->m", np.stack(a, axis=-1), b),
    cmul=lambda a, b: _complex_array(a.real * b.real - a.imag * b.imag,
                                     a.real * b.imag + a.imag * b.real),
    sqrt=np.sqrt, any=np.any,
    matvec=lambda z, i: (z @ np.stack(i, axis=-1)[..., None])[..., 0])
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

    #: "synchronous" or "converter"; drives participation bookkeeping.  A
    #: converter injects ``c·V/|V|``: a current of fixed size that follows
    #: the terminal-voltage angle.  Its ``source_current`` returns ``c``,
    #: and ``DynamicSystem.solve_network`` places the angle in closed
    #: form; it accepts at most one converter.
    device_class = "synchronous"

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

    # One evaluation calls ``internal``, ``source`` and, after the network
    # solve, ``rates``, each once, with ``m = OPS[x.ndim]`` and ``states =
    # m.states(x)`` (see ``OPS``); ``source_current`` and ``derivatives``
    # wrap them.

    def internal(self, states, m):
        """What ``source`` and ``rates`` both read, from the states alone
        (a machine's E''); ``None`` by default."""
        return None

    def source(self, states, internal, m, system_base_mva: float):
        """Norton source current on the system base; ``c`` for a
        converter (see ``device_class``)."""
        raise NotImplementedError

    def rates(self, states, internal, v, m) -> list:
        """The state derivatives at terminal voltage ``v`` as a list, one
        entry per state: the free model, which is what linearization sees
        (limiting is the integrator's; see ``limits``)."""
        raise NotImplementedError

    def source_current(self, x: np.ndarray, system_base_mva: float):
        """``source`` at the states ``x``.  ``x`` may carry a leading
        sample axis; the currents then have it, each with the bits of one
        call on its sample alone."""
        m = OPS[x.ndim]
        states = m.states(x)
        return self.source(states, self.internal(states, m), m,
                           system_base_mva)

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
        """``rates`` at the states ``x`` and terminal voltage ``v``, as an
        array.  ``x`` may carry a leading sample axis, with ``v`` the
        matching terminal voltages; the derivatives then have it, each row
        with the bits of one call on its sample alone (see ``OPS``)."""
        m = OPS[x.ndim]
        states = m.states(x)
        return m.array(self.rates(states, self.internal(states, m), v, m))

    def outputs(self, x: np.ndarray, v, internal=None) -> dict:
        """Per-device trace quantities (per unit on the device base).

        ``x`` may carry a leading sample axis, with ``v`` the matching
        terminal voltages; each quantity then has that axis too.
        ``internal`` is what ``internal`` gives at ``x`` (on a stack, with
        ``STACK`` over ``x.T``) when the caller has it already, as
        ``DynamicSystem.observe`` does; ``None`` has it computed here.
        """
        return {}

