"""Device interface shared by every dynamic model in the toolkit.

A device owns a slice of the system state vector and talks to the network
through a Norton pair: a constant shunt admittance that is folded into the
dynamic admittance matrix once, and a source current that may depend on the
device states (and, for converter interfaces, on the terminal voltage).
Both are expressed on the system MVA base; everything inside ``derivatives``
stays on the device base.
"""

from __future__ import annotations

import numpy as np


class DeviceError(ValueError):
    pass


class DeviceModel:
    """Base class: identity, state labelling, and the network contract."""

    #: "synchronous" or "converter"; drives participation bookkeeping.
    device_class = "synchronous"

    #: True when ``source_current`` is ``c·V/|V|``: a current of fixed size
    #: that follows the terminal-voltage angle.  ``source_current(x, None,
    #: base)`` then returns ``c``; the network solve places the angle in
    #: closed form and accepts at most one such device.
    source_depends_on_v = False

    state_names: tuple[str, ...] = ()

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

    def source_current(self, x: np.ndarray, v: complex | None,
                       system_base_mva: float) -> complex:
        raise NotImplementedError

    def derivatives(self, x: np.ndarray, v: complex) -> np.ndarray:
        raise NotImplementedError

    def outputs(self, x: np.ndarray, v: complex) -> dict[str, float]:
        """Per-device trace quantities (per unit on the device base)."""
        return {}

