"""Assembly of devices and network into one autonomous dynamic model.

The network has no states of its own: loads are constant impedances fixed at
the power-flow voltages, every device contributes a Norton shunt to the
dynamic admittance matrix, and the bus voltages solve

    Y_dyn V = sum of device source currents.

Sources are injected only at the k device buses, so each grid keeps the
impedance columns Z[:, device rows] of Z = Y_dyn^-1 (Kron reduction onto the
device buses), computed by one multi-column LU solve when the grid is built.
Machine sources depend only on machine states; a converter source
``c·V_r/|V_r|`` follows its own terminal voltage, and on the k×k block
Z[rows, rows] its magnitude |V_r| solves a scalar quadratic.  Either way a
network solve is k source currents and one small matrix-vector product,
with no LU solve; a stack of samples takes the same closed form once over
its sample axis.  The assembled object implements the model protocol used
by ``modal.linearize`` and the time-domain integrator: ``rhs``,
``equilibrium`` and ``state_labels``.  ``rhs`` accepts a leading sample
axis, so ``modal.jacobian`` evaluates all 2n perturbed points of a state
matrix at once: one stacked network solve, then one call per device on its
slice of the stack, each row with the bits of ``rhs`` on its sample alone.

Event support lives here as grid variants: a three-phase fault (bus shunt,
or midpoint shunt on a split branch), a tripped branch, a scaled load.  Each
variant is a fresh matrix built from the unmodified base, so clearing an
event is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .devices import DeviceModel
from .modal import EQUILIBRIUM_TOL, StateLabel
from .network import Network, build_ybus, stamp_branch
from .powerflow import PowerFlowSolution

DEFAULT_FAULT_ADMITTANCE = 1e4


class SystemModelError(RuntimeError):
    pass


@dataclass
class GridModel:
    """One admittance view of the system (base case or event variant)."""

    y: np.ndarray
    # impedance columns Z[:, device rows] (n_aug × k), in device order
    z_dev: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FaultSpec:
    """Target of a three-phase fault: a bus id or a named branch midpoint."""

    bus: int | None = None
    branch: str | None = None
    admittance: float = DEFAULT_FAULT_ADMITTANCE

    def __post_init__(self):
        if (self.bus is None) == (self.branch is None):
            raise SystemModelError("fault needs exactly one of bus or branch")
        if not (math.isfinite(self.admittance) and self.admittance > 0.0):
            raise SystemModelError("fault admittance must be finite and "
                                   "positive")


class DynamicSystem:
    """Devices plus network behind a single state vector."""

    def __init__(self, network: Network, devices: list[DeviceModel],
                 pf: PowerFlowSolution):
        if not devices:
            raise SystemModelError("no devices to assemble")
        self.network = network
        self.devices = list(devices)
        self.omega_s = 2.0 * np.pi * network.frequency_hz
        self._idx = network.index()

        seen_buses = set()
        for dev in self.devices:
            if dev.bus_id not in self._idx:
                raise SystemModelError(
                    f"device {dev.device_id} sits on unknown bus {dev.bus_id}"
                )
            if dev.bus_id in seen_buses:
                raise SystemModelError(
                    f"bus {dev.bus_id} has more than one device; generation "
                    "cannot be split unambiguously"
                )
            seen_buses.add(dev.bus_id)
        converters = [k for k, dev in enumerate(self.devices)
                      if dev.source_depends_on_v]
        if len(converters) > 1:
            raise SystemModelError(
                "more than one device has a voltage-dependent source; the "
                "network solve handles a single converter bus"
            )
        self._converter = converters[0] if converters else None

        # state bookkeeping
        self._labels: list[StateLabel] = []
        self._slices: list[slice] = []
        pos = 0
        for dev in self.devices:
            self._slices.append(slice(pos, pos + dev.n_states))
            for name in dev.state_names:
                self._labels.append(StateLabel(dev.device_id, name,
                                               dev.device_class))
            pos += dev.n_states
        self.n_states = pos
        # the device bus rows as an index array, which every model
        # evaluation takes without converting a list
        self._rows = np.array([self._idx[dev.bus_id] for dev in self.devices])
        names = [str(lab) for lab in self._labels]
        if len(set(names)) != len(names):
            raise SystemModelError("device ids produce duplicate state labels")

        # dynamic admittance matrix: branches, then the loads as constant
        # impedances at the power-flow voltages, then the Norton shunts
        base = network.base_mva
        self._load_admittance = np.zeros(network.n_bus, dtype=complex)
        for b in network.buses:
            if b.p_load != 0.0 or b.q_load != 0.0:
                self._load_admittance[self._idx[b.id]] = \
                    complex(b.p_load, -b.q_load) / abs(pf.voltage(b.id)) ** 2
        y, _ = build_ybus(network)
        y[np.diag_indices_from(y)] += self._load_admittance
        for dev, row in zip(self.devices, self._rows):
            y[row, row] += dev.norton_admittance(base)
        self._base_grid = self._grid(y)

        # device equilibria from the power-flow point
        x0_parts = []
        for dev in self.devices:
            v_bus = pf.voltage(dev.bus_id)
            s_gen = pf.generation(dev.bus_id)
            x0_parts.append(np.asarray(
                dev.initialize(v_bus, s_gen, base, self.omega_s), dtype=float))
        self._x0 = np.concatenate(x0_parts) if x0_parts else np.empty(0)

        r, self._v_eq = self._evaluate(self._x0)
        worst = int(np.argmax(np.abs(r)))
        if not abs(r[worst]) <= EQUILIBRIUM_TOL:     # NaN fails too
            raise SystemModelError(
                "assembled system is not at equilibrium: d/dt of "
                f"'{self._labels[worst]}' is {r[worst]:.3e}; device "
                "initialization is inconsistent with the power flow"
            )

    # -- model protocol ----------------------------------------------------

    def state_labels(self) -> list[StateLabel]:
        return list(self._labels)

    def equilibrium(self) -> np.ndarray:
        return self._x0.copy()

    def rhs(self, x: np.ndarray, grid: GridModel | None = None) -> np.ndarray:
        """``dx/dt`` on ``grid`` (the base grid by default).  ``x`` may
        carry a leading sample axis; the derivatives then have it, each row
        with the bits of a call on that sample alone."""
        return self._recall(x, grid)[0]

    def _recall(self, x: np.ndarray, grid: GridModel | None
                ) -> tuple[np.ndarray, np.ndarray]:
        """``_evaluate`` for ``rhs``.  At the assembled equilibrium (the
        same bits) on the base grid, the voltages are the ones assembly
        solved for, so only the device derivatives run: the network is not
        solved again for ``linearize``'s equilibrium check.  The
        derivatives are not kept, so that they stay those of the devices
        as they are now."""
        if (grid is None or grid is self._base_grid) \
                and x.tobytes() == self._x0.tobytes():
            return self._derivatives(x, self._v_eq), self._v_eq
        return self._evaluate(x, grid)

    def _evaluate(self, x: np.ndarray, grid: GridModel | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """``(dx, v)``: the derivatives and the network solution behind
        them, so that the integrator keeps the voltages of an accepted step
        instead of solving the network again."""
        v = self.solve_network(x, grid=grid)
        return self._derivatives(x, v), v

    def _derivatives(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Device derivatives at the given bus voltages; no network solve.
        Over a stack, each device is called once on its slice of it."""
        if x.ndim == 2:
            parts = [dev.derivatives(x[:, sl], v_k) for dev, sl, v_k
                     in zip(self.devices, self._slices, v[:, self._rows].T)]
        else:
            parts = [dev.derivatives(x[sl], v_k) for dev, sl, v_k
                     in zip(self.devices, self._slices,
                            v[self._rows].tolist())]
        return np.concatenate(parts, axis=-1)

    # -- network solution --------------------------------------------------

    @property
    def base_grid(self) -> GridModel:
        return self._base_grid

    @property
    def equilibrium_voltages(self) -> np.ndarray:
        return self._v_eq.copy()

    def solve_network(self, x: np.ndarray,
                      grid: GridModel | None = None) -> np.ndarray:
        """Bus voltages for the current states.

        Returns the full (possibly event-augmented) voltage vector
        ``V = Z[:, rows] i``, with ``i`` the k device source currents; the
        grid holds those impedance columns, so no LU solve runs here.  A
        converter at bus ``r`` injects ``c u`` with ``u = V_r/|V_r|``.  The
        other sources give ``w_r = Z[r, rows] i_fixed``; writing
        ``z = Z[r, r]`` and ``m = |V_r|``, ``V_r = w_r + z c u`` gives
        ``|m - z c| = |w_r|``, whose larger root is the operating
        (high-voltage) solution, and then ``u = w_r / (m - z c)``.  When no
        positive root exists the network cannot carry the injection
        (voltage collapse) and ``SystemModelError`` is raised.

        ``x`` may carry a leading sample axis; the voltages then have it,
        and each row has the bits of a call on that sample alone.  Each
        device gives the source currents of the whole stack in one call,
        and the closed form runs once over all samples
        (``_stacked_voltages``).  A single sample keeps its own scalar
        closed form, ``_voltages``: it runs in every model evaluation,
        where a batch of one costs several times as much.
        """
        grid = grid if grid is not None else self._base_grid
        base = self.network.base_mva
        if x.ndim == 2:
            i = np.column_stack([dev.source_current(x[:, sl], base)
                                 for dev, sl in zip(self.devices,
                                                    self._slices)])
            return self._stacked_voltages(i, grid)
        i = [dev.source_current(x[sl], base)
             for dev, sl in zip(self.devices, self._slices)]
        return self._voltages(i, grid)

    def _voltages(self, i, grid: GridModel) -> np.ndarray:
        """``solve_network`` for one sample's source currents ``i``, a list
        whose converter entry is ``c``."""
        k = self._converter
        if k is None:
            return grid.z_dev @ i

        r = self._rows[k]
        c = i[k]
        i = np.array(i)
        i[k] = 0.0
        z_r = grid.z_dev[r]
        w_r = z_r @ i
        zc = z_r[k] * c
        a = abs(w_r)
        disc = a * a - zc.imag * zc.imag
        m = zc.real + math.sqrt(max(disc, 0.0))
        if disc < 0.0 or m <= 0.0:
            raise self._collapse()
        i[k] = c * w_r / (m - zc)
        return grid.z_dev @ i

    def _stacked_voltages(self, i: np.ndarray, grid: GridModel) -> np.ndarray:
        """``_voltages`` over the rows of ``i`` (samples × k, changed in
        place), with the bits of one call per row.  The matrix products
        are stacked ``matmul`` calls, so each row takes the BLAS dot or
        gemv of the scalar ``@``; the complex products are written out as
        the scalar complex arithmetic does them, (ac - bd) + (ad + bc)j,
        and the modulus is ``np.hypot`` (the bits of scalar ``abs``),
        because numpy's vectorized complex product and ``np.abs`` round
        differently.  Both forms square by a product: an array's ``** 2``
        is one, but a numpy scalar's rounds through ``pow``, which differs
        from the product in the last bit about once in a thousand."""
        k = self._converter
        if k is not None:
            r = self._rows[k]
            c = i[:, k].copy()
            i[:, k] = 0.0
            z_r = grid.z_dev[r]
            w = (i[:, None, :] @ z_r[:, None])[:, 0, 0]
            z = z_r[k]
            zc = ((z.real * c.real - z.imag * c.imag)
                  + 1j * (z.real * c.imag + z.imag * c.real))
            a = np.hypot(w.real, w.imag)
            disc = a * a - zc.imag * zc.imag
            m = zc.real + np.sqrt(np.maximum(disc, 0.0))
            if np.any((disc < 0.0) | (m <= 0.0)):
                raise self._collapse()
            cw = ((c.real * w.real - c.imag * w.imag)
                  + 1j * (c.real * w.imag + c.imag * w.real))
            i[:, k] = cw / (m - zc)
        return (grid.z_dev @ i[:, :, None])[:, :, 0]

    def _collapse(self) -> SystemModelError:
        dev = self.devices[self._converter]
        return SystemModelError(
            f"no network solution: converter {dev.device_id} injects more "
            f"current than bus {dev.bus_id} can carry (voltage collapse)"
        )

    # -- event grid variants -------------------------------------------------

    def grid_variant(self, faults: list[FaultSpec] = (),
                     out_branches: list[str] = (),
                     load_scales: dict[int, float] | None = None) -> GridModel:
        """Admittance matrix with the given modifications applied to base.

        Midpoint faults append one bus per faulted branch; everything else
        keeps the base dimensions.  Built fresh from the unmodified base so
        variants never accumulate.
        """
        n = self.network.n_bus
        midpoint = [f for f in faults if f.branch is not None]
        n_aug = n + len(midpoint)
        y = np.zeros((n_aug, n_aug), dtype=complex)
        y[:n, :n] = self._base_grid.y

        for name in out_branches:
            br = self.network.branch(name)
            if not br.in_service:
                raise SystemModelError(f"branch {name!r} is already out")
            stamp_branch(y, self._idx[br.from_bus], self._idx[br.to_bus],
                         br.y_series, br.b_shunt, br.tap, sign=-1.0)

        for k, f in enumerate(midpoint):
            br = self.network.branch(f.branch)
            if not br.in_service:
                raise SystemModelError(f"branch {f.branch!r} is already out")
            if br.tap != 1.0:
                raise SystemModelError(
                    f"midpoint fault on off-nominal-tap branch {f.branch!r} "
                    "is not supported"
                )
            if f.branch in out_branches:
                raise SystemModelError(
                    f"branch {f.branch!r} cannot be both faulted and out"
                )
            # the branch becomes two half sections through the fault bus
            m = n + k
            fi, ti = self._idx[br.from_bus], self._idx[br.to_bus]
            stamp_branch(y, fi, ti, br.y_series, br.b_shunt, sign=-1.0)
            for a, b in ((fi, m), (m, ti)):
                stamp_branch(y, a, b, 2.0 * br.y_series, br.b_shunt / 2.0)
            y[m, m] += f.admittance

        for f in faults:
            if f.bus is not None:
                if f.bus not in self._idx:
                    raise SystemModelError(f"fault targets unknown bus {f.bus}")
                y[self._idx[f.bus], self._idx[f.bus]] += f.admittance

        if load_scales:
            for bus_id, scale in load_scales.items():
                if bus_id not in self._idx:
                    raise SystemModelError(
                        f"load step targets unknown bus {bus_id}"
                    )
                row = self._idx[bus_id]
                if self._load_admittance[row] == 0.0:
                    raise SystemModelError(
                        f"bus {bus_id} has no load to step"
                    )
                y[row, row] += (scale - 1.0) * self._load_admittance[row]

        return self._grid(y)

    def _grid(self, y: np.ndarray) -> GridModel:
        """A grid view with its device-bus impedance columns: one LU
        factorization and one multi-column solve, paid once per grid."""
        k = len(self._rows)
        unit = np.zeros((y.shape[0], k), dtype=complex)
        unit[self._rows, np.arange(k)] = 1.0
        return GridModel(y=y, z_dev=lu_solve(lu_factor(y), unit))

    # -- diagnostics ---------------------------------------------------------

    def device_outputs(self, x: np.ndarray, v: np.ndarray) -> dict:
        """Trace quantities keyed ``"<device>.<quantity>"``.  ``x`` and
        ``v`` may carry a leading sample axis; the values then have it."""
        out = {}
        for dev, sl, row in zip(self.devices, self._slices, self._rows):
            for key, val in dev.outputs(x[..., sl], v[..., row]).items():
                out[f"{dev.device_id}.{key}"] = val
        return out

    def power_balance_residual(self, v: np.ndarray, outputs: dict,
                               grid: GridModel | None = None):
        """|device injection - network absorption| in pu; an audit of the
        algebraic solution, tiny whenever the solve converged.  The device
        side is the terminal active power in ``outputs``, the
        ``device_outputs`` at the voltages ``v``; the device Norton shunts
        are folded into ``grid.y``, so they are taken out of it for the
        network side: ``sum_r P_r - Re(V^T conj(Y_nf V))``.  ``v`` and the
        outputs may carry a leading sample axis, and the residual then has
        one value per sample."""
        grid = grid if grid is not None else self._base_grid
        base = self.network.base_mva
        y_nf = grid.y.copy()
        p_dev = 0.0
        for dev, row in zip(self.devices, self._rows):
            y_nf[row, row] -= dev.norton_admittance(base)
            p_dev += (outputs[f"{dev.device_id}.active_power"]
                      * dev.params.base_mva / base)
        i_net = v @ y_nf.T
        p_net = (v.real * i_net.real + v.imag * i_net.imag).sum(axis=-1)
        return np.abs(p_dev - p_net)


def assemble(network: Network, devices: list[DeviceModel],
             pf: PowerFlowSolution) -> DynamicSystem:
    """Convenience constructor mirroring the pipeline order."""
    return DynamicSystem(network, devices, pf)
