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
with no LU solve.

One evaluation is one list in and one array out, written once over
``devices.OPS`` in ``DynamicSystem._evaluate``: the state vector becomes a
Python list once (a stack: its columns), each device computes its internal
quantities and Norton source once from its slice of that list (a machine's
E'' once), the closed form runs once, and each device returns its rates as
a plain list, of which one array is built.  On one sample the sources stay
Python complex numbers through the closed form, with the converter's
impedance row held per grid as Python numbers, so no numpy scalar arises;
numpy builds the one source array of the bus-voltage product, and the
stacked form keeps each row's bits (see ``devices.OPS``).  ``rhs``,
``solve_network`` and ``observe`` (and the devices' ``source_current``
and ``derivatives``) are thin wrappers over that pass; ``observe`` hands
each device's internal quantities on to its trace outputs.  The assembled object
implements the model protocol used by ``modal.linearize`` and the
time-domain integrator: ``rhs``, ``equilibrium``, ``state_labels`` and
``limits`` (the devices' limits on system state indices).  ``rhs`` accepts
a leading sample axis, so ``modal.jacobian`` evaluates all 2n perturbed
points of a state matrix at once, in the same pass over arrays of samples,
each row with the bits of ``rhs`` on its sample alone.

The integrator evaluates ``generate_rhs()``, built once per run: the same
pass run once on traced values (``devices.TRACE``) and written out by
``tracing.Tape`` as one straight-line function of one sample, with no loop
over the devices and the bits and errors of ``rhs``.  Its parameters,
setpoints and literals are default arguments, so the compiled code is
shared by every system of one structure.  ``rhs``, ``solve_network``,
``observe`` and the stacked forms stay interpreted, so the modal path and
the sweep trace and compile nothing.

Event support lives here as grid variants built from the script's active
events: a three-phase fault (bus shunt, or midpoint shunt on a split
branch), a tripped branch, a scaled load.  Each variant is a fresh matrix
built from the unmodified base, so clearing an event is exact by
construction.  The events are read by their fields alone, so this module
does not import the time-domain one that defines them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .devices import OPS, TRACE_NAMES, DeviceModel
from .modal import EQUILIBRIUM_TOL, StateLabel
from .network import Network, build_ybus, stamp_branch
from .powerflow import PowerFlowSolution
from .tracing import Tape


class SystemModelError(RuntimeError):
    pass


@dataclass
class GridModel:
    """One admittance view of the system (base case or event variant)."""

    y: np.ndarray
    # impedance columns Z[:, device rows] (n_aug × k), in device order
    z_dev: np.ndarray = field(repr=False)
    # the converter bus r's row Z[r, device rows] with its own entry
    # zeroed, and that entry Z[r, r], as Python complex numbers; None
    # without a converter
    z_conv: tuple | None = field(default=None, repr=False)


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
                      if dev.device_class == "converter"]
        if len(converters) > 1:
            raise SystemModelError(
                "more than one device has a voltage-dependent source; the "
                "network solve handles a single converter bus"
            )
        self._converter = converters[0] if converters else None
        if converters:
            dev = self.devices[converters[0]]
            # the text of the closed form's error: no network solution
            self._collapse = (
                f"no network solution: converter {dev.device_id} injects "
                f"more current than bus {dev.bus_id} can carry (voltage "
                "collapse)")

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
        y = build_ybus(network)
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

        self._v_eq, r = self._evaluate(self._x0, None)
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

    def limits(self) -> list[tuple[int, float, float]]:
        """Every device's non-windup limits (``DeviceModel.limits``) as
        ``(system state index, lower, upper)``, in state order."""
        return [(sl.start + k, lo, hi)
                for dev, sl in zip(self.devices, self._slices)
                for k, lo, hi in dev.limits()]

    def rhs(self, x: np.ndarray, grid: GridModel | None = None) -> np.ndarray:
        """``dx/dt`` on ``grid`` (the base grid by default).  ``x`` may
        carry a leading sample axis; the derivatives then have it, each row
        with the bits of a call on that sample alone."""
        return self._evaluate(x, grid)[1]

    def generate_rhs(self):
        """``rhs`` on one sample as one generated straight-line function
        ``f(x, grid)`` (``grid`` not ``None``), with the bits of ``rhs``
        and its errors, the first one first.  It is ``_evaluate`` run once
        on traced values (``devices.TRACE``) and written out by
        ``tracing.Tape``: no loop over the devices, every parameter,
        setpoint, literal and the device rows default arguments, and the
        grid's ``z_dev`` (and with a converter ``z_conv``) read from
        ``grid``, so one function serves every grid of this system and its
        code object every system of its structure.  Tracing costs about a
        millisecond per call; compiling, a few more, once per structure."""
        tape = Tape()
        x, grid = tape.parameter("x", self.n_states), tape.parameter("grid")
        z_dev = tape.record("{0}.z_dev", (grid,))
        # a system with no converter has no z_conv, and reads none
        z_conv = (None if self._converter is None
                  else tuple(tape.unpack("{0}.z_conv", (grid,), 2)))
        traced = GridModel(None, z_dev, z_conv)
        return tape.function(self._evaluate(x, traced)[1], TRACE_NAMES)

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

        ``w_r`` is the ordered sum of its products, and the quotient is
        ``c w_r conj(m - z c) / |w_r|^2``: products and one real division,
        which round alike on Python numbers and on arrays.

        ``x`` may carry a leading sample axis; the voltages then have it,
        and each row has the bits of a call on that sample alone.  The
        closed form is written once, in ``_evaluate``, with the operations
        ``OPS[x.ndim]`` (``devices.OPS``): Python numbers on one sample,
        up to the matrix-vector product of the voltages.  ``rhs`` runs it
        in the same pass that gives the derivatives.
        """
        return self._evaluate(x, grid, rates=False)[0]

    def _evaluate(self, x: np.ndarray, grid: GridModel | None,
                  rates: bool = True):
        """``(V, dx/dt)``, or unless ``rates`` ``(V, internals)``, each
        device's ``internal``: the one pass behind ``rhs``,
        ``solve_network`` and ``observe`` (see the module docstring).  The
        closed form is ``solve_network``'s."""
        grid = grid if grid is not None else self._base_grid
        ops = OPS[x.ndim]
        cols = ops.states(x)
        states = [cols[sl] for sl in self._slices]
        inner = [dev.internal(s, ops) for dev, s in zip(self.devices, states)]
        base = self.network.base_mva
        i = [dev.source(s, e, ops, base) for dev, s, e
             in zip(self.devices, states, inner)]
        k = self._converter
        if k is not None:
            # the row's own entry is zero, so w sums the other sources
            z_row, z = grid.z_conv
            c = i[k]
            w = ops.dot(i, z_row)
            zc = ops.cmul(z, c)
            a = ops.modulus(w)
            disc = a * a - zc.imag * zc.imag
            m = zc.real + ops.sqrt(ops.max(disc, 0.0))
            ops.guard((disc < 0.0) | (m <= 0.0), SystemModelError,
                      self._collapse)
            # c w / (m - zc) as c w conj(m - zc) / |w|^2, since
            # |m - zc| = |w|: products and one real division, which
            # round alike in both forms
            p, d, q = ops.cmul(c, w), m - zc.real, a * a
            i[k] = ops.complex((p.real * d - p.imag * zc.imag) / q,
                               (p.real * zc.imag + p.imag * d) / q)
        v = ops.matvec(grid.z_dev, i)
        if not rates:
            return v, inner
        f = []
        for dev, s, e, v_r in zip(self.devices, states, inner,
                                  ops.take(v, self._rows)):
            f += dev.rates(s, e, v_r, ops)
        return v, ops.array(f)

    # -- event grid variants -------------------------------------------------

    def grid_variant(self, events) -> GridModel:
        """Admittance matrix with the active events applied to the base.

        ``events`` are three-phase faults, line trips and load steps, of
        which only ``kind``, ``bus``, ``branch``, ``admittance`` and
        ``scale`` are read.  They apply in a fixed order: the line trips,
        then the faults at branch midpoints, then those at buses, then the
        load steps, each in the order given, so the admittance sums do not
        depend on how the kinds are interleaved.  A load step scales the
        base load of its bus, one step per bus.  Midpoint faults append one
        bus per faulted branch; everything else keeps the base dimensions.
        Built fresh from the unmodified base so variants never accumulate.
        """
        by_kind = {"line_trip": [], "three_phase_fault": [], "load_step": []}
        for ev in events:
            if ev.kind not in by_kind:
                raise SystemModelError(f"a {ev.kind} event changes no grid")
            by_kind[ev.kind].append(ev)
        trips, faults, steps = by_kind.values()
        out_branches = [ev.branch for ev in trips]
        if len({ev.bus for ev in steps}) != len(steps):
            raise SystemModelError("more than one load step on a bus")
        n = self.network.n_bus
        midpoint = [f for f in faults if f.branch is not None]
        n_aug = n + len(midpoint)
        y = np.zeros((n_aug, n_aug), dtype=complex)
        y[:n, :n] = self._base_grid.y

        for name in out_branches:
            br = self.network.branch(name)
            stamp_branch(y, self._idx[br.from_bus], self._idx[br.to_bus],
                         br.y_series, br.b_shunt, sign=-1.0)

        for k, f in enumerate(midpoint):
            br = self.network.branch(f.branch)
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

        for ev in steps:
            if ev.bus not in self._idx:
                raise SystemModelError(
                    f"load step targets unknown bus {ev.bus}"
                )
            row = self._idx[ev.bus]
            if self._load_admittance[row] == 0.0:
                raise SystemModelError(f"bus {ev.bus} has no load to step")
            y[row, row] += (ev.scale - 1.0) * self._load_admittance[row]

        return self._grid(y)

    def _grid(self, y: np.ndarray) -> GridModel:
        """A grid view with its device-bus impedance columns: one LU
        factorization and one multi-column solve, paid once per grid.  A
        zero pivot (an island with no path to ground, such as a farm bus
        whose only branch is out) raises ``SystemModelError`` naming those
        buses."""
        k = len(self._rows)
        unit = np.zeros((y.shape[0], k), dtype=complex)
        unit[self._rows, np.arange(k)] = 1.0
        with warnings.catch_warnings():
            # reported below, with the buses that cause it
            warnings.simplefilter("ignore", LinAlgWarning)
            lu = lu_factor(y)
        if not lu[0].diagonal().all():
            raise SystemModelError(
                "admittance matrix is singular: no path to ground from bus "
                + ", ".join(str(b) for b in self._floating_buses(y)))
        z_dev = lu_solve(lu, unit)
        k = self._converter
        if k is None:
            return GridModel(y=y, z_dev=z_dev)
        z_row = z_dev[self._rows[k]].tolist()
        z = z_row[k]
        z_row[k] = 0j
        return GridModel(y=y, z_dev=z_dev, z_conv=(z_row, z))

    def _floating_buses(self, y: np.ndarray) -> list[int]:
        """Ids of the buses whose connected component of ``y``'s branches
        carries no shunt (load, Norton, line charging or fault): the rows
        of such a component sum to zero up to rounding."""
        grounded = (np.abs(y.sum(axis=1))
                    > 1e-9 * np.abs(y).max(axis=1, initial=0.0))
        reach = np.eye(len(y), dtype=bool)      # i reaches j by branches
        for _ in range(len(y)):
            reach = reach | reach @ (y != 0)
        # fault buses are grounded, so every floating row is a network bus
        return sorted(self.network.buses[i].id
                      for i in np.flatnonzero(~(reach @ grounded)))

    # -- diagnostics ---------------------------------------------------------

    def observe(self, x: np.ndarray, grid: GridModel | None = None):
        """``(V, outputs)``: ``solve_network`` at the states ``x`` and the
        ``device_outputs`` at those voltages, with the bits of both, from
        one pass that hands each device's ``internal`` (a machine's E'') to
        its outputs, as it does to its rates."""
        v, inner = self._evaluate(x, grid, rates=False)
        return v, self._outputs(x, v, inner)

    def device_outputs(self, x: np.ndarray, v: np.ndarray) -> dict:
        """Trace quantities keyed ``"<device>.<quantity>"``, each device
        computing its ``internal`` itself.  ``x`` and ``v`` may carry a
        leading sample axis; the values then have it."""
        return self._outputs(x, v, [None] * len(self.devices))

    def _outputs(self, x, v, inner) -> dict:
        out = {}
        for dev, sl, row, e in zip(self.devices, self._slices, self._rows,
                                   inner):
            for key, val in dev.outputs(x[..., sl], v[..., row], e).items():
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
        one value per sample, each with the bits it has in any stack of
        two or more samples."""
        grid = grid if grid is not None else self._base_grid
        base = self.network.base_mva
        y_nf = grid.y.copy()
        p_dev = 0.0
        for dev, row in zip(self.devices, self._rows):
            y_nf[row, row] -= dev.norton_admittance(base)
            p_dev += (outputs[f"{dev.device_id}.active_power"]
                      * dev.params.base_mva / base)
        rows = v.reshape(-1, v.shape[-1])
        n = len(rows)
        if n == 1:
            # a single row takes numpy's vector-matrix (gemv) route, which
            # rounds unlike the matrix product (gemm) of a stack: make two
            rows = rows.repeat(2, axis=0)
        i_net = rows @ y_nf.T
        p_net = (rows.real * i_net.real + rows.imag * i_net.imag).sum(axis=-1)
        return np.abs(p_dev - p_net[:n].reshape(v.shape[:-1]))


def assemble(network: Network, devices: list[DeviceModel],
             pf: PowerFlowSolution) -> DynamicSystem:
    """Convenience constructor mirroring the pipeline order."""
    return DynamicSystem(network, devices, pf)
