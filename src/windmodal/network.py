"""Bus/branch network model and admittance-matrix assembly.

Everything is per unit on the system MVA base.  Branches use the standard
pi model at nominal ratio, and every branch is in service: one leaves the
grid only through a ``line_trip`` event.  Loads live on the buses as
constant P/Q.  The admittance matrix holds the branches alone: dynamic
studies fold the loads in as constant impedances at the power-flow voltages
(``system.DynamicSystem``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BUS_KINDS = ("slack", "pv", "pq")


class NetworkError(ValueError):
    pass


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str = "pq"
    voltage_mag: float = 1.0   # setpoint for slack/pv, initial guess for pq
    p_load: float = 0.0        # pu on system base; negative q_load = shunt cap
    q_load: float = 0.0
    p_gen: float = 0.0         # scheduled P (pv/pq); the slack's is solved,
                               # and so is Q wherever a voltage is held

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise NetworkError(f"bus {self.id}: unknown kind {self.kind!r}")
        if self.voltage_mag <= 0.0:
            raise NetworkError(f"bus {self.id}: voltage magnitude must be positive")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    x: float
    r: float = 0.0
    b_shunt: float = 0.0  # total line charging
    name: str = ""

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise NetworkError(f"branch {self.label}: from and to bus coincide")
        if self.r == 0.0 and self.x == 0.0:
            raise NetworkError(f"branch {self.label}: zero series impedance")

    @property
    def label(self) -> str:
        return self.name or f"{self.from_bus}-{self.to_bus}"

    @property
    def y_series(self) -> complex:
        return 1.0 / complex(self.r, self.x)


@dataclass
class Network:
    buses: list[Bus]
    branches: list[Branch]
    base_mva: float = 100.0
    frequency_hz: float = 60.0

    def __post_init__(self):
        self.validate()

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def branch(self, name: str) -> Branch:
        for br in self.branches:
            if br.label == name:
                return br
        raise NetworkError(f"no branch named {name!r}")

    def validate(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate bus ids: {dupes}")
        slacks = [b.id for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise NetworkError(
                f"need exactly one slack bus, found {len(slacks)}: {slacks}"
            )
        id_set = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in id_set:
                    raise NetworkError(
                        f"branch {br.label} references unknown bus {end}"
                    )
        labels = [br.label for br in self.branches]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise NetworkError(
                f"parallel branches need distinct names; duplicates: {dupes}"
            )
        self._check_connected()

    def _check_connected(self):
        if not self.buses:
            raise NetworkError("network has no buses")
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        missing = sorted(set(adj) - seen)
        if missing:
            raise NetworkError(
                f"network is not connected; unreachable buses: {missing}"
            )


def build_ybus(network: Network) -> np.ndarray:
    """Bus admittance matrix of the branches, rows in bus order
    (``Network.index``).

    Off-diagonals carry -y_series; diagonals accumulate series terms and
    half line charging.  Loads are not in it: the power flow holds them as
    constant P/Q, and ``DynamicSystem`` adds them as constant impedances.
    """
    idx = network.index()
    n = network.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in network.branches:
        stamp_branch(y, idx[br.from_bus], idx[br.to_bus], br.y_series,
                     br.b_shunt)
    return y


def stamp_branch(y: np.ndarray, f: int, t: int, y_series: complex,
                 b_shunt: float, sign: float = 1.0) -> None:
    """Add (``sign=1``) or remove (``sign=-1``) one pi branch between rows
    ``f`` and ``t`` of ``y``: series admittance ``y_series`` and total line
    charging ``b_shunt``."""
    sh = 1j * b_shunt / 2.0
    y[f, f] += sign * (y_series + sh)
    y[t, t] += sign * (y_series + sh)
    y[f, t] -= sign * y_series
    y[t, f] -= sign * y_series
