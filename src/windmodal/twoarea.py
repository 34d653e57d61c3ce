"""Two-area, four-machine benchmark with an optional DFIG wind farm.

Classic symmetric test system: two generation areas joined by a long
double-circuit tie through a load corridor.  The machine and farm buses
(1-4, 12) are 20 kV and the transmission network (5-11) is 230 kV; the model
is per unit throughout, so no bus carries its level.  All impedances are
expressed on the 100 MVA system base; machine data stay on the 900 MVA unit
base and the devices convert internally.  Loads are scaled so the system
serves 2300 MW, dispatched 585 MW per regulated machine with the remaining
slack picked up in area 2.

Three cases:

``A``  the plain four-machine system,
``B``  a 300 MVA wind farm added on its own bus behind a step-up
       transformer at the area-2 machine bus,
``C``  the area-2 swing-adjacent unit retired and replaced by a 600 MVA
       farm at the same location.

The farm exports 80 % of its MVA rating as active power in both cases, so
case C doubles the wind injection while removing one synchronous machine.
In case B the co-located machine backs down by the wind export, keeping
area generation totals the same across cases.
"""

from __future__ import annotations

from .devices import DeviceModel
from .dfig import Dfig, DfigParams, DroopParams, check_control_mode
from .network import Branch, Bus, Network
from .syncgen import SyncGen, SyncGenParams

SYSTEM_BASE_MVA = 100.0
MACHINE_BASE_MVA = 900.0
LOAD_SCALE = 2300.0 / 2734.0          # serve 2300 MW total
DISPATCH_MW = 585.0
WIND_FRACTION = 0.8                   # farm MW export / farm MVA rating

# transmission line constants, per km on the 100 MVA / 230 kV base
LINE_R = 0.0001
LINE_X = 0.001
LINE_B = 0.00175

CASES = ("A", "B", "C")
DEFAULT_WIND_MVA = {"B": 300.0, "C": 600.0}   # farm rating per wind case


def _line(name: str, f: int, t: int, km: float) -> Branch:
    return Branch(from_bus=f, to_bus=t, r=LINE_R * km, x=LINE_X * km,
                  b_shunt=LINE_B * km, name=name)


def _step_up(name: str, f: int, t: int, mva: float, x_pu: float) -> Branch:
    return Branch(from_bus=f, to_bus=t, x=x_pu * SYSTEM_BASE_MVA / mva,
                  name=name)


def machine_params(area: int, k_pss: float) -> SyncGenParams:
    """Round-rotor 900 MVA unit; area 2 carries slightly less inertia.

    Mechanical power follows its dispatch (``SyncGen`` has no governor), the
    standard setup for small-signal studies on this system.  The stabilizer's
    second stage rolls off below ~3 rad/s so the tie-line mode stays poorly
    damped at the study's stabilizer gain, which is the condition the
    frequency-support comparisons start from.
    """
    return SyncGenParams(
        base_mva=MACHINE_BASE_MVA,
        h_s=6.5 if area == 1 else 6.175,
        k_pss=k_pss,
        t3=0.3,
    )


def _farm_mva(case: str, wind_mva: float | None) -> float | None:
    return DEFAULT_WIND_MVA.get(case) if wind_mva is None else wind_mva


def two_area_network(case: str = "A", wind_mva: float | None = None,
                     control_mode: str = DfigParams.control_mode) -> Network:
    """Buses and branches of one benchmark case.

    Owns the case check, the farm rating default (``DEFAULT_WIND_MVA``) and
    the farm bus kind: PV when the farm regulates its voltage
    (``control_mode="voltage"``), PQ when it holds its reactive power; any
    other ``control_mode`` is rejected, in every case.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    check_control_mode(control_mode)

    p7 = 967.0 * LOAD_SCALE / SYSTEM_BASE_MVA
    q7 = (100.0 - 200.0) * LOAD_SCALE / SYSTEM_BASE_MVA
    p9 = 1767.0 * LOAD_SCALE / SYSTEM_BASE_MVA
    q9 = (100.0 - 350.0) * LOAD_SCALE / SYSTEM_BASE_MVA
    disp = DISPATCH_MW / SYSTEM_BASE_MVA

    wind_mva = _farm_mva(case, wind_mva)
    wind_p = 0.0 if case == "A" else WIND_FRACTION * wind_mva / SYSTEM_BASE_MVA

    # The farm displaces output from the unit it sits next to: in case B that
    # unit backs down by the wind export, in case C it is retired outright.
    disp4 = 0.0 if case == "C" else disp - wind_p

    buses = [
        Bus(id=1, kind="pv", voltage_mag=1.03, p_gen=disp),
        Bus(id=2, kind="pv", voltage_mag=1.01, p_gen=disp),
        Bus(id=3, kind="slack", voltage_mag=1.03),
        Bus(id=4, kind="pv" if case != "C" else "pq", voltage_mag=1.01,
            p_gen=disp4),
        Bus(id=5),
        Bus(id=6),
        Bus(id=7, p_load=p7, q_load=q7),
        Bus(id=8),
        Bus(id=9, p_load=p9, q_load=q9),
        Bus(id=10),
        Bus(id=11),
    ]
    trafo_x = 0.15
    branches = [
        _step_up("T1", 1, 5, MACHINE_BASE_MVA, trafo_x),
        _step_up("T2", 2, 6, MACHINE_BASE_MVA, trafo_x),
        _step_up("T3", 3, 11, MACHINE_BASE_MVA, trafo_x),
        _step_up("T4", 4, 10, MACHINE_BASE_MVA, trafo_x),
        _line("L5-6", 5, 6, 25.0),
        _line("L6-7", 6, 7, 10.0),
        _line("L7-8a", 7, 8, 110.0),
        _line("L7-8b", 7, 8, 110.0),
        _line("L8-9a", 8, 9, 110.0),
        _line("L8-9b", 8, 9, 110.0),
        _line("L9-10", 9, 10, 10.0),
        _line("L10-11", 10, 11, 25.0),
    ]

    if case != "A":
        farm_kind = "pv" if control_mode == "voltage" else "pq"
        buses.append(Bus(id=12, kind=farm_kind, voltage_mag=1.01,
                         p_gen=wind_p))
        branches.append(_step_up("TW", 12, 4, wind_mva, 0.10))

    return Network(buses=buses, branches=branches,
                   base_mva=SYSTEM_BASE_MVA, frequency_hz=60.0)


def build_two_area(case: str = "A", droop: DroopParams | None = None,
                   wind_mva: float | None = None,
                   control_mode: str = DfigParams.control_mode,
                   k_pss: float = SyncGenParams.k_pss):
    """Network and device list for one benchmark case, ready to solve.

    Owns which machines each case keeps (case C retires G4).  Its defaults
    are their owners': ``SyncGenParams.k_pss``, ``DfigParams.control_mode``
    and a disabled ``DroopParams()``.  The network, the farm rating and the
    farm bus kind come from ``two_area_network``.
    """
    net = two_area_network(case, wind_mva=wind_mva, control_mode=control_mode)
    devices: list[DeviceModel] = [
        SyncGen("G1", 1, machine_params(1, k_pss)),
        SyncGen("G2", 2, machine_params(1, k_pss)),
        SyncGen("G3", 3, machine_params(2, k_pss)),
    ]
    if case != "C":
        devices.append(SyncGen("G4", 4, machine_params(2, k_pss)))
    if case != "A":
        params = DfigParams(base_mva=_farm_mva(case, wind_mva),
                            control_mode=control_mode,
                            droop=droop or DroopParams())
        devices.append(Dfig("W1", 12, params))
    return net, devices
