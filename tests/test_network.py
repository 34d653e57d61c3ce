"""Network model and admittance assembly tests.

The 3-bus admittance oracle below was stamped by hand from the pi model:
line 1-2 (r=0.01, x=0.1, b=0.2) and transformer 2-3 (x=0.25, nominal
ratio), giving

    Y11 = y12 + jb/2            Y12 = -y12
    Y22 = y12 + jb/2 + y23      Y23 = -y23
    Y33 = y23
"""

import numpy as np
import pytest

from windmodal.network import Branch, Bus, Network, NetworkError, build_ybus


def three_bus():
    return Network(
        buses=[
            Bus(id=1, kind="slack", voltage_mag=1.02),
            Bus(id=2, p_load=0.8, q_load=0.3),
            Bus(id=3, kind="pv", voltage_mag=1.0, p_gen=0.5),
        ],
        branches=[
            Branch(from_bus=1, to_bus=2, r=0.01, x=0.1, b_shunt=0.2),
            Branch(from_bus=2, to_bus=3, x=0.25, name="T23"),
        ],
    )


def test_ybus_matches_hand_stamped_values():
    y = build_ybus(three_bus())
    expect = np.array([
        [0.99009900990099 - 9.800990099009901j,
         -0.99009900990099 + 9.900990099009901j, 0.0],
        [-0.99009900990099 + 9.900990099009901j,
         0.99009900990099 - 13.800990099009901j, 4.0j],
        [0.0, 4.0j, -4.0j],
    ])
    assert np.max(np.abs(y - expect)) < 1e-12


def test_ybus_is_symmetric_for_unit_taps():
    # every branch is at nominal ratio
    y = build_ybus(three_bus())
    assert np.max(np.abs(y - y.T)) == 0.0


def test_bus_and_branch_lookup():
    net = three_bus()
    assert net.index() == {1: 0, 2: 1, 3: 2}
    assert net.branch("T23").x == 0.25
    assert net.branch("1-2").x == 0.1  # default label is "from-to"
    with pytest.raises(NetworkError, match="no branch"):
        net.branch("T99")


@pytest.mark.parametrize("kwargs, match", [
    (dict(id=1, kind="generator"), "unknown kind"),
    (dict(id=1, voltage_mag=0.0), "must be positive"),
])
def test_bus_validation(kwargs, match):
    with pytest.raises(NetworkError, match=match):
        Bus(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    (dict(from_bus=1, to_bus=1, x=0.1), "coincide"),
    (dict(from_bus=1, to_bus=2, x=0.0), "zero series impedance"),
])
def test_branch_validation(kwargs, match):
    with pytest.raises(NetworkError, match=match):
        Branch(**kwargs)


@pytest.mark.parametrize("cls, kwargs", [
    (Bus, dict(id=1, voltage_angle=0.1)),
    (Bus, dict(id=1, q_gen=0.2)),
    (Branch, dict(from_bus=1, to_bus=2, x=0.1, tap=0.98)),
    (Branch, dict(from_bus=1, to_bus=2, x=0.1, in_service=False)),
])
def test_no_study_sets_a_tap_an_outage_a_slack_angle_or_a_scheduled_q(
        cls, kwargs):
    # the slack sits at angle 0 and a bus schedules Q as -q_load; every
    # branch is at nominal ratio and leaves the grid only by a line_trip
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**kwargs)


def test_network_validation_errors():
    b = [Bus(id=1, kind="slack"), Bus(id=2)]
    line = [Branch(from_bus=1, to_bus=2, x=0.1)]

    with pytest.raises(NetworkError, match="duplicate bus ids"):
        Network(buses=b + [Bus(id=2)], branches=line)
    with pytest.raises(NetworkError, match="exactly one slack"):
        Network(buses=[Bus(id=1), Bus(id=2)], branches=line)
    with pytest.raises(NetworkError, match="exactly one slack"):
        Network(buses=[Bus(id=1, kind="slack"), Bus(id=2, kind="slack")],
                branches=line)
    with pytest.raises(NetworkError, match="unknown bus"):
        Network(buses=b, branches=[Branch(from_bus=1, to_bus=9, x=0.1)])
    with pytest.raises(NetworkError, match="not connected"):
        Network(buses=b + [Bus(id=3)], branches=line)
    with pytest.raises(NetworkError, match="distinct names"):
        Network(buses=b, branches=line + [Branch(from_bus=1, to_bus=2, x=0.2)])


def test_parallel_branches_allowed_with_names():
    net = Network(
        buses=[Bus(id=1, kind="slack"), Bus(id=2)],
        branches=[Branch(from_bus=1, to_bus=2, x=0.1, name="a"),
                  Branch(from_bus=1, to_bus=2, x=0.1, name="b")],
    )
    y = build_ybus(net)
    # two identical parallel branches halve the effective reactance
    assert abs(y[0, 1] - 2.0 * (-1.0 / 0.1j)) < 1e-12
