"""Shared fixtures: benchmark systems assembled once per test session."""

import pytest

from windmodal.dfig import DroopParams
from windmodal.powerflow import solve_power_flow
from windmodal.system import assemble
from windmodal.twoarea import build_two_area

PF_TOL = 1e-12

# one line per acceptance criterion, echoed after the run so the verdicts
# stay visible under output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_system(case="A", droop=None, control_mode="voltage"):
    """Network + devices + power flow, assembled into a DynamicSystem."""
    net, devices = build_two_area(case, droop=droop,
                                  control_mode=control_mode)
    pf = solve_power_flow(net, tol=PF_TOL)
    return assemble(net, devices, pf)


def cell_matrix(a00, r, g_p, g_i, kp, kin):
    """A sweep cell's state matrix, formed as ``run_sensitivity_sweep``
    forms it from ``_affine_gain_model``: A00 with ``kp*g_p + kin*g_i``
    added to its row ``r``."""
    a = a00.copy()
    a[r] += kp * g_p + kin * g_i
    return a


@pytest.fixture(scope="session")
def system_a():
    return build_system("A")


@pytest.fixture(scope="session")
def system_b():
    return build_system("B")


@pytest.fixture(scope="session")
def system_b_support():
    return build_system("B", droop=DroopParams(kp=20.0, kin=0.0, enabled=True))
