"""Grid frequency-support studies: power flow, modal analysis, simulation.

The package models how a doubly-fed induction generator wind farm with
droop-based inertial and primary frequency support reshapes the
electromechanical modes of a two-area benchmark system.  It provides a
Newton power flow, nonlinear machine and converter models, a closed-form
single-machine sensitivity study, numerical linearization with mode
classification, an error-controlled Dormand-Prince time-domain solver
with matrix-pencil ringdown analysis, and a scenario layer with JSON
inputs plus CSV / structured-text exports.
"""

__version__ = "0.1.0"

from .network import Branch, Bus, Network, NetworkError, build_ybus
from .powerflow import PowerFlowError, PowerFlowSolution, solve_power_flow
from .devices import DeviceError, DeviceModel
from .syncgen import SyncGen, SyncGenParams
from .dfig import Dfig, DfigParams, DroopParams
from .system import DynamicSystem, GridModel, SystemModelError, assemble
from .twoarea import CASES, two_area_network
from .smib import (SmibGridPoint, SmibParams, smib_eigenvalues,
                   smib_sensitivity_grid, smib_system_matrix, write_grid_csv)
from .modal import (ModalDecomposition, ModalError, Mode, StateLabel,
                    StateMatrix, analyze_modes, ccbg_pi, classify_mode,
                    damping_ratio, decompose, dominant_modes, linearize,
                    participation_factors)
from .timedomain import (Event, RingdownError, RingdownFit, SimulationError,
                         Trace, cycles, ringdown_fit, ringdown_modes,
                         simulate)
from .scenario import (ModeSummary, Override, PipelineError,
                       PowerFlowSummary, Report, Scenario, ScenarioError,
                       SweepCell, SweepResult, build_scenario_system,
                       export_report, load_packaged_scenario, load_scenario,
                       packaged_scenario_names, parse_report, parse_scenario,
                       parse_sweep, report_to_csv, report_to_text,
                       resolve_scenario, run_scenario, run_sensitivity_sweep,
                       simulate_scenario, sweep_to_csv, sweep_to_text)

__all__ = [
    "__version__",
    # network / power flow
    "Branch", "Bus", "Network", "NetworkError", "build_ybus",
    "PowerFlowError", "PowerFlowSolution", "solve_power_flow",
    # devices
    "DeviceError", "DeviceModel",
    "SyncGen", "SyncGenParams", "Dfig", "DfigParams", "DroopParams",
    # system assembly
    "DynamicSystem", "GridModel", "SystemModelError", "assemble",
    "CASES", "two_area_network",
    # single-machine closed form
    "SmibGridPoint", "SmibParams", "smib_eigenvalues",
    "smib_sensitivity_grid", "smib_system_matrix", "write_grid_csv",
    # modal analysis
    "ModalDecomposition", "ModalError", "Mode", "StateLabel", "StateMatrix",
    "analyze_modes", "ccbg_pi", "classify_mode", "damping_ratio",
    "decompose", "dominant_modes", "linearize", "participation_factors",
    # time domain
    "Event", "RingdownError", "RingdownFit", "SimulationError", "Trace",
    "cycles", "ringdown_fit", "ringdown_modes", "simulate",
    # scenarios
    "ModeSummary", "Override", "PipelineError", "PowerFlowSummary", "Report",
    "Scenario", "ScenarioError", "SweepCell", "SweepResult",
    "build_scenario_system", "export_report", "load_packaged_scenario",
    "load_scenario", "packaged_scenario_names",
    "parse_report", "parse_scenario", "parse_sweep", "report_to_csv",
    "report_to_text", "resolve_scenario", "run_scenario",
    "run_sensitivity_sweep", "simulate_scenario", "sweep_to_csv",
    "sweep_to_text",
]
