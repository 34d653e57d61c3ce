"""Declarative study definitions, the analysis pipeline, and report I/O.

A scenario file picks one benchmark case, the farm's reactive-control mode,
whether frequency support is active, optional parameter overrides, and a
disturbance script.  ``run_scenario`` drives power flow, assembly,
linearization and modal analysis, annotating any failure with the pipeline
stage that raised it.  ``run_sensitivity_sweep`` maps the dominant modes
over a droop-gain grid from one power flow and two linearizations, since
the gains move one row of the state matrix, linearly.  Reports and sweeps
export as CSV or as structured text that parses back into an equal object,
so archived results can be diffed and reloaded faithfully.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .devices import DeviceError, parameter_domains
from .dfig import (DEFAULT_GAIN_GRID, DfigParams, DroopParams,
                   check_control_mode)
from .modal import (Mode, analyze_modes, converter_mask, dominant_modes,
                    dominant_rows, linearize, mode_spectrum)
from .powerflow import solve_power_flow
from .system import assemble
from .timedomain import EVENT_FIELDS, Event, Trace, cycles, simulate
from .twoarea import CASES, build_two_area

DEFAULT_SUPPORT_KP = 20.0
DEFAULT_SUPPORT_KIN = 0.0
AFFINE_TOL = 1e-9       # the sweep's affinity guard (_affine_gain_model)
_DROOP_KEYS = tuple(parameter_domains(DroopParams))  # a file's droop block
# a file event's keys: the fields of Event, those without a default
# required, and duration_cycles, the file's alias of duration
_EVENT_KEYS = {f.name: f.default is dataclasses.MISSING
               for f in dataclasses.fields(Event)} | {"duration_cycles": False}
# each field that Event defaults to a value, not None, and the kind taking it
_DEFAULTED_FIELDS = {name: kind for kind, (_, takes) in EVENT_FIELDS.items()
                     for name in takes if getattr(Event, name) is not None}

_MODE_CLASSES = ("inter_area", "local", "converter_control", "other")


class ScenarioError(ValueError):
    """A scenario file or object violates the schema."""


class PipelineError(RuntimeError):
    """A stage failed; ``stage`` names it, ``trace`` holds a partial run."""

    def __init__(self, stage: str, message: str, trace: Trace | None = None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.trace = trace


@dataclass(frozen=True)
class Override:
    """One parameter patch: set ``field`` of device ``device`` to ``value``."""

    device: str
    field: str
    value: float


@dataclass(frozen=True)
class Scenario:
    """Fully resolved study definition.

    ``droop.enabled`` always mirrors ``frequency_support``, and the gains
    keep their defaults without support; case A carries no wind farm so the
    support fields and ``control_mode`` must stay at their defaults there.
    ``to_dict`` (and so ``sha256``) omits only such fields.  The case fixes
    each device's parameters; ``overrides`` change a number parameter of
    one device other than its rating ``base_mva``, the stabilizer gain
    ``k_pss`` of a machine among them.
    """

    base_case: str
    name: str = ""
    description: str = ""
    control_mode: str = DfigParams.control_mode
    frequency_support: bool = False
    droop: DroopParams = field(default_factory=DroopParams)
    overrides: tuple[Override, ...] = ()
    events: tuple[Event, ...] = ()
    sha256: str = ""

    def __post_init__(self):
        if {"/", "\\", "\0"} & set(self.name):
            raise ScenarioError(f"name: {self.name!r} has '/', '\\' or NUL")
        if self.base_case not in CASES:
            raise ScenarioError(f"base_case: expected one of {CASES}, "
                                f"got {self.base_case!r}")
        try:
            check_control_mode(self.control_mode)
        except DeviceError as exc:
            raise ScenarioError(f"control_mode: {exc}") from exc
        if self.base_case == "A":
            if self.frequency_support or self.droop.enabled:
                raise ScenarioError(
                    "frequency_support: case A has no wind farm to provide "
                    "support")
            if self.control_mode != DfigParams.control_mode:
                raise ScenarioError("control_mode: case A has no wind farm")
        if self.droop.enabled != self.frequency_support:
            raise ScenarioError(
                "droop.enabled must match frequency_support "
                f"({self.droop.enabled} vs {self.frequency_support})")
        if not self.frequency_support and self.droop != DroopParams():
            raise ScenarioError("droop: droop gains apply only when "
                                "frequency_support is true")
        if not self.sha256:
            object.__setattr__(self, "sha256", _canonical_hash(self))

    def to_dict(self) -> dict:
        """JSON-ready form mirroring the file schema; the hash is taken of
        it, so every number the schema types as a float is written as one
        (``5 == 5.0``) and a zero unsigned (``-0.0 == 0.0``)."""
        out: dict = {"base_case": self.base_case}
        if self.name:
            out["name"] = self.name
        if self.description:
            out["description"] = self.description
        if self.base_case != "A":
            out["control_mode"] = self.control_mode
            out["frequency_support"] = self.frequency_support
            if self.frequency_support:
                out["droop"] = {k: float(getattr(self.droop, k))
                                for k in _DROOP_KEYS}
        if self.overrides:
            out["overrides"] = [dict(dataclasses.asdict(o),
                                     value=float(o.value))
                                for o in self.overrides]
        if self.events:
            out["events"] = [_event_to_dict(e) for e in self.events]
        return _unsigned_zeros(out)


def _unsigned_zeros(obj):
    """``obj`` (dicts, lists and scalars) with each float zero as 0.0."""
    if isinstance(obj, dict):
        return {k: _unsigned_zeros(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unsigned_zeros(v) for v in obj]
    return 0.0 if isinstance(obj, float) and obj == 0.0 else obj


def _canonical_hash(scenario: Scenario) -> str:
    text = json.dumps(scenario.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _event_to_dict(ev: Event) -> dict:
    where, takes = EVENT_FIELDS[ev.kind]
    out: dict = {"kind": ev.kind, "t_start": float(ev.t_start)}
    for name in where:
        value = getattr(ev, name)
        if value is not None:
            out[name] = value
    for name in takes:
        value = getattr(ev, name)
        if value is not None:
            out[name] = float(value)
    return out


# --------------------------------------------------------------------------
# strict file schema


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: dict, path: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ScenarioError(f"{where}: unknown key")
    for key, required in allowed.items():
        if required and key not in obj:
            where = f"{path}.{key}" if path else key
            raise ScenarioError(f"{where}: missing required key")


def _number(obj: dict, key: str, path: str) -> float | None:
    if key not in obj:
        return None
    val = obj[key]
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{path}{key}", "must be a number")
    try:
        return float(val)
    except OverflowError:
        raise ScenarioError(f"{path}{key}: too large for a float") from None


def _parse_event(obj: dict, path: str) -> Event:
    _require(isinstance(obj, dict), path, "must be an object")
    _check_keys(obj, _EVENT_KEYS, path)
    _require(isinstance(obj["kind"], str), f"{path}.kind", "must be a string")
    if "duration" in obj and "duration_cycles" in obj:
        raise ScenarioError(f"{path}.duration_cycles: give either duration "
                            "or duration_cycles, not both")
    # Event cannot tell these fields given at their defaults from left out;
    # it rejects every other field that the kind does not take
    for key, kind in _DEFAULTED_FIELDS.items():
        _require(key not in obj or obj["kind"] == kind, f"{path}.{key}",
                 f"applies only to a {kind} event")
    # an explicit null is a wrong type here, not an absent key
    for key, message in (("bus", "must be an integer bus id"),
                         ("branch", "must be a branch name")):
        _require(key not in obj or obj[key] is not None, f"{path}.{key}",
                 message)
    numbers = {key: _number(obj, key, f"{path}.") for key in obj
               if key not in ("kind", "bus", "branch")}
    n_cycles = numbers.pop("duration_cycles", None)
    if n_cycles is not None:
        numbers["duration"] = cycles(n_cycles)
    try:
        return Event(obj["kind"], bus=obj.get("bus"),
                     branch=obj.get("branch"), **numbers)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(obj: dict, name_hint: str = "",
                   sha256: str = "") -> Scenario:
    """Validate a scenario mapping and resolve defaults.

    Unknown keys are rejected with their full path.  Case A admits no
    farm-related keys at all.
    """
    _require(isinstance(obj, dict), "scenario", "must be a JSON object")
    _check_keys(obj, {"base_case": True, "name": False, "description": False,
                      "control_mode": False, "frequency_support": False,
                      "droop": False, "overrides": False, "events": False},
                "")
    base_case = obj["base_case"]
    if base_case == "A":
        for key in ("control_mode", "frequency_support", "droop"):
            _require(key not in obj, key,
                     "case A has no wind farm; this key does not apply")

    support = obj.get("frequency_support", False)
    _require(isinstance(support, bool), "frequency_support",
             "must be true or false")
    droop_obj = obj.get("droop", {})
    _require(isinstance(droop_obj, dict), "droop", "must be an object")
    if "droop" in obj:
        _require(support, "droop",
                 "droop gains apply only when frequency_support is true")
        _check_keys(droop_obj, dict.fromkeys(_DROOP_KEYS, False), "droop")
    if support:
        # the file's keys over the gain defaults; DroopParams owns the rest
        gains = {"kp": DEFAULT_SUPPORT_KP, "kin": DEFAULT_SUPPORT_KIN}
        for key in _DROOP_KEYS:
            if key in droop_obj:
                gains[key] = _number(droop_obj, key, "droop.")
        try:
            droop = DroopParams(**gains, enabled=True)
        except Exception as exc:
            raise ScenarioError(f"droop: {exc}") from exc
    else:
        droop = DroopParams()

    for key in ("overrides", "events"):
        _require(isinstance(obj.get(key, []), list), key, "must be a list")
    overrides = []
    for i, entry in enumerate(obj.get("overrides", [])):
        path = f"overrides[{i}]"
        _require(isinstance(entry, dict), path, "must be an object")
        _check_keys(entry, {"device": True, "field": True, "value": True},
                    path)
        _require(isinstance(entry["device"], str), f"{path}.device",
                 "must be a device id")
        _require(isinstance(entry["field"], str), f"{path}.field",
                 "must be a parameter name")
        overrides.append(Override(device=entry["device"],
                                  field=entry["field"],
                                  value=_number(entry, "value", f"{path}.")))

    events = tuple(_parse_event(e, f"events[{i}]")
                   for i, e in enumerate(obj.get("events", [])))

    name = obj.get("name", name_hint)
    _require(isinstance(name, str), "name", "must be a string")
    description = obj.get("description", "")
    _require(isinstance(description, str), "description", "must be a string")

    return Scenario(base_case=base_case, name=name, description=description,
                    control_mode=obj.get("control_mode",
                                         DfigParams.control_mode),
                    frequency_support=support, droop=droop,
                    overrides=tuple(overrides), events=events,
                    sha256=sha256)


def _parse_bytes(raw: bytes, name: str, where) -> Scenario:
    """Parse a scenario file's bytes; ``where`` labels a JSON error."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{where}: not valid JSON ({exc})") from exc
    return parse_scenario(obj, name_hint=name,
                          sha256=hashlib.sha256(raw).hexdigest())


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") \
            from exc
    return _parse_bytes(raw, path.stem, path)


def packaged_scenario_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_packaged_scenario(name: str) -> Scenario:
    """One of the canned studies by name (see packaged_scenario_names)."""
    root = resources.files(__package__) / "scenarios"
    entry = root / f"{name}.json"
    if not entry.is_file():
        raise ScenarioError(
            f"no packaged scenario {name!r}; available: "
            f"{', '.join(packaged_scenario_names())}")
    return _parse_bytes(entry.read_bytes(), name, entry)


def resolve_scenario(ref: str) -> Scenario:
    """A scenario from a file path or a packaged name."""
    if Path(ref).is_file():
        return load_scenario(ref)
    return load_packaged_scenario(ref)


# --------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class PowerFlowSummary:
    iterations: int
    max_mismatch: float
    slack_bus: int
    slack_p_mw: float
    total_load_mw: float
    n_bus: int


@dataclass(frozen=True)
class Report:
    """Modal table for one scenario plus the operating-point summary.

    ``modes`` are the rows ``analyze_modes`` returns, and each ``dominant``
    row is one of them.
    """

    scenario_name: str
    base_case: str
    dominant: tuple[Mode, ...]   # one per class, sorted by class name
    modes: tuple[Mode, ...]      # least-damped first
    power_flow: PowerFlowSummary
    n_states: int
    scenario_sha256: str
    version: str


@dataclass(frozen=True)
class SweepCell:
    """One grid point: the rows ``dominant_modes`` picks from
    ``analyze_modes`` of its state matrix, one per class, or the error that
    stopped it.  The sweep builds only these rows (``dominant_rows``)."""

    kp: float
    kin: float
    dominant: tuple[Mode, ...]
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    scenario_name: str
    kp_values: tuple[float, ...]
    kin_values: tuple[float, ...]
    cells: tuple[SweepCell, ...]        # K_in outer, K_p fastest
    scenario_sha256: str
    version: str


def _dominant_rows(modes: list[Mode]) -> tuple[Mode, ...]:
    return tuple(dominant_modes(modes).values())


def build_scenario_system(scenario: Scenario):
    """Network and devices for a scenario, overrides applied."""
    net, devices = build_two_area(scenario.base_case, droop=scenario.droop,
                                  control_mode=scenario.control_mode)
    for ov in scenario.overrides:
        hits = [i for i, d in enumerate(devices) if d.device_id == ov.device]
        if not hits:
            known = ", ".join(d.device_id for d in devices)
            raise ScenarioError(f"override device {ov.device!r} not in "
                                f"scenario (devices: {known})")
        i = hits[0]
        dev = devices[i]
        if ov.field not in {f.name for f in dataclasses.fields(dev.params)}:
            raise ScenarioError(f"override field {ov.field!r} is not a "
                                f"parameter of {ov.device}")
        if ov.field not in parameter_domains(type(dev.params)):
            raise ScenarioError(f"override field {ov.field!r} of "
                                f"{ov.device} is not a number parameter")
        if ov.field == "base_mva":
            raise ScenarioError(f"override field 'base_mva' of {ov.device} "
                                "is fixed by the case")
        params = dataclasses.replace(dev.params, **{ov.field: ov.value})
        devices[i] = type(dev)(dev.device_id, dev.bus_id, params)
    return net, devices


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as e:      # a SimulationError's partial trace goes on
        raise PipelineError(stage, str(e), getattr(e, "trace", None)) from e


def _assembled(scenario: Scenario, pf=None):
    """``(net, pf, system)``: build, power flow (or ``pf``), assembly."""
    net, devices = _stage("build", build_scenario_system, scenario)
    pf = pf or _stage("powerflow", solve_power_flow, net)
    return net, pf, _stage("assemble", assemble, net, devices, pf)


def run_scenario(scenario: Scenario) -> Report:
    """Power flow, assembly, linearization and modal workup in one pass."""
    net, pf, system = _assembled(scenario)
    a = _stage("linearize", linearize, system)
    modes = _stage("modal", analyze_modes, a)

    slack = next(b.id for b in net.buses if b.kind == "slack")
    pos = pf.bus_ids.index(slack)
    pf_summary = PowerFlowSummary(
        iterations=pf.iterations,
        max_mismatch=float(pf.mismatch),
        slack_bus=slack,
        slack_p_mw=float(pf.p_gen[pos] * net.base_mva),
        total_load_mw=float(sum(pf.p_load) * net.base_mva),
        n_bus=net.n_bus,
    )
    return Report(
        scenario_name=scenario.name or scenario.base_case,
        base_case=scenario.base_case,
        dominant=_dominant_rows(modes),
        modes=tuple(modes),
        power_flow=pf_summary,
        n_states=system.n_states,
        scenario_sha256=scenario.sha256,
        version=__version__,
    )


def simulate_scenario(scenario: Scenario, t_end: float = 25.0,
                      dt_max: float = 1e-3) -> Trace:
    """Time-domain run of the scenario's event script."""
    _, _, system = _assembled(scenario)
    return _stage("simulate", simulate, system, events=list(scenario.events),
                  t_end=t_end, dt_max=dt_max)


def _with_gains(scenario: Scenario, kp: float, kin: float) -> Scenario:
    droop = dataclasses.replace(scenario.droop, kp=kp, kin=kin, enabled=True)
    return dataclasses.replace(scenario, frequency_support=True, droop=droop,
                               sha256="")


def _affine_gain_model(scenario: Scenario, kp_star: float, kin_star: float):
    """``A00, r, g_p, g_i, labels``: A(K_p, K_in) is A00 plus K_p*g_p +
    K_in*g_i in row ``r`` (``Dfig.gain_rows``).  One power flow serves two
    linearizations: A00 at zero gains, and the check point (K_p*/2,
    K_in*/2), where that matrix must match a direct one to AFFINE_TOL."""
    _, pf, system = _assembled(_with_gains(scenario, 0.0, 0.0))
    base = _stage("linearize", linearize, system)
    farm = next(d for d in system.devices if d.device_class == "converter")
    r, g_p, g_i = farm.gain_rows(base.a, converter_mask(base.labels).argmax())
    kp_c, kin_c = kp_star / 2.0, kin_star / 2.0
    check = _assembled(_with_gains(scenario, kp_c, kin_c), pf)[2]
    gap = _stage("linearize", linearize, check).a - base.a
    gap[r] -= kp_c * g_p + kin_c * g_i
    residual = np.max(np.abs(gap)) / max(1.0, np.max(np.abs(base.a)))
    if not residual <= AFFINE_TOL:       # a NaN residual fails too
        raise PipelineError(
            "linearize", f"state matrix is not affine in the droop gains: "
            f"relative residual {residual:.3e} at (kp={kp_c:g}, "
            f"kin={kin_c:g}) exceeds the tolerance {AFFINE_TOL:g}")
    return base.a, r, g_p, g_i, base.labels


def run_sensitivity_sweep(scenario: Scenario, kp_values=None,
                          kin_values=None) -> SweepResult:
    """Dominant modes over a droop-gain grid.

    The gains enter the model only through the farm's droop target, linearly,
    and leave the equilibrium unchanged, so a cell's state matrix is A00
    plus gain rows (``_affine_gain_model``; K* is the largest finite grid
    value of each gain, or 1 if that is 0): one power flow and two
    linearizations, then one eigensolve (``mode_spectrum``) per (K_in, K_p)
    cell, one at a time, and one array pass over all their eigenvalues
    (``dominant_rows``) picks each cell's dominant rows, the rows
    ``dominant_modes`` picks from ``analyze_modes`` of its matrix.  A
    failure in the shared work is recorded, with its stage tag, in every
    cell; a cell with invalid gains or a failed eigensolve records its own
    error, and the sweep continues.
    """
    if scenario.base_case == "A":
        raise PipelineError("build", "sweep needs a wind farm; case A has "
                            "none")
    kp_values = tuple(DEFAULT_GAIN_GRID if kp_values is None else kp_values)
    kin_values = tuple(DEFAULT_GAIN_GRID if kin_values is None else kin_values)

    def k_star(values):
        return max((0.0, *(k for k in values if math.isfinite(k)))) or 1.0

    shared_error = ""
    try:
        a00, r, g_p, g_i, labels = _affine_gain_model(
            scenario, k_star(kp_values), k_star(kin_values))
    except PipelineError as exc:
        shared_error = str(exc)
    else:
        converter = converter_mask(labels)

    grid, spectra = [], {}      # spectra: cell index -> mode_spectrum
    for kin in kin_values:
        for kp in kp_values:
            error = shared_error
            try:
                DroopParams(kp=kp, kin=kin)     # rejects invalid gains
                if not error:
                    a = a00.copy()
                    a[r] += kp * g_p + kin * g_i
                    spectra[len(grid)] = _stage("modal", mode_spectrum, a,
                                                converter)
            except Exception as exc:
                error = str(exc)
            grid.append((kp, kin, error))
    dominant = dict(zip(spectra, dominant_rows(list(spectra.values()))))
    cells = tuple(SweepCell(kp=kp, kin=kin, dominant=dominant.get(i, ()),
                            error=error)
                  for i, (kp, kin, error) in enumerate(grid))
    return SweepResult(
        scenario_name=scenario.name or scenario.base_case,
        kp_values=kp_values, kin_values=kin_values, cells=cells,
        scenario_sha256=scenario.sha256, version=__version__,
    )


# --------------------------------------------------------------------------
# export / parse


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.cache
def _record_keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, encoded key) of a dataclass, sorted by name."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot write {cls.__name__} as structured text")
    return tuple((name, encode_basestring_ascii(name) + ": ")
                 for name in sorted(f.name for f in dataclasses.fields(cls)))


def _write_record(obj, indent: str, out: list) -> None:
    keys = _record_keys(type(obj))
    if not keys:
        out.append("{}")
        return
    inner = indent + "  "
    sep = "{\n" + inner
    for name, key in keys:
        out.append(sep)
        out.append(key)
        _write_value(getattr(obj, name), inner, out)
        sep = ",\n" + inner
    out.append("\n" + indent + "}")


def _write_value(obj, indent: str, out: list) -> None:
    if isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is True:                   # bool before int: True is an int
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _write_value(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        _write_record(obj, indent, out)


def report_to_text(obj) -> str:
    """Structured-text form of a report or a sweep: JSON that parse_report
    or parse_sweep restores exactly.

    The text is, byte for byte, ``json.dumps`` of the record's fields with
    sorted keys and a 2-space indent, written in one walk over the fields
    with no intermediate dict.
    """
    out: list[str] = []
    _write_record(obj, "", out)
    out.append("\n")
    return "".join(out)


sweep_to_text = report_to_text


def parse_report(text: str) -> Report:
    obj = json.loads(text)
    return Report(
        scenario_name=obj["scenario_name"],
        base_case=obj["base_case"],
        dominant=tuple(Mode(**m) for m in obj["dominant"]),
        modes=tuple(Mode(**m) for m in obj["modes"]),
        power_flow=PowerFlowSummary(**obj["power_flow"]),
        n_states=obj["n_states"],
        scenario_sha256=obj["scenario_sha256"],
        version=obj["version"],
    )


def report_to_csv(report: Report) -> str:
    """Mode table as CSV.

    Columns: classification, re, im, damping, frequency_hz, ccbg_pi,
    dominant (1 when the row is its class's dominant mode).
    """
    dominant = set(report.dominant)
    lines = ["classification,re,im,damping,frequency_hz,ccbg_pi,dominant"]
    for m in report.modes:
        lines.append(
            f"{m.classification},{m.real!r},{m.imag!r},{m.damping!r},"
            f"{m.frequency_hz!r},{m.ccbg_pi!r},{int(m in dominant)}")
    return "\n".join(lines) + "\n"


def parse_sweep(text: str) -> SweepResult:
    obj = json.loads(text)
    cells = tuple(
        SweepCell(kp=c["kp"], kin=c["kin"],
                  dominant=tuple(Mode(**m) for m in c["dominant"]),
                  error=c["error"])
        for c in obj["cells"])
    return SweepResult(
        scenario_name=obj["scenario_name"],
        kp_values=tuple(obj["kp_values"]),
        kin_values=tuple(obj["kin_values"]),
        cells=cells,
        scenario_sha256=obj["scenario_sha256"],
        version=obj["version"],
    )


def sweep_to_csv(sweep: SweepResult) -> str:
    """One row per grid cell.

    Columns: kp, kin, then re/im/damping/frequency_hz/ccbg_pi for the
    dominant mode of each class (inter_area, local, converter_control,
    other; blank when the class is absent), then an error column.
    """
    header = ["kp", "kin"]
    for cls in _MODE_CLASSES:
        header += [f"{cls}_{q}" for q in
                   ("re", "im", "damping", "frequency_hz", "ccbg_pi")]
    header.append("error")
    lines = [",".join(header)]
    for cell in sweep.cells:
        by_class = {m.classification: m for m in cell.dominant}
        row = [repr(cell.kp), repr(cell.kin)]
        for cls in _MODE_CLASSES:
            m = by_class.get(cls)
            if m is None:
                row += [""] * 5
            else:
                row += [repr(m.real), repr(m.imag), repr(m.damping),
                        repr(m.frequency_hz), repr(m.ccbg_pi)]
        row.append(cell.error.replace(",", ";"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def export_report(obj, fmt: str, out_dir) -> Path:
    """Write a report or sweep to disk as ``report_<scenario>`` or
    ``sweep_<scenario>``; returns the path written.

    ``fmt`` is "csv" or "structured_text".  The file is the render's
    UTF-8 bytes with ``\\n`` line ends, whatever the locale and platform, so
    identical inputs produce identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, Report):
        stem = f"report_{obj.scenario_name}"
        renders = {"csv": report_to_csv, "structured_text": report_to_text}
    elif isinstance(obj, SweepResult):
        stem = f"sweep_{obj.scenario_name}"
        renders = {"csv": sweep_to_csv, "structured_text": sweep_to_text}
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    if fmt not in renders:
        raise ValueError(f"format must be csv or structured_text, got "
                         f"{fmt!r}")
    ext = {"csv": ".csv", "structured_text": ".json"}
    path = out_dir / f"{stem}{ext[fmt]}"
    path.write_bytes(renders[fmt](obj).encode("utf-8"))
    return path
