"""Spans around the public functions of each windmodal layer.

The traced run replaces functions at the name their caller binds (for
example ``windmodal.scenario.linearize``, which ``run_scenario`` looks up,
or ``DynamicSystem.rhs``) with a wrapper that records a span.  Spans are
aggregated in memory by name: calls, inclusive time, self time (inclusive
time minus the time of child spans) and, for every enclosing span name,
how many calls happened inside it.  The harness opens a root span around
each benchmark operation.  Nothing inside the package changes.

A wrapped name that no longer exists is recorded in ``missing``; the
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

from windmodal import modal, powerflow, scenario, system, timedomain
from windmodal.dfig import Dfig
from windmodal.syncgen import SyncGen
from windmodal.system import DynamicSystem

# (span name, owner, attribute, result hook); the hook turns the wrapped
# call's return value into a count added to ``Tracer.results[span]``.
TARGETS = (
    ("scenario.run_scenario", scenario, "run_scenario", None),
    ("scenario.build", scenario, "build_scenario_system", None),
    ("powerflow.solve", scenario, "solve_power_flow",
     lambda pf: pf.iterations),
    ("network.build_ybus", powerflow, "build_ybus", None),
    ("network.build_ybus", system, "build_ybus", None),
    ("system.assemble", scenario, "assemble", None),
    ("modal.linearize", scenario, "linearize", None),
    ("modal.analyze_modes", scenario, "analyze_modes", None),
    ("modal.decompose", modal, "decompose", None),
    ("system.rhs", DynamicSystem, "rhs", None),
    ("system.solve_network", DynamicSystem, "solve_network", None),
    ("system.lu_solve", system, "lu_solve", None),
    ("syncgen.derivatives", SyncGen, "derivatives", None),
    ("dfig.derivatives", Dfig, "derivatives", None),
    ("dfig.source_current", Dfig, "source_current", None),
    ("timedomain.simulate", scenario, "simulate",
     lambda trace: trace.time.size - 1),
    ("timedomain.lu_factor", timedomain, "lu_factor", None),
    ("timedomain.ringdown_fit", timedomain, "ringdown_fit", None),
    ("scenario.report_to_text", scenario, "report_to_text", None),
    ("scenario.report_to_csv", scenario, "report_to_csv", None),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.inside: dict[tuple[str, str], int] = defaultdict(int)
        self.results: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []          # "<owner>.<attribute>"
        self.missing_spans: set[str] = set()
        self._stack: list[list] = []          # [name, child time]
        self._patched: list[tuple] = []

    def wrap(self, name, fn, hook=None, root=False):
        """``fn`` recording a span.  Only a ``root`` span opens a trace;
        other spans are recorded only inside one, so the benchmark's own
        output checks stay out of the counts."""
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            for outer in {frame[0] for frame in stack}:
                self.inside[outer, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                self.results[name] += hook(out)
            return out
        return span

    def install(self):
        for name, owner, attr, hook in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                self.missing_spans.add(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-call timings: metric -> (span, scale to the metric's unit, unit).
# Each also yields a "<metric stem>_self_<unit>" self-time companion.
TIMINGS = {
    "scenario.run_scenario_ms": ("scenario.run_scenario", 1e3, "ms"),
    "scenario.build_ms": ("scenario.build", 1e3, "ms"),
    "powerflow.solve_ms": ("powerflow.solve", 1e3, "ms"),
    "network.build_ybus_ms": ("network.build_ybus", 1e3, "ms"),
    "system.assemble_ms": ("system.assemble", 1e3, "ms"),
    "modal.linearize_ms": ("modal.linearize", 1e3, "ms"),
    "modal.analyze_modes_ms": ("modal.analyze_modes", 1e3, "ms"),
    "modal.decompose_ms": ("modal.decompose", 1e3, "ms"),
    "system.rhs_us": ("system.rhs", 1e6, "us"),
    "system.solve_network_us": ("system.solve_network", 1e6, "us"),
    "syncgen.derivatives_us": ("syncgen.derivatives", 1e6, "us"),
    "dfig.derivatives_us": ("dfig.derivatives", 1e6, "us"),
    "timedomain.simulate_s": ("timedomain.simulate", 1.0, "s"),
    "timedomain.ringdown_fit_ms": ("timedomain.ringdown_fit", 1e3, "ms"),
}

# Calls per benchmark operation: metric -> span.
CALLS_PER_OP = {
    "modal.linearize_calls": "modal.linearize",
    "system.rhs_calls": "system.rhs",
    "system.solve_network_calls": "system.solve_network",
    "syncgen.derivatives_calls": "syncgen.derivatives",
    "dfig.source_current_calls": "dfig.source_current",
    "timedomain.lu_factor_calls": "timedomain.lu_factor",
}

# Deterministic counters: identical in every traced run at one seed.
COUNTERS = (*CALLS_PER_OP, "powerflow.newton_iters", "modal.rhs_per_linearize",
            "system.lu_solves_per_network_solve", "timedomain.steps",
            "timedomain.rhs_per_step", "timedomain.network_solves_per_step")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced replay of ``n_ops`` operations.

    Returns metric -> (value, unit), leaving out every metric that needs a
    span whose wrapped name is missing.
    """
    c, total, inside, res = (tracer.calls, tracer.total, tracer.inside,
                             tracer.results)
    steps = res["timedomain.simulate"]
    derived = {
        # metric: (value, unit, spans it needs)
        "powerflow.newton_iters": (
            _ratio(res["powerflow.solve"], c["powerflow.solve"]), "count",
            ("powerflow.solve",)),
        "modal.rhs_per_linearize": (
            _ratio(inside["modal.linearize", "system.rhs"],
                   c["modal.linearize"]), "count",
            ("modal.linearize", "system.rhs")),
        "system.lu_solves_per_network_solve": (
            _ratio(inside["system.solve_network", "system.lu_solve"],
                   c["system.solve_network"]), "count",
            ("system.solve_network", "system.lu_solve")),
        "timedomain.steps": (
            _ratio(steps, n_ops), "count", ("timedomain.simulate",)),
        "timedomain.rhs_per_step": (
            _ratio(inside["timedomain.simulate", "system.rhs"], steps),
            "count", ("timedomain.simulate", "system.rhs")),
        "timedomain.network_solves_per_step": (
            _ratio(inside["timedomain.simulate", "system.solve_network"],
                   steps), "count",
            ("timedomain.simulate", "system.solve_network")),
        "scenario.export_us": (
            1e6 * _ratio(total["scenario.report_to_text"]
                         + total["scenario.report_to_csv"],
                         c["scenario.report_to_text"]), "us",
            ("scenario.report_to_text", "scenario.report_to_csv")),
    }
    for metric, span in CALLS_PER_OP.items():
        derived[metric] = (_ratio(c[span], n_ops), "count", (span,))
    for metric, (span, scale, unit) in TIMINGS.items():
        derived[metric] = (scale * _ratio(total[span], c[span]), unit, (span,))
        stem = metric[:-len(unit) - 1]
        derived[f"{stem}_self_{unit}"] = (
            scale * _ratio(tracer.self_time[span], c[span]), unit, (span,))

    return {m: (v, u) for m, (v, u, spans) in derived.items()
            if not tracer.missing_spans.intersection(spans)}


def import_profile(stderr: str) -> dict[str, float]:
    """Import times, in ms, from one ``python -X importtime`` log.

    ``cli.import_ms`` is the cumulative time of the top-level ``windmodal``
    imports; ``timedomain.import_ms`` the cumulative time of the
    ``scipy.signal`` and ``scipy.optimize`` imports inside them.
    """
    cli = solvers = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_us = int(parts[1])
        module = parts[2].rstrip()
        name = module.strip()
        if name.split(".")[0] == "windmodal" and module == " " + name:
            cli += cumulative_us / 1e3
        if name in ("scipy.signal", "scipy.optimize"):
            solvers += cumulative_us / 1e3
    return {"cli.import_ms": cli, "timedomain.import_ms": solvers}


def median_profile(profiles: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}
