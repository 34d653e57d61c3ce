"""Benchmark of the windmodal pipeline: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload modal_batch --seed 1 --seconds 20 --trace 0

The run drives the public ``windmodal`` API from this one process as a
closed loop: one caller, no worker threads, the next operation starts when
the previous one has returned.  It keeps starting operations until
``--seconds`` have passed and the current rotation over the workload's
studies is complete, checks every output (see ``workloads.py``), and prints
a JSON object as the last line of standard output.  An operation fails if
it raises or if its output check fails; ``failed`` / ``attempted`` in that
line is the failure share.

``--trace 0`` reports the end-to-end metrics:

- ``op_ms_p50``: time of one operation: a study (``run_scenario`` plus both
  exports) on ``modal_batch``, a 6x6 sweep on ``gain_sweep``, and one
  simulated second (``simulate_scenario``, plus ``ringdown_fit`` on
  ``fault_ringdown``) on the fault workloads.  The median is taken per
  position of the rotation over the workload's studies, then averaged over
  the positions.  Failed operations are left out.
- ``setup_s``: median over fresh interpreters of the time from start until
  the workload's inputs are ready (``import windmodal`` plus seeded input
  generation).
- ``peak_rss_mb``: peak resident memory of this process.

Both times are at the reference machine speed: wall time scaled by a
calibration kernel that runs every 0.1 s in this thread (see
``calibrate.py``).  The raw median and the highest percentile with ten
samples beyond it are printed, with their sample count, above the result
line.

``--trace 1`` runs the same loop untraced, then replays the workload's
first operations with spans around each layer's public functions (see
``tracer.py``) and reports the per-layer metrics, the import-time profile,
and the tracing overhead (traced minus untraced median of those
operations).

The process and its children are pinned to one CPU, so the calibration
kernel and the measured code share a core, and BLAS is held to one thread:
the matrices here have tens of rows, and on a small shared machine a
second BLAS thread only adds noise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 3          # fresh interpreters per run, for set-up or imports
PROBE_TIMEOUT_S = 60


def import_windmodal():
    """Import the package from this checkout's ``src``, and only there."""
    sys.path.insert(0, str(SRC))
    try:
        import windmodal
    except ImportError as exc:
        raise SystemExit(f"cannot import windmodal from {SRC}: {exc}")
    where = Path(windmodal.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise SystemExit(f"windmodal imported from {where}, not from {SRC}")


def run_setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Start and end of a fresh interpreter's way to ready inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        try:
            lines = []
            for line in proc.stdout:
                if line.strip() == "ready":
                    t1 = perf_counter()
                    break
                lines.append(line)
            else:
                raise RuntimeError("set-up probe failed:\n" + "".join(lines))
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return t0, t1


def run_import_probe(tracer_module) -> dict:
    """Import-time profile of ``import windmodal.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import windmodal.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("import probe failed:\n" + proc.stderr[-4000:])
    return tracer_module.import_profile(proc.stderr)


def run_op(wl, i: int, run=None):
    """Run and check operation ``i``; returns (start, end, problem or None)
    with start and end around the operation alone."""
    inp = wl.input(i)
    t0 = perf_counter()
    try:
        out = (run or wl.run)(inp)
    except Exception as exc:  # a raising operation is a failed operation
        return t0, perf_counter(), f"raised {type(exc).__name__}: {exc}"
    t1 = perf_counter()
    try:
        return t0, t1, wl.check(i, inp, out)
    except Exception as exc:
        return t0, t1, f"check raised {type(exc).__name__}: {exc}"


def measure(wl, seconds: float) -> list:
    """Closed loop for ``seconds``, ending on a complete rotation and after
    at least the operations the traced replay repeats."""
    results = []
    start = perf_counter()
    while (len(results) < wl.traced_ops or len(results) % wl.pass_len
           or perf_counter() - start < seconds):
        results.append(run_op(wl, len(results)))
    return results


def op_seconds(wl, sampler, results, scaled: bool = True) -> list:
    """Time per operation (per simulated second on simulations), at
    reference speed or raw; None for a failed operation."""
    unit = wl.sim_seconds or 1.0
    pick = 1 if scaled else 0
    return [None if problem else sampler.scaled(t0, t1)[pick] / unit
            for t0, t1, problem in results]


def position_median(wl, samples) -> float | None:
    """Mean over rotation positions of each position's median; the studies
    of one rotation differ in cost, so each is compared with its repeats."""
    medians = []
    for k in range(wl.pass_len):
        mine = [s for s in samples[k::wl.pass_len] if s is not None]
        if mine:
            medians.append(statistics.median(mine))
    return statistics.fmean(medians) if medians else None


def tail_summary(samples) -> str:
    """Median and the highest of p90/p99/p99.9 with ten samples beyond it."""
    ms = sorted(1e3 * s for s in samples if s is not None)
    if not ms:
        return "n=0"
    text = f"n={len(ms)} p50={statistics.median(ms):.3f}ms"
    for q in (0.999, 0.99, 0.9):
        if len(ms) * (1.0 - q) >= 10:
            cut = statistics.quantiles(ms, n=1000)[round(q * 1000) - 1]
            text += f" p{100 * q:g}={cut:.3f}ms"
            break
    return text


def blas_threads() -> list[int]:
    """Thread counts reported by the OpenBLAS libraries loaded here."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def machine_facts(sampler) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "kernel_ms_median": statistics.median(sampler.kernel),
        "kernel_ms_reference": calibrate.REFERENCE_MS,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help=argparse.SUPPRESS)  # child: build inputs and exit
    return p.parse_args(argv)


def end_to_end_metrics(wl, samples, setup_s: float) -> dict:
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "unit": "MB"},
    }
    p50 = position_median(wl, samples)
    if p50 is not None:
        metrics["op_ms_p50"] = {"value": 1e3 * p50, "unit": "ms"}
    return metrics


def traced_metrics(tr, tracer, k: int, traced, untraced,
                   import_ms: dict) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracer.layer_metrics(tr, k).items()}
    for name, value in import_ms.items():
        metrics[name] = {"value": value, "unit": "ms"}
    traced = [s for s in traced if s is not None]
    untraced = [s for s in untraced if s is not None]
    if traced and untraced:
        metrics["bench.trace_overhead_ms"] = {
            "value": 1e3 * (statistics.median(traced)
                            - statistics.median(untraced)),
            "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_windmodal()
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one "
                         f"of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        cls(args.seed)
        print("ready", flush=True)
        return 0

    import tracer
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    replay = []
    with calibrate.Sampler() as sampler:
        probes = []
        for _ in range(PROBES):
            with sampler.suspended():
                probes.append(run_import_probe(tracer) if args.trace else
                              run_setup_probe(args.workload, args.seed))
        wl = cls(args.seed)
        wl.prepare()
        results = measure(wl, args.seconds)
        if args.trace:
            tr = tracer.Tracer()
            traced_run = tr.wrap("bench.op", wl.run, root=True)
            tr.install()
            try:
                for i in range(wl.traced_ops):
                    with sampler.suspended():  # keep the kernel out of spans
                        replay.append(run_op(wl, i, traced_run))
            finally:
                tr.remove()
        wl.finish()

    samples = op_seconds(wl, sampler, results)
    if args.trace:
        if tr.missing:
            print("missing (wrapped names not found): "
                  + ", ".join(tr.missing))
        metrics = traced_metrics(tr, tracer, wl.traced_ops,
                                 op_seconds(wl, sampler, replay),
                                 samples[:wl.traced_ops],
                                 tracer.median_profile(probes))
    else:
        setup_s = statistics.median(sampler.scaled(t0, t1)[1]
                                    for t0, t1 in probes)
        metrics = end_to_end_metrics(wl, samples, setup_s)

    raw = op_seconds(wl, sampler, results, scaled=False)
    results += replay
    failed = [(i, problem) for i, (_, _, problem) in enumerate(results)
              if problem]
    attempted = len(results)
    print("machine " + json.dumps(machine_facts(sampler), sort_keys=True))
    per = " per simulated second" if wl.sim_seconds else ""
    print(f"{args.workload} seed={args.seed}: {attempted} operations, "
          f"fail_frac={len(failed) / attempted:.4f}; untraced wall time"
          f"{per}: {tail_summary(raw)}; at reference speed: "
          f"{tail_summary(samples)}")
    for line in wl.digest_report():
        print(line)
    for i, problem in failed[:5]:
        print(f"operation {i} failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
