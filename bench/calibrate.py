"""Machine-speed calibration for timing on a shared host.

On a shared machine, other tenants slow this process's CPU by up to half,
for stretches that last from seconds to minutes.  Raw wall times of the
same operation then differ by that much between runs.  So the harness
times a fixed kernel every ``INTERVAL_S`` of wall time, in the measuring
thread itself, and scales each operation's wall time by ``REFERENCE_MS``
over the mean kernel time around and during the operation.

The kernel resembles the package's hot loops: a complex LU solve of a small
matrix and Python arithmetic on its result.  It takes about
``REFERENCE_MS`` on an unloaded 2-vCPU Intel Xeon (KVM) with one BLAS
thread, so scaled times read as milliseconds on that machine at full speed.
On that machine under load, a modal study took 24-38 ms while its ratio to
the kernel stayed within 6.0 +- 0.2.
"""

import bisect
import contextlib
import signal
from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor, lu_solve

REFERENCE_MS = 2.5
INTERVAL_S = 0.1
MARGIN_S = 0.15     # samples this close to an operation also describe it
_SIZE = 24
_SOLVES = 100

_rng = np.random.default_rng(0)
_MATRIX = (_rng.standard_normal((_SIZE, _SIZE))
           + 1j * _rng.standard_normal((_SIZE, _SIZE))
           + 10.0 * np.eye(_SIZE))


def kernel_ms() -> float:
    """Wall time of one run of the fixed kernel, in ms."""
    t0 = perf_counter()
    lu = lu_factor(_MATRIX)
    x = np.ones(_SIZE, dtype=complex)
    acc = 0.0
    for _ in range(_SOLVES):
        x = lu_solve(lu, x)
        x = x / np.max(np.abs(x))
        for v in x[:8]:
            acc += v.real * 0.5 - v.imag
    return 1e3 * (perf_counter() - t0)


class Sampler:
    """Runs the kernel from a timer signal while the block is active.

    The handler runs in the main thread between bytecodes, so it sees the
    CPU the measured code runs on.  ``scaled`` removes the handler's own
    time from an interval and converts the rest to reference speed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []

    def _tick(self, signum, frame):
        start = perf_counter()
        ms = kernel_ms()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.kernel.append(ms)

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    @contextlib.contextmanager
    def suspended(self):
        """Stop the timer while a child process runs: the kernel would take
        its CPU.  A kernel run just before and just after calibrates it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick(None, None)
        try:
            yield
        finally:
            self._tick(None, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) spent in [t0, t1]
        outside the handler.  Call it after the block has ended, so that
        the samples just after ``t1`` exist."""
        first, last = (bisect.bisect_left(self.starts, t) for t in (t0, t1))
        wall = (t1 - t0) - sum(self.ends[k] - self.starts[k]
                               for k in range(first, last))
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = max(bisect.bisect_right(self.starts, t1 + MARGIN_S), lo + 1)
        near = self.kernel[lo:hi]
        return wall, wall * REFERENCE_MS * len(near) / sum(near)
