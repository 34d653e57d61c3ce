"""Self-test: two traced runs at one seed give identical counters.

Run from the repository root (a few minutes for all workloads):

    python3 bench/selftest.py [workload ...]

Each workload is run twice with ``--trace 1`` and a short measuring time.
The deterministic counters of ``tracer.COUNTERS`` must repeat exactly.
Exits non-zero otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

run.import_windmodal()

from tracer import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = Path(run.__file__).resolve()
SEED = 7


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    failures = 0
    for workload in argv or WORKLOADS:
        counts = [{k: r["metrics"][k]["value"] for k in COUNTERS
                   if k in r["metrics"]}
                  for r in (traced_run(workload), traced_run(workload))]
        ok = counts[0] == counts[1] and len(counts[0]) == len(COUNTERS)
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'}")
        for key in COUNTERS:
            a, b = (c.get(key) for c in counts)
            mark = "" if a == b and a is not None else "  <-- differs"
            print(f"  {key:40s} {a!r:>22} {b!r:>22}{mark}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
