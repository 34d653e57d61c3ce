"""Write bench/reference.json from the current code.

Run from the repository root, only when a change of numbers is intended:

    python3 bench/make_reference.py

The file holds, for each packaged study, the state count and the dominant
modes that ``modal_batch`` checks its unperturbed pass against, plus the
SHA-256 digests of the unperturbed reports and of the default-grid sweep.
The benchmark reports whether its digests match; they never fail a run.
"""

import json
import sys

import run

run.import_windmodal()

import workloads  # noqa: E402
from windmodal import scenario as sc  # noqa: E402


def main() -> int:
    studies, digests = {}, {}
    for name in sc.packaged_scenario_names():
        report = sc.run_scenario(sc.load_packaged_scenario(name))
        studies[name] = {
            "n_states": report.n_states,
            "dominant": [{"classification": m.classification,
                          "real": m.real, "imag": m.imag}
                         for m in report.dominant],
        }
        digests[f"report_to_text:{name}"] = workloads.sha256(
            sc.report_to_text(report))
    study = workloads.DIGEST_SWEEP_STUDY
    sweep = sc.run_sensitivity_sweep(sc.load_packaged_scenario(study))
    digests[f"sweep_to_text:{study}"] = workloads.sha256(
        sc.sweep_to_text(sweep))
    workloads.REFERENCE_PATH.write_text(json.dumps(
        {"studies": studies, "digests": digests}, indent=2, sort_keys=True)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
