"""Regenerate perfbench/reference.json: stdout digest and exit code per task.

    python3 perfbench/make_reference.py

Run only at a commit whose outputs are known to be right; the digests are
what later commits are checked against (tcmix at its reference seed).
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    ref = {}
    workdir = run.ROOT / ".perfbench_run" / "reference"
    for workload in workloads.WORKLOADS:
        result, _ = run.spawn(workload, checks.TCMIX_REFERENCE_SEED, "run", workdir)
        ref[workload] = result["digests"]
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
