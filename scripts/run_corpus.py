#!/usr/bin/env python3
"""End-to-end corpus run through the CLI: `analyze`, `normal-cone` and the
`oracle` ladder of the step configuration min(0, -x_1) on each bundled polytope.

Writes into results/ (override with --out) the step configurations as
step{n}.json and, per polytope, each command's stdout byte for byte as
{name}_analyze.json, {name}_normal_cone.json and {name}_oracle.csv, with
the normal-cone rows as {name}_normal_cone.csv; prints a one-line summary
per polytope.  A command that exits non-zero stops the run with exit 1.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from toricding.cli import main as toricding  # noqa: E402

CORPUS = ["p1", "p2", "bl1p2", "p1xp1", "stretched"]


def run(path: str, *argv: str) -> str:
    """Save the stdout of one CLI command to path and return it; exit 1 naming
    argv if the command fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = toricding(list(argv))
    if code:
        sys.exit(f"command failed with exit {code}: toricding {' '.join(argv)}")
    Path(path).write_text(out.getvalue(), newline="")
    return out.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "results"))
    parser.add_argument("--k-ladder", default="8,16,32,64")
    parser.add_argument("--only", help="comma-separated subset of polytope names")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in args.only.split(",") if args.only else CORPUS:
        poly, stem = str(REPO / "polytopes" / f"{name}.json"), f"{out}/{name}"
        n = json.loads(run(f"{stem}_analyze.json", "analyze", poly))["dim"]
        step = f"{out}/step{n}.json"
        Path(step).write_text(json.dumps({"affines": [
            {"gradient": ["0"] * n, "constant": "0"},
            {"gradient": ["-1"] + ["0"] * (n - 1), "constant": "0"}]}, indent=1) + "\n")
        nc = json.loads(run(f"{stem}_normal_cone.json", "normal-cone", "--polytope", poly,
                            "--csv", f"{stem}_normal_cone.csv"))
        run(f"{stem}_oracle.csv", "oracle", poly, step, "--k-ladder", args.k_ladder)
        verdict = nc["verdict"]
        print(f"{name:10s} vartheta={nc['vartheta']:>8s} ({float(verdict['vartheta_float']):.6f})"
              f"  leading={nc['expansion_leading']:>6s}  {'; '.join(verdict['statements'][:1])}")
    print(f"artifacts written to {out}")


if __name__ == "__main__":
    main()
