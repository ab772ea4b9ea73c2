"""Byte-identical CLI outputs on the bundled polytopes.

tests/golden/cli_outputs.json records stdout and exit code of analyze,
normal-cone, tc-eval, reduce and oracle on each bundled polytope, with
the step configuration min(0, -x_1) where one is needed, and of analyze,
oracle, tc-eval and reduce on the dim 3-4 polytopes in tests/golden/ (P3,
P3 blown up at a point, (P1)^3, P4, (P1)^4); there tc-eval, reduce and
oracle run on the step configuration and on the three-piece configuration
mix{3,4}.json, whose gradients are rational and generic (oracle with an
integer --rho; the jumping numbers then have a common denominator D > 1
and many fibers cross several pieces), and normal-cone runs with its
defaults; and of analyze, normal-cone and tc-eval on mix5.json on the
dim 5 polytopes there (P5, P5 blown up at a point, (P1)^5).  OPTIONS
covers the option paths: --digits, an explicit grid and vertex, tc-eval
without --rho, the default oracle ladder, oracle on the three-piece
configuration mix2.json on Bl_pt P2, and every file a command writes; an
argument "{out}/name" is a file in a fresh directory, and its contents
are recorded under "files".  Any change to a number, a float rendering,
the JSON layout or a written file fails here.

Running the module records every case that has no entry yet and leaves
the existing entries alone; to regenerate an entry when an output change
is intended, delete it first:

    python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conftest import REPO

from toricding.cli import main

GOLDEN = REPO / "tests" / "golden" / "cli_outputs.json"
POLYTOPES = ["p1", "p2", "bl1p2", "p1xp1", "stretched"]
DIMS = {"p1": 1, "p2": 2, "bl1p2": 2, "p1xp1": 2, "stretched": 2}
RHO = {1: "1/2", 2: "1/2,-1/3", 3: "1/2,-1/3,1/5", 4: "1/2,-1/3,1/5,-1/7",
       5: "1/2,-1/3,1/5,-1/7,1/11"}
# dim 3-4 polytopes; the oracle ladder stays in tier-1 time
HIGHER = {"p3": 3, "blp3": 3, "p1x3": 3, "p4": 4, "p1x4": 4}
LADDER = {3: "4,8", 4: "2,4"}
# oracle directions must be integral
ORACLE_RHO = {3: "1,-2,3", 4: "1,-2,3,-1"}
# dim 5 polytopes: the kernel's largest dimension, analyze and normal-cone only
DIM5 = ["p5", "blp5", "p1x5"]
OUT = "{out}"
OPTIONS = {
    "analyze-digits:bl1p2": ["--digits", "5", "analyze", "polytopes/bl1p2.json"],
    "analyze-plot:bl1p2": ["analyze", "polytopes/bl1p2.json",
                           "--emit-plot-data", f"{OUT}/plot.csv"],
    "tc-eval-digits:bl1p2": ["--digits", "5", "tc-eval", "polytopes/bl1p2.json",
                             "tests/golden/step2.json", "--rho=1/2,-1/3"],
    "tc-eval-plot-norho:bl1p2": ["tc-eval", "polytopes/bl1p2.json", "tests/golden/step2.json",
                                 "--emit-plot-data", f"{OUT}/plot.csv"],
    "normal-cone-digits:stretched": ["--digits", "5", "normal-cone",
                                     "--polytope", "polytopes/stretched.json"],
    "normal-cone-files:p2": ["normal-cone", "--polytope", "polytopes/p2.json",
                             "--grid", "1/8,1/4", "--vertex", "1", "--csv", f"{OUT}/rows.csv",
                             "--emit-plot-data", f"{OUT}/plot.csv"],
    "reduce-segment:p1": ["reduce", "polytopes/p1.json", "tests/golden/step1.json",
                          "--segment", "0;1;4", "--segment-csv", f"{OUT}/segment.csv"],
    # the final error 1/12 passes --tol 1/8 and fails the default 1/16
    "oracle-options:bl1p2": ["oracle", "polytopes/bl1p2.json", "tests/golden/step2.json",
                             "--k-ladder", "1,2", "--rho", "0,1", "--tol", "1/8",
                             "--csv", f"{OUT}/table.csv"],
    "oracle-defaults:p1": ["oracle", "polytopes/p1.json", "tests/golden/step1.json"],
    "oracle-mix:bl1p2": ["oracle", "polytopes/bl1p2.json", "tests/golden/mix2.json",
                         "--k-ladder", "3,8,16", "--rho=1,-2"],
}


def cases() -> dict[str, list[str]]:
    out = {}
    for name in POLYTOPES:
        poly = f"polytopes/{name}.json"
        step = f"tests/golden/step{DIMS[name]}.json"
        out[f"analyze:{name}"] = ["analyze", poly]
        out[f"normal-cone:{name}"] = ["normal-cone", "--polytope", poly]
        out[f"tc-eval:{name}"] = ["tc-eval", poly, step, f"--rho={RHO[DIMS[name]]}"]
        out[f"reduce:{name}"] = ["reduce", poly, step]
        out[f"oracle:{name}"] = ["oracle", poly, step, "--k-ladder", "4,8"]
    for name, dim in HIGHER.items():
        poly = f"tests/golden/{name}.json"
        step = f"tests/golden/step{dim}.json"
        mix = f"tests/golden/mix{dim}.json"
        out[f"analyze:{name}"] = ["analyze", poly]
        out[f"tc-eval:{name}"] = ["tc-eval", poly, step, f"--rho={RHO[dim]}"]
        out[f"tc-eval-mix:{name}"] = ["tc-eval", poly, mix, f"--rho={RHO[dim]}"]
        out[f"reduce:{name}"] = ["reduce", poly, step]
        out[f"reduce-mix:{name}"] = ["reduce", poly, mix]
        out[f"oracle:{name}"] = ["oracle", poly, step, "--k-ladder", LADDER[dim]]
        out[f"oracle-mix:{name}"] = ["oracle", poly, mix, "--k-ladder", LADDER[dim],
                                     f"--rho={ORACLE_RHO[dim]}"]
        out[f"normal-cone:{name}"] = ["normal-cone", "--polytope", poly]
    for name in DIM5:
        poly = f"tests/golden/{name}.json"
        out[f"analyze:{name}"] = ["analyze", poly]
        out[f"normal-cone:{name}"] = ["normal-cone", "--polytope", poly]
        out[f"tc-eval-mix:{name}"] = ["tc-eval", poly, "tests/golden/mix5.json",
                                      f"--rho={RHO[5]}"]
    return out | OPTIONS


def run(argv: list[str]) -> tuple[int, str, dict[str, str]]:
    """Exit code, stdout and the files written under {out}, by name."""
    buf = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out:
        os.chdir(REPO)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main([arg.replace(OUT, out) for arg in argv])
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_bytes().decode() for p in sorted(Path(out).iterdir())}
    return code, buf.getvalue(), files


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_list_matches(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_byte_identical(golden, case):
    expected = golden[case]
    assert expected["argv"] == cases()[case]
    code, stdout, files = run(expected["argv"])
    assert code == expected["exit"]
    assert stdout == expected["stdout"]
    assert files == expected.get("files", {})


if __name__ == "__main__":
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    added = [case for case in sorted(cases()) if case not in doc]
    for case in added:
        argv = cases()[case]
        code, stdout, files = run(argv)
        doc[case] = {"argv": argv, "exit": code, "stdout": stdout}
        if files:
            doc[case]["files"] = files
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"added {len(added)} cases to {GOLDEN}: {', '.join(added)}")
