"""Byte-identical CLI outputs on the bundled polytopes.

tests/golden/cli_outputs.json records stdout and exit code of analyze,
normal-cone, tc-eval, reduce and oracle on each bundled polytope, with
the step configuration min(0, -x_1) where one is needed, and of analyze,
oracle and tc-eval on the dim 3-4 polytopes in tests/golden/ (P3, P3
blown up at a point, (P1)^3, P4, (P1)^4); there tc-eval runs on the step
configuration and on the three-piece configuration mix{3,4}.json, whose
gradients are rational and generic.  Any change to a number, a float
rendering or the JSON layout fails here.

Running the module records every case that has no entry yet and leaves
the existing entries alone; to regenerate an entry when an output change
is intended, delete it first:

    python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from conftest import REPO

from toricding.cli import main

GOLDEN = REPO / "tests" / "golden" / "cli_outputs.json"
POLYTOPES = ["p1", "p2", "bl1p2", "p1xp1", "stretched"]
DIMS = {"p1": 1, "p2": 2, "bl1p2": 2, "p1xp1": 2, "stretched": 2}
RHO = {1: "1/2", 2: "1/2,-1/3", 3: "1/2,-1/3,1/5", 4: "1/2,-1/3,1/5,-1/7"}
# dim 3-4 polytopes; the oracle ladder stays in tier-1 time
HIGHER = {"p3": 3, "blp3": 3, "p1x3": 3, "p4": 4, "p1x4": 4}
LADDER = {3: "4,8", 4: "2,4"}


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
        out[f"oracle:{name}"] = ["oracle", poly, step, "--k-ladder", LADDER[dim]]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_list_matches(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_byte_identical(golden, case):
    expected = golden[case]
    assert expected["argv"] == cases()[case]
    code, stdout = run(expected["argv"])
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    added = [case for case in sorted(cases()) if case not in doc]
    for case in added:
        argv = cases()[case]
        code, stdout = run(argv)
        doc[case] = {"argv": argv, "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"added {len(added)} cases to {GOLDEN}: {', '.join(added)}")
