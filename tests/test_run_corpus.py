"""scripts/run_corpus.py drives the CLI: on every bundled polytope it saves
the stdout of analyze, normal-cone and oracle byte-identical to the golden
CLI outputs, and a failing command stops it with exit 1."""

import json
import subprocess
import sys

from conftest import REPO

SCRIPT = REPO / "scripts" / "run_corpus.py"
CORPUS = ["p1", "p2", "bl1p2", "p1xp1", "stretched"]


def run_corpus(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)


def test_corpus_matches_goldens(tmp_path):
    proc = run_corpus("--out", str(tmp_path), "--k-ladder", "4,8")
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((REPO / "tests" / "golden" / "cli_outputs.json").read_text())
    for name in CORPUS:
        for command, artifact in [("analyze", "analyze.json"),
                                  ("normal-cone", "normal_cone.json"), ("oracle", "oracle.csv")]:
            expected = golden[f"{command}:{name}"]["stdout"].encode()
            assert (tmp_path / f"{name}_{artifact}").read_bytes() == expected, (name, command)
        rows = (tmp_path / f"{name}_normal_cone.csv").read_text().splitlines()
        assert rows[0] == "c,j_na,j_t_na,d_na,pairing_with_extremal,d_z_na"
        assert len(rows) == 4
    assert len(proc.stdout.splitlines()) == len(CORPUS) + 1


def test_failing_command_exits_1(tmp_path):
    proc = run_corpus("--out", str(tmp_path), "--only", "nosuch")
    assert proc.returncode == 1
    missing = REPO / "polytopes" / "nosuch.json"
    assert proc.stderr.endswith(f"command failed with exit 1: toricding analyze {missing}\n")
    assert proc.stdout == ""
