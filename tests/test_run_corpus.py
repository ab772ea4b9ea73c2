"""Smoke test of scripts/run_corpus.py: it runs, writes its artifacts, and
its normal-cone summaries agree with the golden CLI outputs."""

import json
import subprocess
import sys

from conftest import REPO


def test_two_polytopes(tmp_path):
    names = ["stretched", "p1"]
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_corpus.py"), "--out", str(tmp_path),
         "--only", ",".join(names), "--k-ladder", "2,4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((REPO / "tests" / "golden" / "cli_outputs.json").read_text())
    for name in names:
        summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
        expected = json.loads(golden[f"normal-cone:{name}"]["stdout"])
        assert summary["normal_cone"]["leading"] == expected["expansion_leading"]
        assert summary["normal_cone"]["expansion_coeffs"] == expected["expansion_coeffs"]
        assert (tmp_path / f"{name}_normal_cone.csv").exists()
        assert (tmp_path / f"{name}_oracle.csv").exists()
