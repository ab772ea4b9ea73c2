"""Smoke test of scripts/run_corpus.py: it runs, writes its artifacts, its
normal-cone summaries agree with the golden CLI outputs, and its oracle
tables are pinned byte for byte."""

import json
import subprocess
import sys

from conftest import REPO

# the step configuration min(0, -u_0) at k = 2 and 4, as csv.writer writes it
ORACLE_CSV = {
    "stretched": (
        b"k,N_k,mean,gabor_inner,err_mean,err_inner\r\n"
        b"2,16,-0.03125,-0.029296875,0.0020833333333333333,0.008741319444444444\r\n"
        b"4,51,-0.03431372549019608,-0.024990388312187622,0.000980392156862745,"
        b"0.004434832756632065\r\n"),
    "p1": (
        b"k,N_k,mean,gabor_inner,err_mean,err_inner\r\n"
        b"2,5,-0.3,-0.25,0.05,0.08333333333333333\r\n"
        b"4,9,-0.2777777777777778,-0.20833333333333334,0.027777777777777776,"
        b"0.041666666666666664\r\n"),
}


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
        assert (tmp_path / f"{name}_oracle.csv").read_bytes() == ORACLE_CSV[name]
