"""Output checks for benchmark tasks.

Every task's stdout and exit code is compared with a reference digest
taken at the commit that defined the benchmark (tcmix only at its
reference seed).  On top of that, exact identities are checked on the
parsed outputs, so tcmix is checked at any seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import CORPUS, Task

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
TCMIX_REFERENCE_SEED = 0


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(ref: dict, workload: str, seed: int) -> dict | None:
    """task id -> [exit code, stdout digest], or None where no reference applies."""
    if workload == "tcmix" and seed != TCMIX_REFERENCE_SEED:
        return None
    return ref.get(workload, {})


def _poly_integral(coeffs: list[Fraction], lo: Fraction, hi: Fraction, shift: int) -> Fraction:
    """integral over [lo, hi] of lambda^shift * sum_i c_i lambda^i."""
    return sum((c * (hi ** (i + shift + 1) - lo ** (i + shift + 1)) / (i + shift + 1)
                for i, c in enumerate(coeffs)), Fraction(0))


def dh_identities(tc_eval: dict, reduce: dict) -> list[str]:
    """Exact identities linking one configuration's tc-eval and reduce outputs."""
    dh = tc_eval["dh"]
    atoms = [(Fraction(a["location"]), Fraction(a["mass"])) for a in dh["atoms"]]
    pieces = [(Fraction(p["interval"][0]), Fraction(p["interval"][1]),
               [Fraction(c) for c in p["coeffs"]]) for p in dh["pieces"]]
    mass = sum((m for _, m in atoms), Fraction(0))
    mean = sum((m * x for x, m in atoms), Fraction(0))
    for lo, hi, coeffs in pieces:
        mass += _poly_integral(coeffs, lo, hi, 0)
        mean += _poly_integral(coeffs, lo, hi, 1)
    top = max([x for x, _ in atoms] + [hi for _, hi, _ in pieces])
    e = Fraction(tc_eval["e_na"]["exact"])
    j = Fraction(tc_eval["j_na"]["exact"])
    j_t = Fraction(reduce["j_t_na"]["exact"])
    problems = []
    if mass != 1:
        problems.append(f"DH total mass {mass} != 1")
    if mean != e:
        problems.append(f"DH mean {mean} != e_na {e}")
    if j != top - e:
        problems.append(f"j_na {j} != max support {top} - e_na {e}")
    if not 0 <= j_t <= j:
        problems.append(f"j_t_na {j_t} outside [0, j_na = {j}]")
    if Fraction(reduce["j_na"]["exact"]) != j:
        problems.append("reduce and tc-eval disagree on j_na")
    return problems


def check_tasks(tasks: list[Task], results: list[tuple[int, str]],
                reference: dict | None) -> dict[str, list[str]]:
    """task id -> problems found (empty when the task passed)."""
    problems: dict[str, list[str]] = {}
    parsed: dict[str, dict] = {}
    for task, (rc, out) in zip(tasks, results):
        found = problems.setdefault(task.id, [])
        if task.kind == "normal-cone" and rc == 2:
            found.append("verify_family reported a closed-form mismatch")
        if reference is not None:
            want = reference.get(task.id)
            if want is None:
                found.append("no reference digest")
            elif [rc, digest(out)] != want:
                found.append(f"exit code {rc} / stdout digest differ from the reference")
        elif rc != 0:
            found.append(f"exit code {rc}")
        if rc != 0 or task.kind == "oracle":
            continue
        try:
            parsed[task.id] = json.loads(out)
        except json.JSONDecodeError:
            found.append("stdout is not JSON")
            continue
        if task.kind == "analyze":
            degree = Fraction(parsed[task.id]["anticanonical_degree"]["exact"])
            if degree != CORPUS[task.polytope][1]:
                found.append(f"anticanonical degree {degree} != {CORPUS[task.polytope][1]}")
    for task in tasks:
        if task.kind == "reduce":
            config = task.id.split(":", 1)[1]
            tc = parsed.get(f"tc-eval:{config}")
            red = parsed.get(task.id)
            if tc is not None and red is not None:
                problems[task.id].extend(dh_identities(tc, red))
    return problems
