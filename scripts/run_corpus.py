#!/usr/bin/env python3
"""End-to-end corpus run: extremal data, normal-cone families, verdicts,
and oracle convergence tables for the bundled polytopes.

Writes JSON/CSV artifacts into results/ (override with --out) and prints
a one-line summary per polytope.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricding import (
    AffineFn,
    NonSmoothVertex,
    PLConcave,
    e_na,
    extremal_affine,
    inner_product,
    level_moments,
    normal_cone_family,
    verdict,
    verify_family,
)
from toricding import io as tio
from toricding.normalcone import _default_grid

REPO = Path(__file__).resolve().parent.parent
CORPUS = ["p1", "p2", "bl1p2", "p1xp1", "stretched"]


def analyze_one(name: str, out_dir: Path, k_ladder):
    P = tio.load_polytope(str(REPO / "polytopes" / f"{name}.json"))
    from toricding import validate_fano

    fano = validate_fano(P)
    ext = extremal_affine(fano)
    summary = {
        "polytope": name,
        "dim": fano.dim,
        "volume": tio.format_rational(fano.volume()),
        "anticanonical_degree": tio.format_rational(fano.anticanonical_degree()),
        "barycenter": tio.vector_to_strings(ext.b),
        "theta": tio.affine_to_dict(ext.theta),
        "vartheta": tio.format_rational(ext.vartheta),
        "vartheta_float": float(ext.vartheta),
    }

    family = None
    try:
        family = normal_cone_family(fano)
        rows = verify_family(family, _default_grid(family))
        summary["normal_cone"] = {
            "vertex": tio.vector_to_strings(family.chart.vertex),
            "c_max": tio.format_rational(family.c_max),
            "expansion_coeffs": [tio.format_rational(c) for c in family.expansion_coeffs],
            "leading": tio.format_rational(family.leading_coeff),
        }
        with open(out_dir / f"{name}_normal_cone.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["c", "j_na", "j_t_na", "d_na", "pairing_with_extremal", "d_z_na"])
            for r in rows:
                w.writerow([float(r.c), float(r.j), float(r.j_t), float(r.d),
                            float(r.pairing), float(r.d_z)])
    except NonSmoothVertex as exc:
        summary["normal_cone"] = {"skipped": str(exc)}

    rep = verdict(fano, family=family)
    summary["flags"] = rep.flags
    summary["statements"] = rep.statements

    # oracle ladder for a step configuration along the first coordinate
    grad = [0] * fano.dim
    grad[0] = -1
    f = PLConcave.make([AffineFn.make([0] * fano.dim, 0), AffineFn.make(grad, 0)], fano)
    rho = [1] + [0] * (fano.dim - 1)
    exact_mean = e_na(f)
    exact_inner = inner_product(f, rho)
    with open(out_dir / f"{name}_oracle.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "N_k", "mean", "gabor_inner", "err_mean", "err_inner"])
        for k in k_ladder:
            N_k, mean, _, g = level_moments(f, rho, k)
            w.writerow([k, N_k, float(mean), float(g),
                        float(abs(mean - exact_mean)),
                        float(abs(g - exact_inner))])

    with open(out_dir / f"{name}_summary.json", "w") as fh:
        fh.write(tio.dumps(summary))
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "results"))
    parser.add_argument("--k-ladder", default="8,16,32,64")
    parser.add_argument("--only", help="comma-separated subset of polytope names")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ladder = [int(s) for s in args.k_ladder.split(",")]
    names = args.only.split(",") if args.only else CORPUS
    for name in names:
        s = analyze_one(name, out_dir, ladder)
        nc = s.get("normal_cone", {})
        print(
            f"{name:10s} vartheta={s['vartheta']:>8s} ({s['vartheta_float']:.6f})  "
            f"leading={nc.get('leading', '-'):>6s}  "
            f"{'; '.join(s['statements'][:1])}"
        )
    print(f"artifacts written to {out_dir}")


if __name__ == "__main__":
    main()
