"""Command-line front end.

Exit codes: 0 success/verified, 1 usage or parse error, 2 violated
invariant or failed tolerance, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

from . import io as tio
from .errors import InputTooLarge, InternalError, MismatchReport, ToricDingError
from .extremal import dh_of_vector_field, extremal_affine, validate_fano
from .functionals import (
    d_na,
    d_z_na,
    dh_measure,
    e_na,
    inner_product,
    j_na,
    outside_calibrated_regime,
)
from .geometry import _signed_product, barycenter, integrate_product, show, volume
from .lattice import level_moments
from .normalcone import _default_grid, normal_cone_family, select_vertex, verdict, verify_family
from .twisting import _twisted, reduce_jna


# Refuse a `reduce --segment` with more samples than this.  One sample took
# 0.03-0.17 ms on the dim 1-5 goldens and a 12-piece dim 4 configuration
# (2 vCPUs), so 10^5 of them take 3-17 s.
MAX_SEGMENT_STEPS = 10**5


def _fr(x: Fraction, digits: int) -> dict:
    return {"exact": tio.format_rational(x), "float": tio.format_float(x, digits)}


def _int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise tio.ParseError(f"{option} expects an integer, got {text!r}") from None


def cmd_analyze(args) -> int:
    P = validate_fano(tio.load_polytope(args.polytope))
    _create_outputs(args)
    ext = extremal_affine(P)
    dh = dh_of_vector_field(P, ext.theta.gradient)
    out = {
        "dim": P.dim,
        "volume": _fr(P.volume(), args.digits),
        "anticanonical_degree": _fr(P.anticanonical_degree(), args.digits),
        "barycenter": tio.vector_to_strings(ext.b),
        "theta": tio.affine_to_dict(ext.theta),
        "vartheta": tio.format_rational(ext.vartheta),
        "vartheta_float": tio.format_float(ext.vartheta, args.digits),
        "dh_extremal": tio.dh_to_dict(dh, dh.moment(1), args.digits),
    }
    _emit_density_plot(args.plot, dh)
    sys.stdout.write(tio.dumps(out))
    return 0


def cmd_tc_eval(args) -> int:
    rho = tio.parse_rational_list(args.rho) if args.rho else None
    P = validate_fano(tio.load_polytope(args.polytope))
    if rho is not None and len(rho) != P.dim:
        raise tio.ParseError("rho length does not match domain dimension")
    f = tio.load_test_config(args.tc, P)
    _create_outputs(args)
    ext = extremal_affine(P)
    dh, energy = dh_measure(f), e_na(f)
    out = {
        "e_na": _fr(energy, args.digits),
        "j_na": _fr(j_na(f), args.digits),
        "d_na": _fr(d_na(f), args.digits),
        "d_z_na": _fr(d_z_na(f, ext), args.digits),
        # the pushforward of Lebesgue measure under f has mean E(f)
        "dh": tio.dh_to_dict(dh, energy, args.digits),
        "outside_calibrated_regime": outside_calibrated_regime(f),
    }
    if rho is not None:
        out["inner_product_rho"] = _fr(inner_product(f, rho), args.digits)
    _emit_density_plot(args.plot, dh)
    sys.stdout.write(tio.dumps(out))
    return 0


def cmd_reduce(args) -> int:
    if bool(args.segment) != bool(args.csvout):
        raise tio.ParseError("--segment and --segment-csv must be given together")
    if args.segment:
        parts = args.segment.split(";")
        n = parts[2].strip() if len(parts) == 3 else ""
        steps = _int(n, "--segment N") if n.isdecimal() else 0  # _int: N may pass the digit limit
        if steps < 1:
            raise tio.ParseError(
                f"--segment must be 'a;b;N' with an integer N >= 1, got {args.segment!r}")
        if steps > MAX_SEGMENT_STEPS:
            raise InputTooLarge(
                f"--segment N = {steps} samples, above the limit of {MAX_SEGMENT_STEPS}")
        a, b = (tio.parse_rational_list(t) for t in parts[:2])
    P = validate_fano(tio.load_polytope(args.polytope))
    if args.segment and not len(a) == len(b) == P.dim:
        raise tio.ParseError(
            f"--segment endpoints must have dimension {P.dim}, got {len(a)} and {len(b)}")
    f = tio.load_test_config(args.tc, P)
    _create_outputs(args)
    rho_star, j_t = reduce_jna(f)
    out = {
        "j_na": _fr(j_na(f), args.digits),
        "j_t_na": _fr(j_t, args.digits),
        "rho_star": tio.vector_to_strings(rho_star),
        "candidates_used": f.region_vertex_count(),
    }
    if args.segment:
        center = barycenter(f.domain)  # computed once for all samples; e_na(f) is cached
        ts = [Fraction(i, steps) for i in range(steps + 1)]
        js = [_twisted(f, [x + t * (y - x) for x, y in zip(a, b)], center) for t in ts]
        rows = [list(map(tio.format_float, row)) for row in zip(ts, js)]
        _save_csv(args.csvout, ["t", "j_twisted"], rows)
    sys.stdout.write(tio.dumps(out))
    return 0


def cmd_normal_cone(args) -> int:
    grid = tio.parse_rational_list(args.grid or "")
    idx = None if args.vertex == "auto" else _int(args.vertex, "--vertex")
    P = validate_fano(tio.load_polytope(args.polytope))
    verts = P.vertices()
    if idx is not None and not 0 <= idx < len(verts):
        raise tio.ParseError(f"vertex index {idx} outside 0..{len(verts) - 1}")
    top = select_vertex(P)
    family = normal_cone_family(P, top if idx is None else verts[idx])
    grid = grid or _default_grid(family)
    bad = [c for c in grid if not 0 < c < family.c_max]
    if bad:
        raise tio.ParseError(f"c values {', '.join(map(show, bad))} outside (0, {family.c_max})")
    _create_outputs(args)
    rows = verify_family(family, grid)
    # verdict reads a family only when vartheta >= 1: the one at the theta-maximizing vertex
    stability = verdict(P, grid, family if family.chart.vertex == top else None)
    out = {
        "vertex": tio.vector_to_strings(family.chart.vertex),
        "ord": tio.affine_to_dict(family.chart.ord),
        "c_max": tio.format_rational(family.c_max),
        "anticanonical_degree": tio.format_rational(family.Ln),
        "vartheta": tio.format_rational(family.ext.vartheta),
        "rows": [
            {
                "c": tio.format_rational(r.c),
                "j_na": tio.format_rational(r.j),
                "j_t_na": tio.format_rational(r.j_t),
                "rho_star": tio.vector_to_strings(r.rho_star),
                "d_na": tio.format_rational(r.d),
                "pairing_with_extremal": tio.format_rational(r.pairing),
                "d_z_na": tio.format_rational(r.d_z),
                "dh_matches_closed_form": r.dh_matches,
            }
            for r in rows
        ],
        "expansion_coeffs": [tio.format_rational(c) for c in family.expansion_coeffs],
        "expansion_leading": tio.format_rational(family.leading_coeff),
        "expansion_leading_expected": tio.format_rational(family.leading_coeff),
        "verdict": {
            "vartheta_float": tio.format_float(stability.vartheta, args.digits),
            "flags": stability.flags,
            "statements": stability.statements,
        },
    }
    header = ["c", "j_na", "j_t_na", "d_na", "pairing_with_extremal", "d_z_na"]
    table = [list(map(tio.format_float, (r.c, r.j, r.j_t, r.d, r.pairing, r.d_z))) for r in rows]
    if args.csvout:
        _save_csv(args.csvout, header, table)
    if args.plot:
        # the plot data leaves out the pairing column
        _save_csv(args.plot, header[:4] + header[5:], [row[:4] + row[5:] for row in table])
    sys.stdout.write(tio.dumps(out))
    return 0


def cmd_oracle(args) -> int:
    ladder = [_int(s, "--k-ladder") for s in args.k_ladder.split(",") if s.strip()]
    rho = tio.parse_rational_list(args.rho) if args.rho else None
    if rho and any(r.denominator != 1 for r in rho):
        raise tio.ParseError("oracle rho must be integral")
    tol = tio.parse_rational(args.tol)
    if tol < 0:
        raise tio.ParseError(f"--tol must be >= 0, got {args.tol}")
    if not ladder:
        raise tio.ParseError("oracle needs a nonempty k ladder")
    if any(k < 1 for k in ladder):
        raise tio.ParseError("k values must be >= 1")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise tio.ParseError("k ladder must be strictly increasing")
    P = validate_fano(tio.load_polytope(args.polytope))
    if rho is not None and len(rho) != P.dim:
        raise tio.ParseError("rho length does not match domain dimension")
    f = tio.load_test_config(args.tc, P)
    _create_outputs(args)
    rho = [1] + [0] * (P.dim - 1) if rho is None else [int(r) for r in rho]
    # the DH second moment: (1/vol) int_P a0^2 plus int_R (a - a0)(a + a0) per other region R
    a0, others, *_ = f._split()
    second = integrate_product(f.domain, a0, a0) + sum(_signed_product(R, a, a0) for R, a in others)
    exact = (e_na(f), second / volume(f.domain), inner_product(f, rho))
    header = ["k", "N_k", "mean", "second_moment", "gabor_inner", "exact_mean",
              "exact_second_moment", "exact_inner", "err_mean", "err_second", "err_inner"]
    table = []
    for k in ladder:
        N_k, *level = level_moments(f, rho, k)
        errs = [abs(x - e) for x, e in zip(level, exact)]
        table.append([k, N_k, *map(tio.format_float, (*level, *exact, *errs))])
    _write_csv(sys.stdout, header, table)
    if args.csvout:
        _save_csv(args.csvout, header, table)
    return 0 if max(errs) <= tol else 2  # the errors of the last k


def _emit_density_plot(path: str | None, dh) -> None:
    if not path:
        return
    rows = [list(map(tio.format_float, row)) for row in tio.density_samples(dh)]
    rows += [[], ["atom_location", "atom_mass"]]
    rows += [list(map(tio.format_float, atom)) for atom in dh.atoms]
    _save_csv(path, ["lambda", "density"], rows)


def _write_csv(fh, header: list, rows: list) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def _create_outputs(args) -> None:
    """Create the output files empty after the inputs are read, before any work,
    so that a path that cannot be written fails first; _save_csv fills them."""
    for path in (getattr(args, "csvout", None), getattr(args, "plot", None)):
        if path:
            try:
                open(path, "w").close()
            except OSError as exc:
                raise tio.ParseError(str(exc)) from None


def _save_csv(path: str, header: list, rows: list) -> None:
    """Write the table to path; a path that cannot be written is a ParseError."""
    try:
        with open(path, "w", newline="") as fh:
            _write_csv(fh, header, rows)
    except OSError as exc:
        raise tio.ParseError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricding",
        description="Exact Ding-stability invariants of toric Fano polytopes",
    )
    parser.add_argument("--digits", type=int, default=12, help="float display digits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extremal data and DH measure of a polytope")
    p.add_argument("polytope")
    p.add_argument("--emit-plot-data", dest="plot")

    p = sub.add_parser("tc-eval", help="non-Archimedean functionals of a configuration")
    p.add_argument("polytope")
    p.add_argument("tc")
    p.add_argument("--rho", help="comma-separated rational vector")
    p.add_argument("--emit-plot-data", dest="plot")

    p = sub.add_parser("reduce", help="reduced J-functional in closed form")
    p.add_argument("polytope")
    p.add_argument("tc")
    p.add_argument("--segment", help="'a1,a2;b1,b2;N' sampling segment for J(rho)")
    p.add_argument("--segment-csv", dest="csvout")

    p = sub.add_parser("normal-cone", help="normal-cone family report and verdict")
    p.add_argument("--polytope", required=True)
    p.add_argument("--grid", help="comma-separated c values")
    p.add_argument("--vertex", default="auto",
                   help="'auto' or an index into the sorted vertex list")
    p.add_argument("--csv", dest="csvout")
    p.add_argument("--emit-plot-data", dest="plot")

    p = sub.add_parser("oracle", help="finite-level convergence table")
    p.add_argument("polytope")
    p.add_argument("tc")
    p.add_argument("--k-ladder", default="8,16,32,64")
    p.add_argument("--rho", help="comma-separated integer vector")
    p.add_argument("--tol", default="1/16")
    p.add_argument("--csv", dest="csvout")

    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "tc-eval": cmd_tc_eval,
    "reduce": cmd_reduce,
    "normal-cone": cmd_normal_cone,
    "oracle": cmd_oracle,
}


# built on the first main() call, not at import, and kept for the process
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if args.digits < 0:
            raise tio.ParseError(f"--digits must be >= 0, got {args.digits}")
        return _DISPATCH[args.command](args)
    except tio.ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MismatchReport as exc:
        sys.stderr.write(f"identity violation: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except ToricDingError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
