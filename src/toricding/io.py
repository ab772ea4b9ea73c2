"""JSON/CSV ingestion and emission.

Rationals serialize as "p/q" strings (plain integers are accepted on
input).  All emitters sort deterministically so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import rationalpoly as rp
from .errors import DimensionMismatch
from .functionals import DHMeasure, PLConcave
from .geometry import AffineFn, HPolytope, facets_from_vertices


# density samples per DH piece in plot data
POINTS_PER_PIECE = 16


class ParseError(ValueError):
    pass


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}: {exc}") from None
    raise ParseError(f"not a rational: {value!r}")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_float(x, digits: int) -> float:
    return float(f"{float(x):.{digits}g}")


def polytope_from_dict(data: dict) -> HPolytope:
    if "facets" in data:
        if "dim" not in data:
            raise ParseError('polytope JSON with "facets" needs "dim"')
        dim = int(data["dim"])
        rows = []
        for fac in data["facets"]:
            normal = [parse_rational(a) for a in fac["normal"]]
            if any(a.denominator != 1 for a in normal):
                raise ParseError(f'facet normal {fac["normal"]} must be integral')
            if len(normal) != dim:
                raise DimensionMismatch("facet normal has wrong length")
            rows.append((normal, parse_rational(fac["rhs"])))
        return HPolytope.from_inequalities(dim, rows)
    if "vertices" in data:
        pts = [[parse_rational(c) for c in p] for p in data["vertices"]]
        return facets_from_vertices(pts)
    raise ParseError('polytope JSON needs "facets" or "vertices"')


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def load_polytope(path: str) -> HPolytope:
    return polytope_from_dict(_read_json(path))


def affine_from_dict(data: dict) -> AffineFn:
    grad = tuple(parse_rational(g) for g in data["gradient"])
    return AffineFn(grad, parse_rational(data.get("constant", 0)))


def affine_to_dict(a: AffineFn) -> dict:
    return {
        "gradient": [format_rational(g) for g in a.gradient],
        "constant": format_rational(a.constant),
    }


def test_config_from_dict(data: dict, domain) -> PLConcave:
    affines = [affine_from_dict(a) for a in data["affines"]]
    if not affines:
        raise ParseError("test-configuration needs at least one affine")
    return PLConcave.make(affines, domain)


def load_test_config(path: str, domain) -> PLConcave:
    return test_config_from_dict(_read_json(path), domain)


def dh_to_dict(m: DHMeasure, digits: int = 12) -> dict:
    return {
        "atoms": [
            {
                "location": format_rational(loc),
                "mass": format_rational(mass),
                "mass_float": format_float(mass, digits),
            }
            for loc, mass in m.atoms
        ],
        "pieces": [
            {
                "interval": [format_rational(lo), format_rational(hi)],
                "coeffs": [format_rational(c) for c in coeffs],
            }
            for lo, hi, coeffs in m.pieces
        ],
        "mean": format_rational(m.mean()),
    }


def parse_rational_list(text: str) -> list[Fraction]:
    items = [s for s in text.split(",") if s.strip()]
    return [parse_rational(s.strip()) for s in items]


def density_samples(m: DHMeasure):
    """(lambda, density) rows for plotting; atoms are reported separately."""
    rows = []
    for lo, hi, coeffs in m.pieces:
        for i in range(POINTS_PER_PIECE + 1):
            lam = lo + (hi - lo) * Fraction(i, POINTS_PER_PIECE)
            rows.append((lam, rp.evaluate(coeffs, lam)))
    return rows


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def vector_to_strings(v: Sequence) -> list[str]:
    return [format_rational(c) for c in v]
