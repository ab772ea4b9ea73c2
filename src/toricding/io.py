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
from .errors import DimensionMismatch, InputTooLarge
from .functionals import DHMeasure, PLConcave
from .geometry import AffineFn, HPolytope, _text, facets_from_vertices


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
    return _text(Fraction(x))


def format_float(x, digits: int) -> float:
    try:
        value = float(x)
    except OverflowError:
        raise InputTooLarge("value outside double range: its float cannot be printed") from None
    # 17 significant digits round-trip every float: more would change nothing
    return float(f"{value:.{min(digits, 17)}g}")


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "an object", list: "a list", int: "an integer"}[kind]
        raise ParseError(f"{where}: expected {name}, got {json.dumps(value)}")
    return value


def _field(obj, key: str, where: str):
    if key not in _expect(obj, dict, where):
        raise ParseError(f'{where}: missing key "{key}"')
    return obj[key]


def polytope_from_dict(data: dict, source: str = "polytope") -> HPolytope:
    """The polytope of a parsed polytope file; source names the file in messages."""
    if "facets" in _expect(data, dict, source):
        dim = _expect(_field(data, "dim", source), int, f"{source}: dim")
        rows = []
        for i, fac in enumerate(_expect(data["facets"], list, f"{source}: facets")):
            where = f"{source}: facets[{i}]"
            normal = [parse_rational(a)
                      for a in _expect(_field(fac, "normal", where), list, f"{where}.normal")]
            if any(a.denominator != 1 for a in normal):
                raise ParseError(f'facet normal {fac["normal"]} must be integral')
            if len(normal) != dim:
                raise DimensionMismatch("facet normal has wrong length")
            rows.append((normal, parse_rational(_field(fac, "rhs", where))))
        return HPolytope.from_inequalities(dim, rows)
    if "vertices" in data:
        pts = [[parse_rational(c) for c in _expect(p, list, f"{source}: vertices[{i}]")]
               for i, p in enumerate(_expect(data["vertices"], list, f"{source}: vertices"))]
        return facets_from_vertices(pts)
    raise ParseError('polytope JSON needs "facets" or "vertices"')


def _read_json(path: str):
    """The JSON at path; any failure to read, decode or parse it is a ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_polytope(path: str) -> HPolytope:
    return polytope_from_dict(_read_json(path), path)


def affine_from_dict(data: dict, where: str = "affine") -> AffineFn:
    grad = tuple(parse_rational(g)
                 for g in _expect(_field(data, "gradient", where), list, f"{where}.gradient"))
    return AffineFn(grad, parse_rational(data.get("constant", 0)))


def affine_to_dict(a: AffineFn) -> dict:
    return {
        "gradient": [format_rational(g) for g in a.gradient],
        "constant": format_rational(a.constant),
    }


def test_config_from_dict(data: dict, domain, source: str = "test-configuration") -> PLConcave:
    """The configuration of a parsed file on domain; source names the file in messages."""
    items = _expect(_field(data, "affines", source), list, f"{source}: affines")
    affines = [affine_from_dict(a, f"{source}: affines[{i}]") for i, a in enumerate(items)]
    if not affines:
        raise ParseError("test-configuration needs at least one affine")
    return PLConcave.make(affines, domain)


def load_test_config(path: str, domain) -> PLConcave:
    return test_config_from_dict(_read_json(path), domain, path)


def dh_to_dict(m: DHMeasure, mean: Fraction, digits: int = 12) -> dict:
    """m as JSON; mean is its mean, which the caller knows exactly."""
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
        "mean": format_rational(mean),
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
