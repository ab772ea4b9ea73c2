"""Twisting by torus one-parameter directions and the reduced J-functional.

Twisting a toric test-configuration by rho tilts every affine piece by
<rho, x>.  The reduced J-functional is the infimum of the twisted J over
all real rho; since J(rho) is piecewise-linear with rational data the
infimum is attained at a rational point and is found by an exact LP:

    minimize  t - <rho, b> - mean(f)
    subject   t >= f(v) + <rho, v>   for all subdivision vertices v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, LPUnbounded
from .functionals import PLConcave, e_na
from .geometry import Point, _dot, _frac, barycenter
from .lp import solve_lp


@dataclass(frozen=True)
class TwistProblem:
    f: PLConcave
    candidates: tuple[Point, ...]
    mean_f: Fraction
    b: Point

    @staticmethod
    def from_plconcave(f: PLConcave) -> "TwistProblem":
        return TwistProblem(
            f=f,
            candidates=f.subdivision_vertices(),
            mean_f=e_na(f),
            b=barycenter(f.domain),
        )


def twist(f: PLConcave, rho: Sequence) -> PLConcave:
    """Add <rho, x> to every affine piece; the domain is unchanged."""
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    return PLConcave(tuple(a.shift(rho) for a in f.affines), f.domain)


def jna_twisted(f: PLConcave, rho: Sequence, problem: TwistProblem | None = None) -> Fraction:
    """J of the twisted configuration, evaluated on the untwisted subdivision.

    Tilting every piece equally keeps the linearity regions, so the max
    of f + <rho, .> is attained at a subdivision vertex of f.
    """
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    p = problem if problem is not None else TwistProblem.from_plconcave(f)
    rho = tuple(_frac(r) for r in rho)
    peak = max(f(v) + _dot(rho, v) for v in p.candidates)
    return peak - (p.mean_f + _dot(rho, p.b))


def reduce_jna(f: PLConcave, problem: TwistProblem | None = None):
    """(rho_star, j_t): exact minimizer and minimum of the twisted J.

    Variables (t, rho).  Among optimal rho the lexicographically
    smallest is returned, obtained by sequentially minimizing each
    coordinate over the optimal face.
    """
    p = problem if problem is not None else TwistProblem.from_plconcave(f)
    n = f.domain.dim
    # columns: t, rho_1..rho_n
    rows = []
    rhs = []
    for v in p.candidates:
        rows.append([Fraction(-1)] + [_frac(c) for c in v])
        rhs.append(-f(v))
    cost = [Fraction(1)] + [-bi for bi in p.b]
    try:
        opt, _ = solve_lp(cost, rows, rhs)
    except LPUnbounded:
        raise LPUnbounded(
            "twisted J unbounded below: barycenter outside the candidate hull"
        ) from None
    j_t = opt - p.mean_f
    # lexicographic refinement over the optimal face
    face_rows = rows + [cost]
    face_rhs = rhs + [opt]
    fixed: list[Fraction] = []
    for i in range(n):
        obj = [Fraction(0)] * (n + 1)
        obj[1 + i] = Fraction(1)
        val, _ = solve_lp(obj, face_rows, face_rhs)
        fixed.append(val)
        unit = [Fraction(0)] * (n + 1)
        unit[1 + i] = Fraction(1)
        face_rows = face_rows + [unit, [-c for c in unit]]
        face_rhs = face_rhs + [val, -val]
    return tuple(fixed), j_t
