"""Twisting by torus one-parameter directions and the reduced J-functional.

Twisting a toric test-configuration by rho tilts every affine piece by
<rho, x>.  The reduced J-functional is the infimum of the twisted J over
all real rho.  For concave f = min_j a_j and the barycenter b, which is
interior, max_P (f + <rho, . - b>) >= f(b) with equality exactly when
-rho lies in the superdifferential of f at b, so

    inf_rho J(f + <rho, .>) = f(b) - mean(f),

attained on conv{-grad a_j : a_j(b) = f(b)}.  The lexicographically
smallest point of that hull is one of its generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch
from .functionals import PLConcave, e_na
from .geometry import Point, _dot, _frac, barycenter


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
    """(rho_star, j_t): the lexicographically smallest minimizer of the
    twisted J and its minimum, f(b) - mean(f)."""
    if problem is not None:
        b, mean_f = problem.b, problem.mean_f
    else:
        b, mean_f = barycenter(f.domain), e_na(f)
    top = f(b)
    rho_star = min(tuple(-g for g in a.gradient) for a in f.affines if a(b) == top)
    return rho_star, top - mean_f
