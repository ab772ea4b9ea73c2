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

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .functionals import PLConcave, e_na
from .geometry import AffineFn, _dot, _moment


def _twisted(f: PLConcave, rho: Sequence[Fraction], b) -> Fraction:
    """J of the twisted configuration f + <rho, .>, from b = barycenter(f.domain).

    Tilting every piece equally keeps the linearity regions, so the max of f + <rho, .> is
    at a row (D v, D) of f's vertex blocks (PLConcave._blocks), where f = V / Qb; with
    rho = G / q it is (q V + Qb / D <G, (D v, D)>) / (q Qb) in integers.
    """
    G, q = AffineFn(tuple(rho), Fraction(0)).cleared
    peak = max(Fraction(max(q * v + Qb // row[-1] * sum(map(mul, G, row))
                            for row, v in zip(rows, V)), q * Qb)
               for rows, V, Qb in f._blocks())
    return peak - (e_na(f) + _dot(rho, b))


def reduce_jna(f: PLConcave):
    """(rho_star, j_t): the lexicographically smallest minimizer of the twisted J and
    its minimum, f(b) - mean(f).  For m the moment of the domain's record, b = m[:-1] / m[-1]
    and a piece (G, q) cleared is <G, m> / (q m[-1]) there: integers over L, the q's lcm."""
    m, mean = _moment(f.domain), e_na(f)
    rows = [a.cleared for a in f.affines]
    L = lcm(*(q for _, q in rows))
    # the least value f(b), then the lexicographically least rho among its pieces
    top, rho = min((sum(map(mul, G, m)) * (L // q), [-x * (L // q) for x in G[:-1]])
                   for G, q in rows)
    return tuple(Fraction(x, L) for x in rho), Fraction(top, L * m[-1]) - mean
