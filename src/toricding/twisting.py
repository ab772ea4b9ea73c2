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
from typing import Sequence

from .functionals import PLConcave, _extreme, e_na
from .geometry import AffineFn, _dot, _values, barycenter


def _twisted(f: PLConcave, rho: Sequence[Fraction], b) -> Fraction:
    """J of the twisted configuration f + <rho, .>, from b = barycenter(f.domain).

    Tilting every piece equally keeps the linearity regions, so the max of
    f + <rho, .> is at a vertex of a region, where f is the region's piece.  A
    vertex of R0 is one of P or of another region (PLConcave.region_vertex_count),
    so the peak is the larger of f + <rho, .> at P's vertices, in integers over the
    lcm L of their denominators, and each other region's max of its tilted piece.
    """
    _, others, (low, Q), mean, _ = f._split()
    tilt, Qt = _values(f.domain, AffineFn(tuple(rho), Fraction(0)))
    L = lcm(Q, Qt)
    peak = Fraction(max(x * (L // Q) + y * (L // Qt) for x, y in zip(low, tilt)), L)
    peaks = [_extreme(max, AffineFn(tuple(map(sum, zip(a.gradient, rho))), a.constant), R)
             for R, a in others]
    return max([peak] + peaks) - (mean + _dot(rho, b))


def reduce_jna(f: PLConcave):
    """(rho_star, j_t): the lexicographically smallest minimizer of the
    twisted J and its minimum, f(b) - mean(f)."""
    b = barycenter(f.domain)
    # the least value f(b), then the lexicographically least rho among its pieces
    top, rho_star = min((a(b), tuple(-g for g in a.gradient)) for a in f.affines)
    return rho_star, top - e_na(f)
