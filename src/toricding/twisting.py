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
from typing import Sequence

from .errors import DimensionMismatch
from .functionals import PLConcave, _extreme, e_na
from .geometry import AffineFn, _dot, _frac, barycenter


def jna_twisted(f: PLConcave, rho: Sequence) -> Fraction:
    """J of the twisted configuration, evaluated on the untwisted subdivision.

    Tilting every piece equally keeps the linearity regions, so the max
    of f + <rho, .> is attained at a vertex of a region R, where f is
    R's affine: the max over R of the tilted piece a + <rho, .>, in integers.
    """
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    return _twisted(f, tuple(_frac(r) for r in rho), barycenter(f.domain))


def _twisted(f: PLConcave, rho: Sequence[Fraction], b) -> Fraction:
    """jna_twisted(f, rho) from b = barycenter(f.domain)."""
    return max(_extreme(max, AffineFn(tuple(map(sum, zip(a.gradient, rho))), a.constant), R)
               for R, a in f.regions()) - (e_na(f) + _dot(rho, b))


def reduce_jna(f: PLConcave):
    """(rho_star, j_t): the lexicographically smallest minimizer of the
    twisted J and its minimum, f(b) - mean(f)."""
    b = barycenter(f.domain)
    # the least value f(b), then the lexicographically least rho among its pieces
    top, rho_star = min((a(b), tuple(-g for g in a.gradient)) for a in f.affines)
    return rho_star, top - e_na(f)
