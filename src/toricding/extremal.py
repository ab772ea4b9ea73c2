"""Extremal data of a Fano polytope.

The canonical anticanonical presentation is {x : <l_i, x> <= 1} with
primitive integer normals and the origin interior.  The extremal affine
function theta is the unique zero-mean affine function whose pairing
kills the relative Ding invariant of every torus product configuration:
its gradient solves the Gram system  cov . g = vol(P) . b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Sequence

from .errors import DimensionMismatch, NotCanonicalFano, OriginNotInterior, SingularGram
from .geometry import (
    CACHE_SIZE,
    AffineFn,
    HPolytope,
    Point,
    _centred,
    _divided,
    _gauss_jordan,
    _lift,
    _text,
    _values,
    barycenter,
    integrate_product,
    vertices,
    volume,
)


@dataclass(frozen=True)
class FanoPolytope:
    base: HPolytope

    @property
    def dim(self) -> int:
        return self.base.dim

    def vertices(self) -> tuple[Point, ...]:
        return vertices(self.base)

    def volume(self) -> Fraction:
        return volume(self.base)

    def barycenter(self) -> Point:
        return barycenter(self.base)

    def anticanonical_degree(self) -> Fraction:
        """L^n = n! * vol(P) for the canonical presentation."""
        return factorial(self.dim) * self.volume()


def validate_fano(P: HPolytope) -> FanoPolytope:
    """Accept iff every facet is a row (l, 1), l primitive: rhs 1 over its primitive normal.

    rhs <= 0 means the origin is not interior; any other rhs != 1 means
    the polytope is not in anticanonical presentation.  With every rhs 1
    the origin is strictly inside every facet, so P is full-dimensional.
    """
    if all(b == 1 and gcd(*a) == 1 for *a, b in P.facets):
        return FanoPolytope(P)
    # each row as (primitive normal, rhs), in the order of the normals
    facets = sorted((_divided(a), Fraction(b, gcd(*a))) for *a, b in P.facets)
    for normal, rhs in facets:
        if rhs <= 0:
            raise OriginNotInterior(f"facet {_text(normal)} has rhs {_text(rhs)} <= 0")
    normal, rhs = next(f for f in facets if f[1] != 1)
    raise NotCanonicalFano(f"facet {_text(normal)} has rhs {_text(rhs)} != 1")


@dataclass(frozen=True)
class ExtremalData:
    b: Point
    cov: tuple[tuple[Fraction, ...], ...]
    theta: AffineFn
    vartheta: Fraction


def covariance(P: FanoPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """cov_ij = int_P (x_i - b_i)(x_j - b_j) dx by integrate_product for i <= j, mirrored."""
    centred = [_centred(P.base, [int(t == i) for t in range(P.dim)]) for i in range(P.dim)]
    upper = {(i, j): integrate_product(P.base, xi, xj)
             for i, xi in enumerate(centred) for j, xj in enumerate(centred) if i <= j}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(P.dim)) for i in range(P.dim))


@lru_cache(maxsize=CACHE_SIZE)
def extremal_affine(P: FanoPolytope) -> ExtremalData:
    """Solve cov . g = vol(P) . b; theta(x) = <g, x - b>; vartheta = max theta."""
    cov = covariance(P)
    b = P.barycenter()
    vol = P.volume()
    # [cov | vol b] cleared to integers over one common denominator
    _, rows = _lift([row + (vol * bi,) for row, bi in zip(cov, b)])
    m, pivots, p = _gauss_jordan([row[:-1] for row in rows])
    if pivots != list(range(P.dim)):
        raise SingularGram("covariance matrix is singular")
    g = [Fraction(row[-1], p) for row in m]
    theta = _centred(P.base, g)
    values, Q = _values(P.base, theta)
    return ExtremalData(b=b, cov=cov, theta=theta, vartheta=Fraction(max(values), Q))


def dh_of_vector_field(P: FanoPolytope, a: Sequence):
    """Pushforward of normalized Lebesgue measure under x -> <a, x - b>.

    A probability measure with exact mean 0 and second moment
    a^T cov a / vol(P).
    """
    from .functionals import PLConcave, dh_measure

    if len(a) != P.dim:
        raise DimensionMismatch("vector length does not match polytope dimension")
    return dh_measure(PLConcave((_centred(P.base, a),), P.base))
