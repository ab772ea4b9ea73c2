"""Toric test-configurations and their non-Archimedean functionals.

A toric test-configuration is a rational piecewise-linear concave
function f = min(affines) on the moment polytope.  Its Duistermaat-
Heckman measure is the pushforward of normalized Lebesgue measure
under f, computed exactly: linearity regions with constant value
contribute atoms, the others contribute piecewise-polynomial density
of degree <= n-1: a sum of truncated powers (lambda_k - lambda)_+^m at
the knots lambda_k, the values of f at the vertices of the simplices of
each region (Curry-Schoenberg; Duistermaat-Heckman localization).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import Sequence

from . import rationalpoly as rp
from .errors import DimensionMismatch, InternalError
from .extremal import ExtremalData, FanoPolytope
from .geometry import (
    AffineFn,
    HPolytope,
    _centred,
    _divided,
    _record,
    _region_subdivision_cached,
    _signed_product,
    _values,
    integrate_product,
    region_subdivision as _region_subdivision,
    vertices,  # unused here; perfbench/tests asserts that its tracer rebinds this alias
    volume,
)


def _domain_base(domain) -> HPolytope:
    return domain.base if isinstance(domain, FanoPolytope) else domain


def _extreme(pick, a: AffineFn, P: HPolytope) -> Fraction:
    """pick (max or min) of a over the vertices of P, in integers."""
    values, Q = _values(P, a)
    return Fraction(pick(values), Q)


@dataclass(frozen=True)
class PLConcave:
    """min of finitely many affine functions over a polytope."""

    affines: tuple[AffineFn, ...]
    domain: HPolytope

    @staticmethod
    def make(affines: Sequence[AffineFn], domain) -> "PLConcave":
        base = _domain_base(domain)
        affines = tuple(affines)
        if not affines:
            raise ValueError("need at least one affine piece")
        for a in affines:
            if len(a.gradient) != base.dim:
                raise DimensionMismatch("affine dimension does not match domain")
        return PLConcave(affines, base)

    def __call__(self, x: Sequence) -> Fraction:
        return min(a(x) for a in self.affines)

    def regions(self):
        return _region_subdivision(self.domain, self.affines)

    def region_vertex_count(self) -> int:
        """The number of distinct vertices of the linearity regions: a record
        row (D v, D) over its gcd is the primitive ray of v, an integer key."""
        return len({_divided(row) for R, _ in self.regions() for row in _record(R).rows})

    def _split(self):
        """(a0, the regions but a0's R0, min and max of f at P's vertices, all regions)."""
        return _region_subdivision_cached(self.domain, self.affines)

    def max_value(self) -> Fraction:
        # a region's affine is largest at its vertices, R0's are P's or in other regions
        _, others, _, high, _ = self._split()
        return max([high] + [_extreme(max, a, R) for R, a in others])

    def min_value(self) -> Fraction:
        return self._split()[2]


@dataclass(frozen=True)
class DHMeasure:
    """Probability measure on the line: atoms plus polynomial density pieces.

    atoms: ((location, mass), ...) sorted by location, masses > 0.
    pieces: ((lo, hi, coeffs), ...) disjoint intervals sorted by lo,
    coeffs ascending-degree Fraction tuples.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    pieces: tuple[tuple[Fraction, Fraction, tuple[Fraction, ...]], ...]

    def __post_init__(self) -> None:
        # densities are non-negative by construction: a sum of truncated
        # powers that is the pushforward of Lebesgue measure, or the
        # closed form of normalcone.dh_closed_form
        for _, mass in self.atoms:
            if mass < 0:
                raise InternalError(f"negative atom mass {mass}")
        for lo, hi, _ in self.pieces:
            if not lo < hi:
                raise InternalError("empty density interval")

    def moment(self, d: int) -> Fraction:
        """int lambda^d dm: d = 0, 1, 2 give the mass, the mean and the second moment."""
        val = sum((m * loc**d for loc, m in self.atoms), Fraction(0))
        for lo, hi, coeffs in self.pieces:
            weighted = tuple([Fraction(0)] * d + list(coeffs))  # lambda^d * density
            val += rp.integrate(weighted, lo, hi)
        return val

    def max_support(self) -> Fraction:
        candidates = [loc for loc, _ in self.atoms] + [hi for _, hi, _ in self.pieces]
        return max(candidates)


def _inverse_taylor(tau: int, knots: Counter) -> tuple[list[int], int]:
    """(e, p_0): prod_{t != tau} (z - t)^(-knots[t]) = sum_k e_k (z - tau)^k / p_0^(k+1)
    up to k = r - 1, r = knots[tau].

    p(tau + u) = prod_{t != tau} (u + tau - t)^knots[t] is expanded in
    integers up to u^(r-1); its inverse series has e_0 = 1 and
    e_k = -sum_{i=1..k} p_i e_(k-i) p_0^(i-1).
    """
    r = knots[tau]
    p = [1] + [0] * (r - 1)
    for t, mult in knots.items():
        if t != tau:
            for _ in range(mult):
                p = [(tau - t) * c + (p[k - 1] if k else 0) for k, c in enumerate(p)]
    e = [1]
    for k in range(1, r):
        e.append(-sum(p[i] * e[k - i] * p[0] ** (i - 1) for i in range(1, k + 1)))
    return e, p[0]


def dh_measure(f: PLConcave) -> DHMeasure:
    """Exact pushforward of Lebesgue/vol(P) under f.

    A constant region is an atom, a constant a0's of volume vol(P) minus the
    other regions' (no record of R0).  On a non-constant region, f = T / Q at
    its vertices, T = <q (g, c), (D v, D)> integers and Q = q D, and a
    simplex s pushes forward to vol(s) n Q [T_s](. - Q lambda)_+^(n-1), the
    divided difference over its knots T_s (Curry-Schoenberg).  By partial
    fractions a knot tau of multiplicity r <= n adds
        sum_{j<r} C(n-1, j) eta_(r-1-j) (tau - Q lambda)_+^(n-1-j),
    eta the Taylor coefficients at tau of prod_{t != tau} (z - t)^(-r_t).
    As (tau - Q lambda)^m = Q^m (tau/Q - lambda)^m, these powers are summed
    per knot tau/Q over all regions and expanded, in one sweep from the
    top knot down, into the density on each interval between knots.
    """
    n = f.domain.dim
    vol = volume(f.domain)
    a0, others, *_ = f._split()
    mass = a0.is_constant and vol - sum(volume(R) for R, _ in others)
    atoms = [(a0.constant, mass / vol)] if mass else []
    # knot lambda_k -> coefficients c_m of (lambda_k - lambda)_+^m, m < n
    powers: dict[Fraction, list[Fraction]] = {}
    for R, a in others if a0.is_constant else f.regions():
        if a.is_constant:
            atoms.append((a.constant, volume(R) / vol))
            continue
        rec, (value, Q) = _record(R), _values(R, a)
        local: dict[int, list[Fraction]] = {}
        for s, det in rec.simplices:
            knots = Counter(value[k] for k in s)
            for tau, r in knots.items():
                e, p0 = _inverse_taylor(tau, knots)
                c = local.setdefault(tau, [0] * n)
                for j in range(r):
                    c[n - 1 - j] += Fraction(det * comb(n - 1, j) * e[r - 1 - j], p0 ** (r - j))
        scale = [Fraction(n * Q ** (m + 1), rec.unit) / vol for m in range(n)]
        for tau, c in local.items():
            total = powers.setdefault(Fraction(tau, Q), [0] * n)
            for m, cm in enumerate(c):
                if cm:
                    total[m] += cm * scale[m]
    pieces = []
    density = [Fraction(0)] * n
    cuts = sorted(powers, reverse=True)
    for hi, lo in zip(cuts, cuts[1:]):
        # c (hi - lambda)^m = sum_i c C(m, i) hi^(m-i) (-lambda)^i
        for m, cm in enumerate(powers[hi]):
            if cm:
                for i in range(m + 1):
                    density[i] += (-1) ** i * comb(m, i) * hi ** (m - i) * cm
        coeffs = rp.trim(density)
        if not coeffs:
            continue
        if pieces and pieces[-1][0] == hi and pieces[-1][2] == coeffs:
            pieces[-1] = (lo, pieces[-1][1], coeffs)
        else:
            pieces.append((lo, hi, coeffs))
    return DHMeasure(tuple(sorted(atoms)), tuple(reversed(pieces)))


def e_na(f: PLConcave) -> Fraction:
    """Monge-Ampere energy: the mean (1/vol) int_P f dx, int_P a0 plus int_R (a - a0)
    per region R other than a0's, where a cleared row G over q integrates on a
    record to <G, moment> / ((n+1) unit q D)."""
    a0, others, *_ = f._split()
    P, n, (G0, q0), total = f.domain, f.domain.dim, a0.cleared, Fraction(0)
    for R, a in ((P, a0),) + others:
        rec, (G, q) = _record(R), a.cleared
        if R is not P:  # a - a0 is q0 (g, c) - q (g0, c0) over q q0
            G, q = [q0 * x - q * y for x, y in zip(G, G0)], q * q0
        total += Fraction(sum(map(mul, G, rec.moment)), (n + 1) * rec.unit * q * rec.rows[0][-1])
    return total / volume(P)


def j_na(f: PLConcave) -> Fraction:
    """max_P f minus the mean; >= 0, zero iff f is constant."""
    return f.max_value() - e_na(f)


def d_na(f: PLConcave) -> Fraction:
    """Ding invariant f(0) - mean; the origin must be interior."""
    P = f.domain
    # <n, 0> = 0 < r on every facet
    if not all(r > 0 for _, r in P.facets):
        raise ValueError("Ding invariant needs the origin interior to the domain")
    return min(a.constant for a in f.affines) - e_na(f)  # f(0), each a(0) its constant


def inner_product(f: PLConcave, rho: Sequence) -> Fraction:
    """(1/vol) int_P f(x) <rho, x - b> dx, exact: int_P a0 <rho, x - b> plus
    int_R (a - a0) <rho, x - b> per region R other than a0's."""
    P = f.domain
    if len(rho) != P.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    tilt = _centred(P, rho)
    a0, others, *_ = f._split()
    total = integrate_product(P, a0, tilt) + sum(_signed_product(R, a, a0, tilt) for R, a in others)
    return total / volume(P)


def d_z_na(f: PLConcave, ext: ExtremalData) -> Fraction:
    """Relative (Berman-)Ding invariant: d_na(f) + (1/vol) int f theta."""
    return d_na(f) + inner_product(f, ext.theta.gradient)


def outside_calibrated_regime(f: PLConcave) -> bool:
    """Flag min f < f(0) - 1, where the origin-localized Ding term is uncharted."""
    return f.min_value() < min(a.constant for a in f.affines) - 1
