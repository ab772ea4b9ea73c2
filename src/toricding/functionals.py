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
from math import comb, gcd, lcm
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
        """The number of distinct vertices of the linearity regions: the blocks' primitive rows."""
        return len({_divided(row) for rows, *_ in self._blocks() for row in rows})

    def _split(self):
        """(a0, the regions but a0's R0, (Q f at P's vertices, Q), mean, all regions)."""
        return _region_subdivision_cached(self.domain, self.affines)

    def _blocks(self):
        """[(rows (D v, D), V, Qb)] with f = V / Qb at each row: P's vertices, then each
        region but R0 with its piece.  Regions meet face to face (R & R' = R & {a = a'}), so a
        vertex of R0 not of P, which R0 alone does not surround in P, lies in another region R
        and is a vertex of its face R0 & R: the rows hold every vertex of every region."""
        _, others, (low, Q), *_ = self._split()
        return [(_record(self.domain).rows, low, Q)] + [
            (_record(R).rows, *_values(R, a)) for R, a in others]

    def max_value(self) -> Fraction:
        # each region's affine is largest at one of its vertices
        return max(Fraction(max(V), Qb) for _, V, Qb in self._blocks())

    def min_value(self) -> Fraction:
        low, Q = self._split()[2]
        return Fraction(min(low), Q)


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


def _partial_fractions(tau: int, knots: Counter, n: int) -> tuple[list[int], int]:
    """(w, p_0^r): knot tau, of multiplicity r = knots[tau], adds w_m / p_0^r (tau - z)_+^m
    to [knots](. - z)_+^(n-1), w_(n-1-j) = C(n-1, j) e_(r-1-j) p_0^j for j < r, where
    e_k / p_0^(k+1) are the Taylor coefficients at tau of 1/p, p = prod_{t != tau} (z - t)^knots[t]
    = sum_i p_i (z - tau)^i in integers: e_0 = 1, e_k = -sum_{i=1..k} p_i e_(k-i) p_0^(i-1)."""
    r = knots[tau]
    p = [1] + [0] * (r - 1)
    for t in knots.elements():
        if t != tau:
            p = [(tau - t) * c + (p[k - 1] if k else 0) for k, c in enumerate(p)]
    e = [1]
    for k in range(1, r):
        e.append(-sum(p[i] * e[k - i] * p[0] ** (i - 1) for i in range(1, k + 1)))
    return [0] * (n - r) + [comb(n - 1, j) * e[r - 1 - j] * p[0] ** j
                            for j in reversed(range(r))], p[0] ** r


def _add(acc: dict, key: int, nums: list[int], d: int) -> None:
    """acc[key] += nums / d in integers, acc[key] = [D, numerators], rescaled to lcm(D, d)."""
    entry = acc.setdefault(key, [d] + [0] * len(nums))
    if entry[0] % d:
        k = d // gcd(entry[0], d)
        entry[:] = [x * k for x in entry]
    s = entry[0] // d
    entry[1:] = [y + x * s for y, x in zip(entry[1:], nums)]


def dh_measure(f: PLConcave) -> DHMeasure:
    """Exact pushforward of Lebesgue/vol(P) under f.

    A constant region is an atom, a constant a0's of volume vol(P) minus the
    other regions' (no record of R0).  On a non-constant region, f = T / Q at
    its vertices, T = <q (g, c), (D v, D)> integers and Q = q D, and a
    simplex s pushes forward to vol(s) n Q [T_s](. - Q lambda)_+^(n-1), the
    divided difference over its knots T_s (Curry-Schoenberg), split per knot by
    partial fractions and summed per knot tau in integers.  With L the lcm of the
    regions' Q and t = L/Q, (tau - Q lambda)^m = (K - L lambda)^m / t^m on the
    integer grid K = tau t, where all regions' knots merge; one sweep from the top
    knot down, over one common denominator, gives the density between knots.
    """
    n, vol = f.domain.dim, volume(f.domain)
    a0, others, *_ = f._split()
    mass = a0.is_constant and vol - sum(volume(R) for R, _ in others)
    regions = others if a0.is_constant else f.regions()
    atoms = [(a0.constant, mass / vol)] * bool(mass) + [
        (a.constant, volume(R) / vol) for R, a in regions if a.is_constant]
    sloped = [(_record(R), *_values(R, a)) for R, a in regions if not a.is_constant]
    L = lcm(*(Q for *_, Q in sloped))
    knots: dict[int, list] = {}  # K -> [D, w_m]: (K - L lambda)_+^m weighs n w_m / (D vol)
    for rec, value, Q in sloped:
        local: dict[int, list] = {}
        for s, det in rec.simplices:
            mult = Counter(value[k] for k in s)
            for tau in mult:
                w, d = _partial_fractions(tau, mult, n)
                _add(local, tau, [det * x for x in w], d)
        t = L // Q
        for tau, (d, *w) in local.items():
            _add(knots, tau * t, [x * Q * t ** (n - 1 - m) for m, x in enumerate(w)],
                 d * rec.unit * t ** (n - 1))
    D = lcm(*(d for d, *_ in knots.values()))
    pieces, density = [], [0] * n
    cuts = sorted(knots, reverse=True)
    for hi, lo in zip(cuts, cuts[1:]):
        # w (hi - L lambda)^m = sum_i w C(m, i) hi^(m-i) (-L lambda)^i
        d, *w = knots[hi]
        for m, wm in ((m, wm * (D // d)) for m, wm in enumerate(w) if wm):
            for i in range(m + 1):
                density[i] += comb(m, i) * hi ** (m - i) * wm
        coeffs = rp.trim(density)
        if pieces and pieces[-1][0] == hi and pieces[-1][2] == coeffs:
            pieces[-1][0] = lo
        elif coeffs:  # an interval of zero density is no piece and parts its neighbours
            pieces.append([lo, hi, coeffs])
    # the density is n w / (D vol), w (-L)^i the coefficient of lambda^i
    return DHMeasure(tuple(sorted(atoms)), tuple((Fraction(lo, L), Fraction(hi, L), tuple(
        Fraction(n * vol.denominator * (-L) ** i * w, D * vol.numerator)
        for i, w in enumerate(coeffs)))
        for lo, hi, coeffs in reversed(pieces)))


def e_na(f: PLConcave) -> Fraction:
    """Monge-Ampere energy: the mean (1/vol) int_P f dx, read from the cached split (_mean)."""
    return f._split()[3]


def j_na(f: PLConcave) -> Fraction:
    """max_P f minus the mean; >= 0, zero iff f is constant."""
    return f.max_value() - e_na(f)


def d_na(f: PLConcave) -> Fraction:
    """Ding invariant f(0) - mean; the origin must be interior."""
    P = f.domain
    # <a, 0> = 0 < b on every facet
    if not all(row[-1] > 0 for row in P.facets):
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
