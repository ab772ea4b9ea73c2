"""Toric test-configurations and their non-Archimedean functionals.

A toric test-configuration is a rational piecewise-linear concave
function f = min(affines) on the moment polytope.  Its Duistermaat-
Heckman measure is the pushforward of normalized Lebesgue measure
under f, computed exactly: linearity regions with constant value
contribute atoms, the others contribute piecewise-polynomial density
of degree <= n-1: the sum over the simplices of each region of the
B-splines whose knots are the values of f at the simplex vertices
(Curry-Schoenberg).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import rationalpoly as rp
from .errors import DimensionMismatch, InternalError
from .extremal import ExtremalData, FanoPolytope
from .geometry import (
    AffineFn,
    HPolytope,
    Point,
    _frac,
    _record,
    barycenter,
    integrate_product,
    region_subdivision as _region_subdivision,
    vertices,
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

    def pruned(self) -> "PLConcave":
        """Drop affines that are nowhere active on a full-dimensional region."""
        active = tuple(a for _, a in self.regions())
        return PLConcave(active, self.domain)

    def subdivision_vertices(self) -> tuple[Point, ...]:
        vs: set[Point] = set()
        for R, _ in self.regions():
            vs.update(vertices(R))
        return tuple(sorted(vs))

    def max_value(self) -> Fraction:
        # on each region f is that region's affine
        return max(a(v) for R, a in self.regions() for v in vertices(R))

    def min_value(self) -> Fraction:
        return min(self(v) for v in vertices(self.domain))


@dataclass(frozen=True)
class DHMeasure:
    """Probability measure on the line: atoms plus polynomial density pieces.

    atoms: ((location, mass), ...) sorted by location, masses > 0.
    pieces: ((lo, hi, coeffs), ...) disjoint intervals sorted by lo,
    coeffs ascending-degree Fraction tuples.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    pieces: tuple[tuple[Fraction, Fraction, tuple[Fraction, ...]], ...]

    @staticmethod
    def build(atoms, pieces) -> "DHMeasure":
        merged: dict[Fraction, Fraction] = {}
        for loc, mass in atoms:
            merged[loc] = merged.get(loc, Fraction(0)) + mass
        atom_t = tuple(sorted((l, m) for l, m in merged.items() if m != 0))
        piece_t = _canonical_pieces(pieces)
        measure = DHMeasure(atom_t, piece_t)
        measure._validate()
        return measure

    def _validate(self) -> None:
        # densities are non-negative by construction: positively weighted
        # B-splines, or the closed form of normalcone.dh_closed_form
        for _, mass in self.atoms:
            if mass < 0:
                raise InternalError(f"negative atom mass {mass}")
        for lo, hi, _ in self.pieces:
            if not lo < hi:
                raise InternalError("empty density interval")

    def total_mass(self) -> Fraction:
        mass = sum((m for _, m in self.atoms), Fraction(0))
        for lo, hi, coeffs in self.pieces:
            mass += rp.integrate(coeffs, lo, hi)
        return mass

    def moment(self, d: int) -> Fraction:
        val = sum((m * loc**d for loc, m in self.atoms), Fraction(0))
        for lo, hi, coeffs in self.pieces:
            weighted = tuple([Fraction(0)] * d + list(coeffs))  # lambda^d * density
            val += rp.integrate(weighted, lo, hi)
        return val

    def mean(self) -> Fraction:
        return self.moment(1)

    def second_moment(self) -> Fraction:
        return self.moment(2)

    def max_support(self) -> Fraction:
        candidates = [loc for loc, _ in self.atoms] + [hi for _, hi, _ in self.pieces]
        return max(candidates)

    def upper_mass(self, lam) -> Fraction:
        """Mass of [lam, +inf): the complementary distribution function."""
        lam = _frac(lam)
        mass = sum((m for loc, m in self.atoms if loc >= lam), Fraction(0))
        for lo, hi, coeffs in self.pieces:
            if hi <= lam:
                continue
            mass += rp.integrate(coeffs, max(lo, lam), hi)
        return mass


def _canonical_pieces(pieces):
    """Refine on common breakpoints, sum overlaps, merge equal neighbours.

    One sweep over the breakpoints: each piece adds its coefficients at
    lo and subtracts them at hi, and the running sum is the density.
    """
    delta: dict[Fraction, rp.Poly] = {}
    for lo, hi, coeffs in pieces:
        delta[lo] = rp.add(delta.get(lo, ()), coeffs)
        delta[hi] = rp.add(delta.get(hi, ()), rp.scale(coeffs, -1))
    cuts = sorted(delta)
    merged = []
    total: rp.Poly = ()
    for lo, hi in zip(cuts, cuts[1:]):
        total = rp.add(total, delta[lo])
        if not total:
            continue
        if merged and merged[-1][1] == lo and merged[-1][2] == total:
            merged[-1] = (merged[-1][0], hi, total)
        else:
            merged.append((lo, hi, total))
    return tuple(merged)


def dh_measure(f: PLConcave) -> DHMeasure:
    """Exact pushforward of Lebesgue/vol(P) under f.

    Each simplex s of a non-constant region R adds vol(s)/vol(P) times
    the B-spline with knots f(vertices of s); DHMeasure.build sums them.
    """
    vol = volume(f.domain)
    atoms = []
    pieces = []
    for R, a in f.regions():
        if a.is_constant:
            atoms.append((a.constant, volume(R) / vol))
            continue
        value = [a(w) for w in vertices(R)]
        rec = _record(R)
        for s, det in rec.simplices:
            pieces.extend((lo, hi, rp.scale(coeffs, Fraction(det, rec.unit) / vol))
                          for lo, hi, coeffs in rp.bspline([value[k] for k in s]))
    return DHMeasure.build(atoms, pieces)


def e_na(f: PLConcave) -> Fraction:
    """Monge-Ampere energy: the mean (1/vol) int_P f dx."""
    total = Fraction(0)
    for R, a in f.regions():
        total += volume(R) * a(barycenter(R))
    return total / volume(f.domain)


def j_na(f: PLConcave) -> Fraction:
    """max_P f minus the mean; >= 0, zero iff f is constant."""
    return f.max_value() - e_na(f)


def d_na(f: PLConcave) -> Fraction:
    """Ding invariant f(0) - mean; the origin must be interior."""
    P = f.domain
    # <n, 0> = 0 < r on every facet
    if not all(r > 0 for _, r in P.facets):
        raise ValueError("Ding invariant needs the origin interior to the domain")
    return f((Fraction(0),) * P.dim) - e_na(f)


def inner_product(f: PLConcave, rho: Sequence) -> Fraction:
    """(1/vol) int_P f(x) <rho, x - b> dx, exact."""
    P = f.domain
    if len(rho) != P.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    b = barycenter(P)
    shift = -sum((_frac(r) * bi for r, bi in zip(rho, b)), Fraction(0))
    tilt = AffineFn(tuple(_frac(r) for r in rho), shift)
    total = Fraction(0)
    for R, a in f.regions():
        total += integrate_product(R, a, tilt)
    return total / volume(P)


def d_z_na(f: PLConcave, ext: ExtremalData) -> Fraction:
    """Relative (Berman-)Ding invariant: d_na(f) + (1/vol) int f theta."""
    return d_na(f) + inner_product(f, ext.theta.gradient)


def outside_calibrated_regime(f: PLConcave) -> bool:
    """Flag configurations where the origin-localized Ding term is uncharted."""
    P = f.domain
    origin = (Fraction(0),) * P.dim
    return f.min_value() < f(origin) - 1
