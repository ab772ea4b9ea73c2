"""Finite-level lattice brute force: the discrete oracle.

Sections of the k-th power correspond to lattice points of kP; a toric
test-configuration filters them by jumping numbers floor(k f(u/k)).
The resulting normalized weight measures, their moments, the discrete
weight-pairing sum and the dimension-counting distribution function all
converge to the exact quantities computed elsewhere, which makes this
module an independent check on every limit formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch
from .extremal import FanoPolytope
from .functionals import PLConcave
from .geometry import HPolytope, _frac, vertices


def _base(P) -> HPolytope:
    return P.base if isinstance(P, FanoPolytope) else P


def lattice_points(P, k: int) -> list[tuple[int, ...]]:
    """All integer points of the dilate kP, in lexicographic order."""
    return list(_lattice_points(_base(P), k))


@lru_cache(maxsize=None)
def _lattice_points(base: HPolytope, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 1:
        raise ValueError("k must be >= 1")
    verts = vertices(base)
    lo = [math.ceil(k * min(v[i] for v in verts)) for i in range(base.dim)]
    hi = [math.floor(k * max(v[i] for v in verts)) for i in range(base.dim)]
    # integerized test: den(r) <n,u> <= k num(r)
    rows = [(n, r.denominator, k * r.numerator) for n, r in base.facets]
    out = []
    for u in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(d * sum(n[i] * u[i] for i in range(len(u))) <= kr for n, d, kr in rows):
            out.append(u)
    return tuple(out)


def jump_weights(f: PLConcave, k: int) -> dict[tuple[int, ...], int]:
    """u -> floor(k * f(u/k)) over the lattice points of the dilated domain."""
    return dict(_jump_weights(f, k))


@lru_cache(maxsize=None)
def _jump_weights(f: PLConcave, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # k f(u/k) = min_j (<g_j, u> + k c_j); evaluate each piece as one big
    # integer dot over a cleared denominator
    pieces = []
    for a in f.affines:
        kc = k * a.constant
        denom = math.lcm(*(g.denominator for g in a.gradient), kc.denominator)
        ints = [int(g * denom) for g in a.gradient]
        pieces.append((ints, int(kc * denom), denom))
    out = []
    for u in _lattice_points(f.domain, k):
        best = None
        for ints, const, denom in pieces:
            val = Fraction(sum(g * c for g, c in zip(ints, u)) + const, denom)
            if best is None or val < best:
                best = val
        out.append((u, math.floor(best)))
    return tuple(out)


@dataclass(frozen=True)
class WeightMeasure:
    """Normalized counting measure of jumping numbers at level k."""

    k: int
    entries: tuple[tuple[Fraction, int], ...]  # (location mu/k, multiplicity)
    N_k: int

    def mass(self) -> Fraction:
        return Fraction(sum(m for _, m in self.entries), self.N_k)

    def moment(self, d: int) -> Fraction:
        return sum((Fraction(m) * loc**d for loc, m in self.entries), Fraction(0)) / self.N_k

    def mean(self) -> Fraction:
        return self.moment(1)

    def second_moment(self) -> Fraction:
        return self.moment(2)

    def max_support(self) -> Fraction:
        return max(loc for loc, _ in self.entries)


def weight_measure(f: PLConcave, k: int) -> WeightMeasure:
    weights = jump_weights(f, k)
    counts: dict[Fraction, int] = {}
    for mu in weights.values():
        loc = Fraction(mu, k)
        counts[loc] = counts.get(loc, 0) + 1
    return WeightMeasure(k=k, entries=tuple(sorted(counts.items())), N_k=len(weights))


def gabor_inner(f: PLConcave, rho: Sequence[int], k: int) -> Fraction:
    """Discrete weight pairing of f with the lattice direction rho.

    (1/k^2 N) sum mu(u) <rho,u>  -  (1/k^2 N^2)(sum mu(u))(sum <rho,u>);
    converges to inner_product(f, rho).
    """
    base = _base(f.domain)
    if len(rho) != base.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    if any(int(r) != _frac(r) for r in rho):
        raise ValueError("gabor_inner needs an integer direction rho")
    rho = [int(r) for r in rho]
    weights = jump_weights(f, k)
    N = len(weights)
    s_mu = 0
    s_nu = 0
    s_cross = 0
    for u, mu in weights.items():
        nu = sum(r * c for r, c in zip(rho, u))
        s_mu += mu
        s_nu += nu
        s_cross += mu * nu
    return Fraction(s_cross, k * k * N) - Fraction(s_mu * s_nu, k * k * N * N)


def vol_distribution(f: PLConcave, k: int, lam) -> Fraction:
    """(1/N_k) #{u : mu(u) >= ceil(k lam)}: the discrete distribution function."""
    lam = _frac(lam)
    cut = math.ceil(k * lam)
    weights = jump_weights(f, k)
    hits = sum(1 for mu in weights.values() if mu >= cut)
    return Fraction(hits, len(weights))
