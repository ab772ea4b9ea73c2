"""Finite-level lattice enumeration: the discrete oracle.

Sections of the k-th power correspond to lattice points of kP; a toric
test-configuration filters them by jumping numbers floor(k f(u/k)).
The resulting normalized weight measures, their moments, the discrete
weight-pairing sum and the dimension-counting distribution function all
converge to the exact quantities computed elsewhere, which makes this
module an independent check on every limit formula.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mul
from typing import Sequence

from .errors import DimensionMismatch, EmptyPolytope, InputTooLarge
from .functionals import PLConcave, _domain_base
from .geometry import HPolytope, _frac, facets_from_vertices, vertices, volume

# Refuse a level whose estimated point count vol(P) k^n exceeds this; its
# points and weights alone would take about 2 GB.
MAX_LATTICE_POINTS = 10**7


def lattice_points(P, k: int) -> list[tuple[int, ...]]:
    """All integer points of the dilate kP, in lexicographic order."""
    points: list[tuple[int, ...]] = []
    for prefix, xs in _fibers(_domain_base(P), k):
        points.extend(zip(*map(repeat, prefix), xs))
    return points


@lru_cache(maxsize=16)
def _fiber_rows(base: HPolytope):
    """Per coordinate i, the rows that bound u_i once u_0..u_{i-1} are fixed.

    Level i holds the facets <a, x> <= num/d of the projection of base
    onto coordinates 0..i, the hull of its projected vertices, whose i-th
    coefficient is nonzero, as (d a_0..d a_{i-1}, d |a_i|, num), split
    into upper bounds (a_i > 0) and lower bounds (a_i < 0).  Facets with
    a zero i-th coefficient hold on the projection onto 0..i-1, which the
    outer levels enforce.
    """
    verts = vertices(base)
    levels = []
    for i in range(base.dim):
        upper, lower = [], []
        for n, r in facets_from_vertices([v[:i + 1] for v in verts]).facets:
            if n[i]:
                row = (tuple(r.denominator * a for a in n[:i]), r.denominator * abs(n[i]),
                       r.numerator)
                (upper if n[i] > 0 else lower).append(row)
        levels.append((tuple(upper), tuple(lower)))
    return tuple(levels)


def _fibers(base: HPolytope, k: int) -> list[tuple[tuple[int, ...], range]]:
    """(prefix, xs): the lattice points prefix + (x,), x in xs, of kP.

    The prefixes come in lexicographic order.  Each coordinate runs over
    the integers that the rows of its level allow, in integer arithmetic:
    d <a, u> <= k num.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vol = volume(base)
    if vol == 0:
        # vol k^n would be 0 however many points a lower-dimensional P has
        raise EmptyPolytope("lattice points need a full-dimensional polytope; P has volume 0")
    estimate = vol * k**base.dim
    if estimate > MAX_LATTICE_POINTS:
        raise InputTooLarge(
            f"k = {k}: about {round(estimate)} lattice points in kP, "
            f"above the limit of {MAX_LATTICE_POINTS}")

    def interval(prefix, upper, lower) -> range:
        hi = min((k * num - sum(map(mul, pre, prefix))) // c for pre, c, num in upper)
        lo = max(-((k * num - sum(map(mul, pre, prefix))) // c) for pre, c, num in lower)
        return range(lo, hi + 1)

    *outer, (upper, lower) = _fiber_rows(base)
    prefixes: list[tuple[int, ...]] = [()]
    for up, low in outer:
        prefixes = [p + (x,) for p in prefixes for x in interval(p, up, low)]
    return [(p, xs) for p in prefixes if (xs := interval(p, upper, lower))]


class _Level(Mapping):
    """Read-only u -> weight mapping of one level, stored per fiber as
    (prefix, xs, weights): the points prefix + (x,), x in xs, in
    lexicographic order."""

    def __init__(self, fibers) -> None:
        self.fibers = fibers
        self._len = sum(len(xs) for _, xs, _ in fibers)
        self._by_prefix = {prefix: (xs, ws) for prefix, xs, ws in fibers}

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for prefix, xs, _ in self.fibers:
            yield from zip(*map(repeat, prefix), xs)

    def __getitem__(self, u):
        xs, ws = self._by_prefix.get(tuple(u[:-1]), ((), ()))
        if not u or u[-1] not in xs:
            raise KeyError(u)
        return ws[xs.index(u[-1])]


@lru_cache(maxsize=1)
def jump_weights(f: PLConcave, k: int) -> Mapping[tuple[int, ...], int]:
    """u -> floor(k * f(u/k)) over the lattice points of the dilated domain,
    as a read-only mapping in lexicographic order, stored per fiber."""
    # k f(u/k) = min_j (<g_j, u> + k c_j) = min_j (<G_j, u> + C_j) / D over
    # one common denominator D, so the floor is an integer division.  Along
    # a fiber, piece j runs through the progression <G_j, prefix> + C_j +
    # G_j[-1] x.
    consts = [k * a.constant for a in f.affines]
    D = math.lcm(*(g.denominator for a in f.affines for g in a.gradient),
                 *(c.denominator for c in consts))
    pieces = [(tuple(int(g * D) for g in a.gradient), int(c * D))
              for a, c in zip(f.affines, consts)]
    fibers = []
    for prefix, xs in _fibers(f.domain, k):
        lines = []
        for G, C in pieces:
            at0, s = sum(map(mul, G, prefix)) + C, G[-1]
            lines.append(range(at0 + s * xs.start, at0 + s * xs.stop, s) if s
                         else repeat(at0, len(xs)))
        ws = map(min, *lines) if len(lines) > 1 else lines[0]
        fibers.append((prefix, xs, tuple(map(floordiv, ws, repeat(D)) if D > 1 else ws)))
    return _Level(tuple(fibers))


@dataclass(frozen=True)
class WeightMeasure:
    """Normalized counting measure of jumping numbers at level k."""

    k: int
    entries: tuple[tuple[Fraction, int], ...]  # (location mu/k, multiplicity)
    N_k: int

    def mass(self) -> Fraction:
        return Fraction(sum(m for _, m in self.entries), self.N_k)

    def moment(self, d: int) -> Fraction:
        q = math.lcm(*(loc.denominator for loc, _ in self.entries))
        total = sum(m * (loc.numerator * (q // loc.denominator)) ** d for loc, m in self.entries)
        return Fraction(total, self.N_k * q**d)

    def mean(self) -> Fraction:
        return self.moment(1)

    def second_moment(self) -> Fraction:
        return self.moment(2)

    def max_support(self) -> Fraction:
        return max(loc for loc, _ in self.entries)


def weight_measure(f: PLConcave, k: int) -> WeightMeasure:
    level = jump_weights(f, k)
    counts: Counter[int] = Counter()
    for _, _, ws in level.fibers:
        counts.update(ws)
    entries = tuple((Fraction(mu, k), m) for mu, m in sorted(counts.items()))
    return WeightMeasure(k=k, entries=entries, N_k=len(level))


def gabor_inner(f: PLConcave, rho: Sequence[int], k: int) -> Fraction:
    """Discrete weight pairing of f with the lattice direction rho.

    (1/k^2 N) sum mu(u) <rho,u>  -  (1/k^2 N^2)(sum mu(u))(sum <rho,u>);
    converges to inner_product(f, rho).
    """
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    if any(int(r) != _frac(r) for r in rho):
        raise ValueError("gabor_inner needs an integer direction rho")
    *head, last = (int(r) for r in rho)
    level = jump_weights(f, k)
    N = len(level)
    s_mu = s_nu = s_cross = 0
    for prefix, xs, ws in level.fibers:
        # <rho, u> = <head, prefix> + last x; a fiber's xs sum to n (first + last) / 2
        at0, n, w = sum(map(mul, head, prefix)), len(xs), sum(ws)
        s_mu += w
        s_nu += n * at0 + last * n * (xs.start + xs[-1]) // 2
        s_cross += at0 * w + last * sum(map(mul, xs, ws))
    return Fraction(s_cross, k * k * N) - Fraction(s_mu * s_nu, k * k * N * N)


def vol_distribution(f: PLConcave, k: int, lam) -> Fraction:
    """(1/N_k) #{u : mu(u) >= ceil(k lam)}: the discrete distribution function."""
    lam = _frac(lam)
    cut = math.ceil(k * lam)
    level = jump_weights(f, k)
    hits = sum(w >= cut for _, _, ws in level.fibers for w in ws)
    return Fraction(hits, len(level))
