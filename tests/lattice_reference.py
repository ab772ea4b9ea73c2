"""Per-point references for the lattice oracle.

The library keeps only a level's totals.  These helpers visit every
lattice point u of kP and take its jumping number
floor(k f(u/k)) = floor(min_j (<g_j, u> + k c_j)) one point at a time,
so tests can check the totals, and the limits they converge to, against
a direct count.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul

from toricding.functionals import _domain_base
from toricding.lattice import _fibers


def lattice_points(P, k: int) -> list[tuple[int, ...]]:
    """All integer points of the dilate kP, in lexicographic order, read off
    the library's fibers (tests compare them with a box scan)."""
    base = _domain_base(P)
    points: list[tuple[int, ...]] = []
    for q, ys, lo, hi in _fibers(base, k):
        for y, a, b in zip(ys, lo, hi):
            points.extend(zip(*map(repeat, (*q, y)[:base.dim - 1]), range(-a, b + 1)))
    return points


@lru_cache(maxsize=32)
def jump_counts(f, k: int) -> tuple[Counter, int]:
    """mu -> number of points u of kP with floor(k f(u/k)) = mu, and N_k.

    Each point takes floor(min_j (<g_j, u> + k c_j)) in integers, every
    piece scaled by one common denominator D.
    """
    D = math.lcm(*(x.denominator for a in f.affines for x in (*a.gradient, k * a.constant)))
    rows = [([int(g * D) for g in a.gradient], int(k * a.constant * D)) for a in f.affines]
    points = lattice_points(f.domain, k)
    return Counter(min(sum(map(mul, G, u)) + C for G, C in rows) // D
                   for u in points), len(points)


@dataclass(frozen=True)
class WeightMeasure:
    """Normalized counting measure of jumping numbers at level k."""

    entries: tuple[tuple[Fraction, int], ...]  # (location mu/k, multiplicity)
    N_k: int

    def mass(self) -> Fraction:
        return Fraction(sum(m for _, m in self.entries), self.N_k)

    def moment(self, d: int) -> Fraction:
        return sum(m * loc**d for loc, m in self.entries) / self.N_k

    def mean(self) -> Fraction:
        return self.moment(1)

    def second_moment(self) -> Fraction:
        return self.moment(2)

    def max_support(self) -> Fraction:
        return max(loc for loc, _ in self.entries)


def weight_measure(f, k: int) -> WeightMeasure:
    counts, N = jump_counts(f, k)
    return WeightMeasure(tuple((Fraction(mu, k), m) for mu, m in sorted(counts.items())), N)


def vol_distribution(f, k: int, lam) -> Fraction:
    """(1/N_k) #{u : mu(u) >= ceil(k lam)}: the discrete distribution function."""
    counts, N = jump_counts(f, k)
    cut = math.ceil(k * Fraction(lam))
    return Fraction(sum(m for mu, m in counts.items() if mu >= cut), N)
