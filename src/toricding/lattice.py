"""Finite-level lattice sums: the discrete oracle.

Sections of the k-th power correspond to lattice points of kP; a toric
test-configuration filters them by jumping numbers floor(k f(u/k)).  The
moments of the resulting weight measure and the discrete weight pairing
converge to the exact quantities computed elsewhere, which makes this
module an independent check on the limit formulas.  A level is its totals
(N_k, sum mu, sum mu^2, sum u, sum mu u), summed fiber by fiber with one
floor sum per run of constant slope; no point is visited.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, mul
from typing import Sequence

from .errors import DimensionMismatch, EmptyPolytope, InputTooLarge
from .functionals import PLConcave
from .geometry import HPolytope, _extreme_rays, _frac, _record, volume

# Refuse a level whose estimated point count vol(P) k^n exceeds this.  A
# level visits fibers, not points; the bound stays, as raising it would
# change which inputs are refused.
MAX_LATTICE_POINTS = 10**7


@lru_cache(maxsize=16)
def _fiber_rows(base: HPolytope):
    """Per coordinate i, the rows that bound u_i once u_0..u_{i-1} are fixed.

    Level i holds integer rows (a_0..a_i, b), <a, x> <= b, that hold on the
    projection of base onto coordinates 0..i and whose i-th coefficient is
    nonzero, as (a_0..a_{i-1}, |a_i|, b), split into upper bounds (a_i > 0)
    and lower bounds (a_i < 0).  Rows with a zero i-th coefficient hold on
    the projection onto 0..i-1, which the outer levels enforce.  The last
    level reads base's own facet rows as they are; a redundant row is a
    valid bound too.  A lower level takes the facets of the hull of the
    projected lifted rows (D v, D) of base's vertices: the primitive
    extreme rays (a, b) of {(a, b) : <a, D v> <= b D}.
    """
    rows = _record(base).rows
    levels = [_extreme_rays(list(dict.fromkeys(row[:i + 1] + (-row[-1],) for row in rows)))[0]
              for i in range(base.dim - 1)] + [base.facets]
    return tuple((tuple((y[:i], y[i], y[-1]) for y in level if y[i] > 0),
                  tuple((y[:i], -y[i], y[-1]) for y in level if y[i] < 0))
                 for i, level in enumerate(levels))


def _fibers(base: HPolytope, k: int):
    """(q, ys, lo, hi) per parent prefix q of the last outer coordinate, in
    lexicographic order: the points of kP are q + (y, x), y in ys, with
    -lo_y <= x <= hi_y, for lo and hi lazy maps along ys.  Dim 1 has one
    parent, q = (), ys = range(1), and its fiber prefix (q + (y,))[:0] = ().

    Each coordinate runs over the integers that the rows of its level allow,
    in integer arithmetic: d <a, u> <= k num.  Along the previous coordinate
    each row's bound is an integer progression: one map per row and parent.
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

    def bounds(rows, q, ys):
        # min over rows of (k num - <pre, q + (y,)>) // c, for y in ys
        its = []
        for (*pre, t), c, num in rows:
            v = k * num - sum(map(mul, pre, q)) - t * ys.start
            its.append(map(floordiv, range(v, v - t * len(ys), -t), repeat(c)) if t
                       else repeat(v // c, len(ys)))
        return map(min, *its) if len(its) > 1 else its[0]

    (upper, lower), *levels = _fiber_rows(base)
    lo0, hi0 = (min(k * num // c for _, c, num in rows) for rows in (lower, upper))
    if not levels:
        yield (), range(1), (lo0,), (hi0,)
        return
    *levels, (upper, lower) = levels
    parents = [((), range(-lo0, hi0 + 1))]
    for up, low in levels:
        parents = [(q + (y,), range(-lo, hi + 1)) for q, ys in parents
                   for y, lo, hi in zip(ys, bounds(low, q, ys), bounds(up, q, ys))]
    for q, ys in parents:
        yield q, ys, bounds(lower, q, ys), bounds(upper, q, ys)


def _floor_sums(n: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """(sum y_i, sum i y_i, sum y_i^2) over i in range(n), y_i = (a i + b) // c.

    Any integers a, b and c > 0.  Writing a = qa c + a', b = qb c + b'
    with 0 <= a', b' < c splits off y_i = qa i + qb + (a' i + b') // c;
    the rest counts, for each j below its largest value m, the i with
    a' i + b' >= c (j + 1), which is the same sum with a' and c swapped
    (AtCoder Library's floor_sum, extended to the two second moments).
    """
    if n <= 0:
        return 0, 0, 0
    qa, a = divmod(a, c)
    qb, b = divmod(b, c)
    m = (a * (n - 1) + b) // c
    f = g = h = 0
    if m:
        # y_i = #{j in [0, m) : i > t_j}, t_j = (c j + c - b - 1) // a
        tf, tg, th = _floor_sums(m, c, c - b - 1, a)
        f = (n - 1) * m - tf
        g = (m * n * (n - 1) - th - tf) // 2
        h = (n - 1) * m * m - 2 * tg - tf
    s1 = n * (n - 1) // 2
    s2 = s1 * (2 * n - 1) // 3
    return (f + qa * s1 + qb * n,
            g + qa * s2 + qb * s1,
            h + 2 * qa * g + 2 * qb * f + qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n)


def _envelope(lines, lo: int, hi: int) -> tuple[tuple[int, int, int, int], ...]:
    """Runs (A, s, x0, x1) of the lower envelope of the lines A + s x, of
    distinct slopes s in increasing order, over the integers lo..hi: they
    partition lo..hi in order, and on x0..x1 the minimum is A + s x.

    At lo the run takes the smallest line, of the smallest slope among
    ties, and ends at the last x before a line of smaller slope crosses
    below it; only those lines are left for the next run.
    """
    runs = []
    while len(lines) > 1:
        _, i = min((A + s * lo, i) for i, (A, s) in enumerate(lines))
        A, s = lines[i]
        end = min([(B - A) // (s - t) for B, t in lines[:i]], default=hi)
        if end >= hi:
            return (*runs, (A, s, lo, hi))
        runs.append((A, s, lo, end))
        lines, lo = lines[:i], end + 1
    return (*runs, (*lines[0], lo, hi))


def jump_weights(f: PLConcave, k: int) -> tuple:
    """(N_k, sum mu, sum mu^2, sum u, sum mu u) over the lattice points u of
    the dilated domain, mu = floor(k f(u/k)); the last two are n-vectors."""
    # k f(u/k) = min_j (<g_j, u> + k c_j) = min_j (<G_j, u> + C_j) / D over
    # one common denominator D, and floor(min) = min(floor) as floor is
    # monotone.  Along the fiber q + (y,), piece j is the line A_j + s_j x,
    # A_j a progression along ys; each sloped run of their lower envelope is
    # one floor sum, and with one slope s_j the fiber is one run.
    n = f.domain.dim
    consts = [k * a.constant for a in f.affines]
    D = math.lcm(*(g.denominator for a in f.affines for g in a.gradient),
                 *(c.denominator for c in consts))
    # pieces of one slope s_j make lines of one slope: only the lowest counts
    by_slope: dict[int, list] = {}
    for a, c in zip(f.affines, consts):
        G = [int(g * D) for g in a.gradient]
        s = G.pop()
        by_slope.setdefault(s, []).append((G[:-1], G[-1] if G else 0, int(c * D)))
    slopes, groups = zip(*sorted(by_slope.items()))
    N = t_mu = t_mu2 = u_y = u_x = mu_y = mu_x = 0
    q_u, q_mu = [0] * (n - 2), [0] * (n - 2)
    for q, ys, lo, hi in _fibers(f.domain, k):
        lines = []
        for pieces in groups:
            its = []
            for G, b, C in pieces:
                A = sum(map(mul, G, q)) + b * ys.start + C
                its.append(range(A, A + b * len(ys), b) if b else repeat(A))
            lines.append(map(min, *its) if len(its) > 1 else its[0])
        N0, mu0 = N, t_mu
        for y, x0, x1, low in zip(ys, lo, hi, zip(*lines) if len(slopes) > 1 else lines[0]):
            x0 = -x0
            if x0 > x1:
                continue
            runs = (_envelope(list(zip(low, slopes)), x0, x1) if len(slopes) > 1
                    else ((low, slopes[0], x0, x1),))
            s_mu = s_xmu = s_mu2 = 0
            for A, s, r0, r1 in runs:
                m = r1 - r0 + 1
                if s:
                    f1, fx, f2 = _floor_sums(m, s, A + s * r0, D)
                else:
                    # a constant run: mu = A // D at each of its m points
                    v = A // D
                    f1, fx, f2 = m * v, v * m * (m - 1) // 2, m * v * v
                s_mu += f1
                s_xmu += r0 * f1 + fx
                s_mu2 += f2
            N += (m := x1 - x0 + 1)
            t_mu += s_mu
            t_mu2 += s_mu2
            u_y += y * m
            u_x += (x0 + x1) * m // 2
            mu_y += y * s_mu
            mu_x += s_xmu
        q_u[:] = map(add, q_u, (v * (N - N0) for v in q))
        q_mu[:] = map(add, q_mu, (v * (t_mu - mu0) for v in q))
    # q_u, q_mu sum q times each parent's N and sum mu; dim 1 drops its one y
    return N, t_mu, t_mu2, (*q_u, u_y, u_x)[-n:], (*q_mu, mu_y, mu_x)[-n:]


def level_moments(f: PLConcave, rho: Sequence[int], k: int) -> tuple:
    """(N_k, mean, second moment, pairing with the integer direction rho) of
    level k from one jump_weights call: sum mu / (k N_k), sum mu^2 / (k^2 N_k)
    and (1/k^2 N) <rho, sum mu u>  -  (1/k^2 N^2)(sum mu)<rho, sum u>, which
    converge to e_na(f), the DH second moment (1/vol) int_P f^2 and
    inner_product(f, rho).
    """
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    if any(int(r) != _frac(r) for r in rho):
        raise ValueError("level_moments needs an integer direction rho")
    N, s_mu, s_mu2, s_u, s_mu_u = jump_weights(f, k)
    s_nu, s_cross = (sum(map(mul, map(int, rho), t)) for t in (s_u, s_mu_u))
    return (N, Fraction(s_mu, k * N), Fraction(s_mu2, k * k * N),
            Fraction(s_cross, k * k * N) - Fraction(s_mu * s_nu, k * k * N * N))

