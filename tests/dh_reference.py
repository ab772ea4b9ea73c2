"""Reference DH measures.

reference_dh_measure sums Cox-de Boor B-splines per simplex and
canonicalises them: an independent route to what dh_measure computes from
truncated powers per knot.  It shares only the polytope kernel (regions,
simplices, volumes) with dh_measure, so the two agree only if the knot
coefficients are right.

fraction_dh_measure is dh_measure's own route, truncated powers per knot,
summed in Fractions per knot and per density coefficient: dh_measure sums
the same terms in integers over common denominators, so the two must agree
exactly.
"""

from collections import Counter
from fractions import Fraction
from math import comb

from toricding import rationalpoly as rp
from toricding.functionals import DHMeasure
from toricding.geometry import _record, _values, vertices, volume

from conftest import poly_add, poly_multiply, poly_scale


def bspline(knots):
    """Normalized B-spline M(x; t_0, ..., t_n): degree n-1, integral 1.

    By the Curry-Schoenberg theorem M is the density of the pushforward
    of the uniform probability measure on an n-simplex under an affine
    map sending its vertices to the knots.  Returns (lo, hi, coeffs) on
    each interval between consecutive distinct knots.  Cox-de Boor
    recursion in normalized form, with 0/0 = 0 so repeated knots need no
    special case:
        M[i,1] = 1 / (t[i+1] - t[i])  on [t[i], t[i+1])
        M[i,k] = k ((x - t[i]) M[i,k-1] + (t[i+k] - x) M[i+1,k-1])
                 / ((k-1) (t[i+k] - t[i]))
    """
    t = sorted(map(Fraction, knots))
    cuts = sorted(set(t))
    if len(cuts) < 2:
        raise ValueError("a B-spline needs two distinct knots")
    start = {u: j for j, u in enumerate(cuts)}
    empty = [()] * (len(cuts) - 1)
    M = []
    for lo, hi in zip(t, t[1:]):
        row = list(empty)
        if lo < hi:
            row[start[lo]] = (1 / (hi - lo),)
        M.append(row)
    for k in range(2, len(t)):
        level = []
        for i in range(len(t) - k):
            span = t[i + k] - t[i]
            if span == 0:
                level.append(empty)
                continue
            s = Fraction(k, k - 1) / span
            up, down = (-s * t[i], s), (s * t[i + k], -s)
            level.append([poly_add(poly_multiply(up, p), poly_multiply(down, q))
                          for p, q in zip(M[i], M[i + 1])])
        M = level
    return [(lo, hi, p) for lo, hi, p in zip(cuts, cuts[1:], M[0]) if p]


def canonical_pieces(pieces):
    """Refine on common breakpoints, sum overlaps, merge equal neighbours.

    One sweep over the breakpoints: each piece adds its coefficients at
    lo and subtracts them at hi, and the running sum is the density.
    """
    delta = {}
    for lo, hi, coeffs in pieces:
        delta[lo] = poly_add(delta.get(lo, ()), coeffs)
        delta[hi] = poly_add(delta.get(hi, ()), poly_scale(coeffs, -1))
    cuts = sorted(delta)
    merged = []
    total = ()
    for lo, hi in zip(cuts, cuts[1:]):
        total = poly_add(total, delta[lo])
        if not total:
            continue
        if merged and merged[-1][1] == lo and merged[-1][2] == total:
            merged[-1] = (merged[-1][0], hi, total)
        else:
            merged.append((lo, hi, total))
    return tuple(merged)


def reference_dh_measure(f):
    """Each simplex s of a non-constant region adds vol(s)/vol(P) times the
    B-spline with knots f(vertices of s); constant regions are atoms."""
    vol = volume(f.domain)
    atoms = {}
    pieces = []
    for R, a in f.regions():
        if a.is_constant:
            atoms[a.constant] = atoms.get(a.constant, Fraction(0)) + volume(R) / vol
            continue
        value = [a(w) for w in vertices(R)]
        rec = _record(R)
        for s, det in rec.simplices:
            pieces.extend((lo, hi, poly_scale(coeffs, Fraction(det, rec.unit) / vol))
                          for lo, hi, coeffs in bspline([value[k] for k in s]))
    return DHMeasure(tuple(sorted((l, m) for l, m in atoms.items() if m != 0)),
                     canonical_pieces(pieces))


def upper_mass(m, lam):
    """Mass of [lam, +inf) under the DH measure m: its complementary distribution function."""
    lam = Fraction(lam)
    total = sum((w for loc, w in m.atoms if loc >= lam), Fraction(0))
    for lo, hi, coeffs in m.pieces:
        if hi > lam:
            total += rp.integrate(coeffs, max(lo, lam), hi)
    return total


def max_support(m):
    """The top of the support of the DH measure m: its last atom or density piece."""
    return max([loc for loc, _ in m.atoms] + [hi for _, hi, _ in m.pieces])


def inverse_taylor(tau, knots):
    """(e, p_0): prod_{t != tau} (z - t)^(-knots[t]) = sum_k e_k (z - tau)^k / p_0^(k+1)
    up to k = r - 1, r = knots[tau]."""
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


def fraction_dh_measure(f):
    """dh_measure with Fraction knot sums: each knot tau of a simplex adds
    C(n-1, j) eta_(r-1-j) / p_0^(r-j) to the coefficient of (tau - Q lambda)_+^(n-1-j),
    the knots tau/Q of all regions are summed as Fractions, and the density
    on each interval is expanded from them in Fractions, from the top knot down."""
    n = f.domain.dim
    vol = volume(f.domain)
    a0, others, *_ = f._split()
    mass = a0.is_constant and vol - sum(volume(R) for R, _ in others)
    atoms = [(a0.constant, mass / vol)] if mass else []
    powers = {}  # knot lambda_k -> coefficients c_m of (lambda_k - lambda)_+^m, m < n
    for R, a in others if a0.is_constant else f.regions():
        if a.is_constant:
            atoms.append((a.constant, volume(R) / vol))
            continue
        rec, (value, Q) = _record(R), _values(R, a)
        local = {}
        for s, det in rec.simplices:
            knots = Counter(value[k] for k in s)
            for tau, r in knots.items():
                e, p0 = inverse_taylor(tau, knots)
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
