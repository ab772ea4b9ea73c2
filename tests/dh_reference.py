"""Reference DH measure: Cox-de Boor B-splines per simplex, summed and canonicalised.

An independent route to what dh_measure computes from truncated powers
per knot.  It shares only the polytope kernel (regions, simplices,
volumes) with dh_measure, so the two agree only if the knot coefficients
are right.
"""

from fractions import Fraction

from toricding import rationalpoly as rp
from toricding.functionals import DHMeasure
from toricding.geometry import _record, vertices, volume

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
