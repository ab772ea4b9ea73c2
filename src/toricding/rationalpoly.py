"""Dense univariate polynomials with Fraction coefficients (ascending order)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def trim(coeffs: Sequence[Fraction]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def evaluate(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def antiderivative(p: Sequence[Fraction]) -> Poly:
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))


def integrate(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    F = antiderivative(p)
    return evaluate(F, hi) - evaluate(F, lo)


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return trim(tuple(
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ))


def multiply(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Sequence[Fraction], s: Fraction) -> Poly:
    return trim(tuple(c * s for c in p))


def bspline(knots: Sequence[Fraction]) -> list[tuple[Fraction, Fraction, Poly]]:
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
    empty: list[Poly] = [()] * (len(cuts) - 1)
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
            level.append([add(multiply(up, p), multiply(down, q)) for p, q in zip(M[i], M[i + 1])])
        M = level
    return [(lo, hi, p) for lo, hi, p in zip(cuts, cuts[1:], M[0]) if p]

