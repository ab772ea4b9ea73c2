"""Dense univariate polynomials with Fraction coefficients (ascending order)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Poly = tuple[Fraction, ...]


def trim(coeffs: Sequence[Fraction]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def evaluate(p: Sequence[Fraction], x: Fraction) -> Fraction:
    """sum_k p_k x^k at x = u / w as sum_k (L p_k) u^k w^(d-k) / (L w^d), d = deg p and L
    the lcm of the p_k's denominators: the numerator by one Horner scheme in integers."""
    u, w, L = x.numerator, x.denominator, lcm(*(c.denominator for c in p))
    acc, wk = 0, 1
    for c in reversed(p):
        acc, wk = acc * u + c.numerator * (L // c.denominator) * wk, wk * w
    return Fraction(acc * w, L * wk)  # wk = w^(d+1)


def integrate(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    F = (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))  # antiderivative
    return evaluate(F, hi) - evaluate(F, lo)
