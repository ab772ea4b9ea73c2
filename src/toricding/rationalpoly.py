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


def integrate(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    F = (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))  # antiderivative
    return evaluate(F, hi) - evaluate(F, lo)
