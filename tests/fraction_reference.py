"""Fraction references for the functionals that are evaluated in integers on
the kernel record: each evaluates the affine pieces as Fraction dot products
at points, as the library did before clearing them to integers."""

from fractions import Fraction

from toricding.geometry import HPolytope, _normalized, barycenter, vertices, volume


def reference_e_na(f):
    """(1/vol) sum over the regions R of volume(R) a(barycenter(R))."""
    total = Fraction(0)
    for R, a in f.regions():
        total += volume(R) * a(barycenter(R))
    return total / volume(f.domain)


def reference_max_value(f):
    """The largest value of each region's affine at the region's vertices."""
    return max(a(v) for R, a in f.regions() for v in vertices(R))


def reference_min_value(f):
    """The least value of f at the domain's vertices."""
    return min(f(v) for v in vertices(f.domain))


def reference_region(P, aj, affines):
    """P cut by the Fraction rows <g_j - g_i, x> <= c_i - c_j, each made primitive,
    with parent P; None when a parallel affine lies strictly below a_j."""
    rows = []
    for ai in affines:
        diff = [gj - gi for gj, gi in zip(aj.gradient, ai.gradient)]
        if all(d == 0 for d in diff):
            if aj.constant > ai.constant:
                return None
            continue
        rows.append((diff, ai.constant - aj.constant))
    return HPolytope(P.dim, _normalized(P.dim, P.facets + tuple(rows)).facets, P)
