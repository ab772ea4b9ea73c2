"""Fraction references for the functionals and vertex values that are
evaluated in integers on the kernel record: each evaluates the affine pieces
as Fraction dot products at points, as the library did before clearing them
to integers; and a Fraction Horner scheme for the integer one."""

from fractions import Fraction

from toricding.extremal import extremal_affine
from toricding.geometry import (
    HPolytope,
    _dot,
    _normalized,
    _primitive,
    _record,
    barycenter,
    vertices,
    volume,
)

from conftest import indices, pairs
from region_reference import region_tilted_peak


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
    return HPolytope(P.dim, _normalized(P.dim, pairs(P) + rows).facets, P)


def reference_reduce_jna(f):
    """(rho_star, j_t) from each piece evaluated at the barycenter b as a Fraction:
    the least (a(b), -gradient), lexicographically, and f(b) less the mean."""
    b = barycenter(f.domain)
    top, rho_star = min((a(b), tuple(-g for g in a.gradient)) for a in f.affines)
    return rho_star, top - reference_e_na(f)


def reference_evaluate(p, x):
    """sum_k p_k x^k by Horner's scheme in Fractions."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def reference_vartheta(P):
    """max theta(v) over the vertices v of the polytope."""
    theta = extremal_affine(P).theta
    return max(theta(v) for v in P.vertices())


def reference_select_vertex(P):
    """The vertex of largest theta, the lexicographically least among ties."""
    theta = extremal_affine(P).theta
    return min(P.vertices(), key=lambda v: (-theta(v), v))


def reference_c_max(family):
    """min ord(w) over the vertices w other than the chart's vertex."""
    chart = family.chart
    return min(chart.ord(w) for w in family.P.vertices() if w != chart.vertex)


def reference_jna_twisted(f, rho):
    """The peak of a(v) + <rho, v> over the vertices v of each region (R, a),
    less the mean of f + <rho, .>."""
    return region_tilted_peak(f, rho) - (reference_e_na(f) + _dot(rho, barycenter(f.domain)))


def reference_edge_directions(P, v):
    """The Fraction differences w - v to the vertices w tight at n - 1 of the
    n facets tight at v, each made primitive."""
    verts, tight = vertices(P.base), _record(P.base).tight
    at_v = tight[verts.index(v)]
    return sorted(_primitive([a - b for a, b in zip(w, v)], 0)[:-1]
                  for w, T in zip(verts, tight) if len(indices(T & at_v)) == P.dim - 1)
