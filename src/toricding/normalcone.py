"""Deformation to the normal cone of a distinguished vertex.

Blowing up a torus-fixed point that maximizes the extremal affine
function yields, on the polytope side, the family of configurations
g_c = min(ord - c, 0) where ord is the vanishing-order coordinate of a
unimodular chart at the vertex.  On (0, c_max) every invariant of g_c
has a closed form; comparing those against the generic code paths is
the strongest end-to-end audit this library has.

The closed forms come from the corner simplex.  For c < c_max, {ord <= c}
is x = v + sum_i y_i e_i with y >= 0 and S = sum_i y_i <= c, where the
e_i are the primitive edge directions at v, a lattice basis, so dx = dy
and g_c = S - c there.  As vol(P) = L^n/n!, int (S - c) dy =
-c^{n+1}/((n+1) n!) and int (S - c) y_i dy = -c^{n+2}/((n+1)(n+2) n!),
and theta = theta(v) + sum_i y_i <grad theta, e_i> there, so with
s = sum_i <grad theta, e_i> the reduced J f(b) - mean and the relative
Ding invariant D_Z = f(0) - (1/vol) int f (1 - theta) of g_c are

    J_T(g_c) = g_c(b) + c^{n+1} / ((n+1) L^n),
    D_Z(g_c) = g_c(0) + [(1 - theta(v)) c^{n+1} - s c^{n+2}/(n+2)] / ((n+1) L^n),

where theta(v) = vartheta at a theta-maximizing vertex, and g_c(0) and
g_c(b) vanish while c <= ord(0) and c <= ord(b).  The term
c^{n+1}/((n+1) L^n) is J(g_c), which D(g_c) - g_c(0) equals as well.
normal_cone_family computes J(g_c) and D_Z(g_c) - g_c(0) once, as
polynomials in c, with the extremal data and L^n; every closed form
above is read from those two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Sequence

from . import rationalpoly as rp
from .errors import COutOfRange, MismatchReport, NonSmoothVertex
from .extremal import ExtremalData, FanoPolytope, extremal_affine
from .functionals import DHMeasure, PLConcave, d_na, d_z_na, dh_measure, inner_product, j_na
from .geometry import AffineFn, Point, _divided, _dot, _frac, _gauss_jordan, _record, _values, show
from .twisting import reduce_jna


@dataclass(frozen=True)
class VertexChart:
    """A smooth vertex, its primitive edge directions and ord = their coordinate sum."""

    vertex: Point
    edges: tuple[tuple[int, ...], ...]
    ord: AffineFn


@dataclass(frozen=True)
class NormalConeFamily:
    """The family at a chart, with the closed forms of the module docstring:
    j_coeffs is J(g_c) and expansion_coeffs is D_Z(g_c) - g_c(0), both in c."""

    P: FanoPolytope
    chart: VertexChart
    c_max: Fraction
    ext: ExtremalData
    Ln: Fraction
    j_coeffs: rp.Poly
    expansion_coeffs: rp.Poly

    @property
    def leading_coeff(self) -> Fraction:
        """(1 - vartheta)/((n+1) L^n), the c^{n+1} coefficient of the expansion."""
        return (1 - self.ext.vartheta) * self.j_coeffs[-1]

    def grid_cap(self) -> Fraction:
        """Default parameter cap min(c_max, 1)/2: stays well inside the
        range where the corner simplex is exact and the blown-up
        polarization is expected to stay relatively ample."""
        return min(self.c_max, Fraction(1)) / 2


def select_vertex(P: FanoPolytope) -> Point:
    """A vertex maximizing theta; ties broken lexicographically (the rows are sorted)."""
    values, _ = _values(P.base, extremal_affine(P).theta)
    return P.vertices()[values.index(max(values))]


def _edge_directions(P: FanoPolytope, v: Point) -> list[tuple[int, ...]]:
    """The primitive directions from a vertex v with n tight facets to its
    neighbours, the vertices tight at n - 1 of those facets."""
    rec = _record(P.base)
    D = rec.rows[0][-1]
    k = {row: k for k, row in enumerate(rec.rows)}.get(tuple(D * c for c in v) + (D,))
    if k is None or rec.tight[k].bit_count() != P.dim:
        raise NonSmoothVertex(f"{show(v)} is not a vertex with {P.dim} tight facets")
    return sorted(_divided([a - b for a, b in zip(w, rec.rows[k][:-1])])
                  for w, T in zip(rec.rows, rec.tight)
                  if (T & rec.tight[k]).bit_count() == P.dim - 1)


def vertex_chart(P: FanoPolytope, v: Point) -> VertexChart:
    """Chart whose coordinates are the lattice coefficients along the edges.

    Requires the primitive edge directions at v to form a lattice basis;
    ord(x) is the coordinate sum, i.e. the vanishing order at the vertex.
    """
    v = tuple(_frac(c) for c in v)
    edges = tuple(_edge_directions(P, v))
    # the gradient of ord solves <grad, e_i> = 1 for every edge direction e_i;
    # the last pivot p is +-det of the e_i
    m, _, p = _gauss_jordan([e + (1,) for e in edges])
    if abs(p) != 1:
        raise NonSmoothVertex(
            f"edge directions at {show(v)} span a sublattice of index {abs(p)}", determinant=p
        )
    grad = tuple(Fraction(row[-1], p) for row in m)
    ord_fn = AffineFn(grad, -sum(g * c for g, c in zip(grad, v)))
    return VertexChart(vertex=v, edges=edges, ord=ord_fn)


def normal_cone_family(P: FanoPolytope, v: Point | None = None) -> NormalConeFamily:
    vert = select_vertex(P) if v is None else tuple(_frac(c) for c in v)
    chart = vertex_chart(P, vert)
    # ord = sum_i y_i >= 0 at v + sum_i y_i e_i vanishes only at v (Ziegler, 2.2)
    values, Q = _values(P.base, chart.ord)
    c_max = Fraction(min(x for x in values if x), Q)
    n, ext, Ln = P.dim, extremal_affine(P), P.anticanonical_degree()
    j = (Fraction(0),) * (n + 1) + (1 / ((n + 1) * Ln),)
    s = sum(_dot(ext.theta.gradient, e) for e in chart.edges)
    expansion = rp.trim(j[:-1] + ((1 - ext.vartheta) * j[-1], -s * j[-1] / (n + 2)))
    return NormalConeFamily(P, chart, c_max, ext, Ln, j, expansion)


def g_c(family: NormalConeFamily, c) -> PLConcave:
    """The configuration min(ord - c, 0) on the moment polytope."""
    c = _frac(c)
    if not 0 < c < family.c_max:
        raise COutOfRange(f"c = {c} outside (0, {family.c_max})")
    shifted = AffineFn(family.chart.ord.gradient, family.chart.ord.constant - c)
    zero = AffineFn.const(0, family.P.dim)
    return PLConcave((shifted, zero), family.P.base)


def _d_z(family: NormalConeFamily, c) -> Fraction:
    """D_Z(g_c) in closed form; raises COutOfRange outside (0, c_max)."""
    g_0 = min(a.constant for a in g_c(family, c).affines)  # g_c(0)
    return g_0 + rp.evaluate(family.expansion_coeffs, _frac(c))


def dh_closed_form(n: int, Ln, c) -> DHMeasure:
    """Density (n/L^n)(lambda+c)^{n-1} on [-c,0] plus atom 1 - c^n/L^n at 0."""
    Ln = _frac(Ln)
    c = _frac(c)
    if not (c > 0 and c**n < Ln):
        raise COutOfRange(f"need 0 < c and c^{n} < {Ln}")
    density = tuple(n * comb(n - 1, k) * c ** (n - 1 - k) / Ln for k in range(n))
    return DHMeasure(atoms=((Fraction(0), 1 - c**n / Ln),),
                     pieces=((-c, Fraction(0), density),))


@dataclass
class FamilyRow:
    c: Fraction
    j: Fraction
    j_t: Fraction
    rho_star: tuple[Fraction, ...]
    d: Fraction
    pairing: Fraction
    d_z: Fraction
    dh_matches: bool


def verify_family(family: NormalConeFamily, c_grid: Sequence) -> list[FamilyRow]:
    """Check every closed-form identity of the family on the grid, and D_Z at n + 4
    more points of (0, grid_cap]; MismatchReport lists both sides of each failure."""
    P, ext, ord_fn = family.P, family.ext, family.chart.ord
    n = P.dim
    origin, neg_ord = (Fraction(0),) * n, tuple(-g for g in ord_fn.gradient)
    b = P.barycenter()
    ord_b = ord_fn(b)
    rows, failures = [], []
    for c in map(_frac, c_grid):
        f = g_c(family, c)
        measure, expected_measure = dh_measure(f), dh_closed_form(n, family.Ln, c)
        dv = d_na(f)
        pairing = inner_product(f, ext.theta.gradient)
        rho_star, j_t = reduce_jna(f)
        row = FamilyRow(c=c, j=j_na(f), j_t=j_t, rho_star=rho_star, d=dv, pairing=pairing,
                        d_z=dv + pairing, dh_matches=measure == expected_measure)
        rows.append(row)
        j = rp.evaluate(family.j_coeffs, c)
        # the pieces active at b: 0 while c <= ord(b), ord - c once c >= ord(b)
        active = [origin] * (c <= ord_b) + [neg_ord] * (c >= ord_b)
        failures += [(f"dh_measure(c={c})", measure, expected_measure)] * (not row.dh_matches)
        failures += [check for check in [
            (f"j_na(c={c})", row.j, j), (f"d_na(c={c})", dv, f(origin) + j),
            (f"rho_star(c={c})", rho_star, min(active)), (f"j_t(c={c})", j_t, f(b) + j),
            (f"d_z_na(c={c})", row.d_z, _d_z(family, c))] if check[1] != check[2]]
    cap = family.grid_cap()
    nodes = [(f"d_z_na(c={c})", d_z_na(g_c(family, c), ext), _d_z(family, c))
             for c in (cap * Fraction(i, n + 4) for i in range(1, n + 5))]
    failures += [check for check in nodes if check[1] != check[2]]
    if failures:
        raise MismatchReport(failures)
    return rows


@dataclass
class StabilityReport:
    vartheta: Fraction
    flags: dict
    statements: list[str]
    witness_c: Fraction | None = None
    witness_d_z: Fraction | None = None


def verdict(P: FanoPolytope, c_grid: Sequence | None = None,
            family: NormalConeFamily | None = None) -> StabilityReport:
    """Obstruction verdict from vartheta, which alone decides it below 1.  From 1 on,
    the normal-cone family at select_vertex(P), passed in or built here, gives the
    ratio statement and, above 1, a witness c with D_Z(g_c) < 0 on the grid or its
    halvings of grid[0]; without a unimodular chart at that vertex both are left out."""
    ext = extremal_affine(P)
    vt = ext.vartheta
    flags = {"vartheta<1": vt < 1, "vartheta=1": vt == 1, "vartheta>1": vt > 1}
    statements = []
    report = StabilityReport(vartheta=vt, flags=flags, statements=statements)
    if vt < 1:
        statements.append("obstruction vanishes: extremal affine function is zero" if vt == 0
                          else "necessary condition satisfied: vartheta < 1")
        return report
    try:
        family = normal_cone_family(P) if family is None else family
    except NonSmoothVertex:
        return report
    statements.append(
        "not uniformly relative Ding-stable: the normal-cone family has "
        "relative-Ding/reduced-J ratio tending to 1 - vartheta <= 0"
    )
    if vt > 1:
        grid = [_frac(c) for c in c_grid] if c_grid else _default_grid(family)
        for c in chain(grid, (grid[0] / 2**i for i in range(1, 61))):
            closed = _d_z(family, c)
            if closed < 0:
                dz = d_z_na(g_c(family, c), ext)
                if dz != closed:
                    raise MismatchReport([(f"d_z_na(c={c})", dz, closed)])
                report.witness_c, report.witness_d_z = c, dz
                statements.append(
                    f"destabilized: not relative Ding-semistable; "
                    f"g_c with c = {show(c)} has relative Ding invariant {show(dz)} < 0"
                )
                break
    return report


def _default_grid(family: NormalConeFamily) -> list[Fraction]:
    cap = family.grid_cap()
    return [cap * Fraction(i, 4) for i in (1, 2, 3)]
