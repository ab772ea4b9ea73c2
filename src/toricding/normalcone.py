"""Deformation to the normal cone of a distinguished vertex.

Blowing up a torus-fixed point that maximizes the extremal affine
function yields, on the polytope side, the family of configurations
g_c = min(ord - c, 0) where ord is the vanishing-order coordinate of a
unimodular chart at the vertex.  On (0, c_max) every invariant of g_c
has a closed form; comparing those against the generic code paths is
the strongest end-to-end audit this library has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import rationalpoly as rp
from .errors import COutOfRange, MismatchReport, NonSmoothVertex
from .extremal import FanoPolytope, extremal_affine
from .functionals import DHMeasure, PLConcave, d_na, d_z_na, dh_measure, inner_product, j_na
from .geometry import AffineFn, Point, _eliminate, _frac, _primitive, _record, show
from .twisting import reduce_jna


@dataclass(frozen=True)
class VertexChart:
    """Unimodular coordinates at a smooth vertex; ord = sum of chart coords."""

    vertex: Point
    unimodular: tuple[tuple[int, ...], ...]
    ord: AffineFn


@dataclass(frozen=True)
class NormalConeFamily:
    P: FanoPolytope
    chart: VertexChart
    c_max: Fraction

    def grid_cap(self) -> Fraction:
        """Default parameter cap min(c_max, 1)/2: stays well inside the
        range where the corner simplex is exact and the blown-up
        polarization is expected to stay relatively ample."""
        return min(self.c_max, Fraction(1)) / 2


def select_vertex(P: FanoPolytope) -> Point:
    """A vertex maximizing theta; ties broken lexicographically."""
    ext = extremal_affine(P)
    best = max(ext.theta(v) for v in P.vertices())
    return min(v for v in P.vertices() if ext.theta(v) == best)


def _edge_directions(P: FanoPolytope, v: Point) -> list[tuple[int, ...]]:
    """The primitive directions from a vertex v with n tight facets to its
    neighbours, the vertices tight at n - 1 of those facets."""
    rec = _record(P.base)
    tight = dict(zip(rec.vertices, rec.tight)).get(v)
    if tight is None or len(tight) != P.dim:
        raise NonSmoothVertex(f"{show(v)} is not a vertex with {P.dim} tight facets")
    return sorted(_primitive([a - b for a, b in zip(w, v)], 0)[0]
                  for w, T in zip(rec.vertices, rec.tight) if len(T & tight) == P.dim - 1)


def vertex_chart(P: FanoPolytope, v: Point) -> VertexChart:
    """Chart whose coordinates are the lattice coefficients along the edges.

    Requires the primitive edge directions at v to form a lattice basis;
    ord(x) is the coordinate sum, i.e. the vanishing order at the vertex.
    """
    n = P.dim
    v = tuple(_frac(c) for c in v)
    dirs = _edge_directions(P, v)
    # reduce [E | I] with E's columns the edge directions: the right half becomes E^{-1}
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    m, _, det = _eliminate([[dirs[j][i] for j in range(n)] + unit[i] for i in range(n)])
    if abs(det) != 1:
        raise NonSmoothVertex(
            f"edge directions at {show(v)} span a sublattice of index {abs(det)}", determinant=det
        )
    U = tuple(tuple(int(x) for x in row[n:]) for row in m)  # integer because |det| = 1
    grad = tuple(sum(Fraction(U[i][j]) for i in range(n)) for j in range(n))
    ord_fn = AffineFn(grad, -sum(g * c for g, c in zip(grad, v)))
    for w in P.vertices():
        if ord_fn(w) < 0:
            raise NonSmoothVertex(f"vanishing order negative at vertex {show(w)}")
    return VertexChart(vertex=v, unimodular=U, ord=ord_fn)


def normal_cone_family(P: FanoPolytope, v: Point | None = None) -> NormalConeFamily:
    vert = select_vertex(P) if v is None else tuple(_frac(c) for c in v)
    chart = vertex_chart(P, vert)
    c_max = min(chart.ord(w) for w in P.vertices() if w != vert)
    return NormalConeFamily(P=P, chart=chart, c_max=c_max)


def g_c(family: NormalConeFamily, c) -> PLConcave:
    """The configuration min(ord - c, 0) on the moment polytope."""
    c = _frac(c)
    if not 0 < c < family.c_max:
        raise COutOfRange(f"c = {c} outside (0, {family.c_max})")
    n = family.P.dim
    shifted = AffineFn(family.chart.ord.gradient, family.chart.ord.constant - c)
    zero = AffineFn((Fraction(0),) * n, Fraction(0))
    return PLConcave((shifted, zero), family.P.base)


def dh_closed_form(n: int, Ln, c) -> DHMeasure:
    """Density (n/L^n)(lambda+c)^{n-1} on [-c,0] plus atom 1 - c^n/L^n at 0."""
    Ln = _frac(Ln)
    c = _frac(c)
    if not (c > 0 and c**n < Ln):
        raise COutOfRange(f"need 0 < c and c^{n} < {Ln}")
    density = rp.scale(rp.binomial_power(c, n - 1), Fraction(n) / Ln)
    return DHMeasure.build(
        atoms=[(Fraction(0), 1 - c**n / Ln)],
        pieces=[(-c, Fraction(0), density)],
    )


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


@dataclass
class FamilyReport:
    n: int
    Ln: Fraction
    vertex: Point
    ord: AffineFn
    c_max: Fraction
    vartheta: Fraction
    rows: list[FamilyRow] = field(default_factory=list)
    expansion_nodes: list[tuple[Fraction, Fraction]] = field(default_factory=list)
    expansion_coeffs: tuple[Fraction, ...] = ()
    leading_coeff: Fraction = Fraction(0)
    leading_expected: Fraction = Fraction(0)
    held_out: tuple[Fraction, Fraction, Fraction] | None = None


def verify_family(family: NormalConeFamily, c_grid: Sequence) -> FamilyReport:
    """Check every closed-form identity of the family on the given grid.

    Raises MismatchReport listing both sides of each failed identity.
    """
    P = family.P
    n = P.dim
    Ln = P.anticanonical_degree()
    ext = extremal_affine(P)
    report = FamilyReport(
        n=n,
        Ln=Ln,
        vertex=family.chart.vertex,
        ord=family.chart.ord,
        c_max=family.c_max,
        vartheta=ext.vartheta,
    )
    failures = []
    for c in c_grid:
        c = _frac(c)
        f = g_c(family, c)
        measure = dh_measure(f)
        expected_measure = dh_closed_form(n, Ln, c)
        jv = j_na(f)
        dv = d_na(f)
        pairing = inner_product(f, ext.theta.gradient)
        rho_star, j_t = reduce_jna(f)
        target = c ** (n + 1) / ((n + 1) * Ln)
        row = FamilyRow(
            c=c, j=jv, j_t=j_t, rho_star=rho_star, d=dv,
            pairing=pairing, d_z=dv + pairing,
            dh_matches=(measure == expected_measure),
        )
        report.rows.append(row)
        if not row.dh_matches:
            failures.append((f"dh_measure(c={c})", measure, expected_measure))
        if jv != target:
            failures.append((f"j_na(c={c})", jv, target))
        if dv != target:
            failures.append((f"d_na(c={c})", dv, target))
        if any(r != 0 for r in rho_star):
            failures.append((f"rho_star(c={c})", rho_star, (Fraction(0),) * n))
        if j_t != jv:
            failures.append((f"j_t(c={c})", j_t, jv))
    # exact expansion of the relative Ding invariant in c
    origin = (Fraction(0),) * n
    cap = min(family.grid_cap(), family.chart.ord(origin) / 2)
    nodes = []
    for i in range(1, n + 4):
        ci = cap * Fraction(i, n + 3)
        fi = g_c(family, ci)
        nodes.append((ci, d_z_na(fi, ext)))
    coeffs = rp.lagrange_interpolate(nodes)
    report.expansion_nodes = nodes
    report.expansion_coeffs = coeffs
    report.leading_coeff = coeffs[n + 1] if len(coeffs) > n + 1 else Fraction(0)
    report.leading_expected = (1 - ext.vartheta) / ((n + 1) * Ln)
    c_h = cap * Fraction(2 * (n + 3) - 1, 2 * (n + 3))
    fh = g_c(family, c_h)
    dz_h = d_z_na(fh, ext)
    report.held_out = (c_h, dz_h, rp.evaluate(coeffs, c_h))
    if rp.evaluate(coeffs, c_h) != dz_h:
        failures.append(("expansion held-out value", rp.evaluate(coeffs, c_h), dz_h))
    if report.leading_coeff != report.leading_expected:
        failures.append(
            ("expansion leading coefficient", report.leading_coeff, report.leading_expected)
        )
    if failures:
        raise MismatchReport(failures)
    return report


@dataclass
class StabilityReport:
    vartheta: Fraction
    flags: dict
    statements: list[str]
    witness_c: Fraction | None = None
    witness_d_z: Fraction | None = None
    ratio_c: Fraction | None = None
    ratio_value: Fraction | None = None
    chart_note: str | None = None


def verdict(P: FanoPolytope, c_grid: Sequence | None = None) -> StabilityReport:
    """Obstruction verdict from vartheta, witnessed by the normal-cone family."""
    ext = extremal_affine(P)
    vt = ext.vartheta
    flags = {"vartheta<1": vt < 1, "vartheta=1": vt == 1, "vartheta>1": vt > 1}
    statements = []
    report = StabilityReport(vartheta=vt, flags=flags, statements=statements)
    if vt == 0:
        statements.append("obstruction vanishes: extremal affine function is zero")
    elif vt < 1:
        statements.append("necessary condition satisfied: vartheta < 1")
    try:
        family = normal_cone_family(P)
    except NonSmoothVertex as exc:
        report.chart_note = f"no unimodular chart at the selected vertex: {exc}"
        return report
    grid = [_frac(c) for c in c_grid] if c_grid else _default_grid(family)
    if vt >= 1:
        statements.append(
            "not uniformly relative Ding-stable: the normal-cone family has "
            "relative-Ding/reduced-J ratio tending to 1 - vartheta <= 0"
        )
        f0 = g_c(family, grid[0])
        report.ratio_c = grid[0]
        report.ratio_value = d_z_na(f0, ext) / reduce_jna(f0)[1]
    if vt > 1:
        for c in chain(grid, (grid[0] / 2**i for i in range(1, 61))):
            dz = d_z_na(g_c(family, c), ext)
            if dz < 0:
                report.witness_c, report.witness_d_z = c, dz
                statements.append(
                    f"destabilized: not relative Ding-semistable; "
                    f"g_c with c = {c} has relative Ding invariant {dz} < 0"
                )
                break
    return report


def _default_grid(family: NormalConeFamily) -> list[Fraction]:
    cap = family.grid_cap()
    return [cap * Fraction(i, 4) for i in (1, 2, 3)]
