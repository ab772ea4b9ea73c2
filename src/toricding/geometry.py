"""Exact rational polytope kernel.

Vertex enumeration, pulling triangulation, volumes, barycenters and
exact integrals of an affine function or of a product of two affine
functions over bounded rational H-polytopes.  Boundedness is checked
once, when a polytope is built from outside (HPolytope.from_inequalities);
linearity regions of a bounded polytope are bounded and skip the check.
Each polytope has one record, computed once: its vertices with their
tight facets, and its simplices with their volumes.  A linearity region
clips its vertices from its parent's (the double-description step).
All arithmetic is over fractions.Fraction; floats never enter this
module.  Intended for desk-scale dimensions (n <= 5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    InputTooLarge,
    UnboundedPolytope,
    ZeroFacetNormal,
)

Rat = Fraction
Point = tuple[Fraction, ...]

# entries per kernel cache: more polytopes than one pass of any bundled
# workload touches, few enough to bound a long-lived process
CACHE_SIZE = 1024


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _as_point(coords: Iterable) -> Point:
    return tuple(_frac(c) for c in coords)


@dataclass(frozen=True)
class AffineFn:
    """x -> <gradient, x> + constant."""

    gradient: tuple[Fraction, ...]
    constant: Fraction

    @staticmethod
    def make(gradient: Iterable, constant=0) -> "AffineFn":
        return AffineFn(tuple(_frac(g) for g in gradient), _frac(constant))

    @staticmethod
    def const(value, dim: int) -> "AffineFn":
        return AffineFn((Fraction(0),) * dim, _frac(value))

    def __call__(self, x: Sequence) -> Fraction:
        if len(x) != len(self.gradient):
            raise DimensionMismatch(f"point has dim {len(x)}, affine has dim {len(self.gradient)}")
        return sum((g * _frac(c) for g, c in zip(self.gradient, x)), self.constant)

    def shift(self, rho: Sequence) -> "AffineFn":
        """Add the linear function <rho, x>."""
        if len(rho) != len(self.gradient):
            raise DimensionMismatch("tilt vector has wrong length")
        return AffineFn(tuple(g + _frac(r) for g, r in zip(self.gradient, rho)), self.constant)

    @property
    def is_constant(self) -> bool:
        return all(g == 0 for g in self.gradient)


def _primitive(normal: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """Scale <normal, x> <= rhs so the normal is a primitive integer vector."""
    fracs = [_frac(a) for a in normal]
    if all(a == 0 for a in fracs):
        raise ZeroFacetNormal("zero facet normal")
    denom = lcm(*(a.denominator for a in fracs))
    ints = [int(a * denom) for a in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints), _frac(rhs) * Fraction(denom, g)


@dataclass(frozen=True)
class HPolytope:
    """Bounded rational polytope {x : <normal_i, x> <= rhs_i}.

    Facet normals are primitive integer vectors; facets are sorted and
    deduplicated, so equal polytope descriptions compare equal.  A linearity
    region's parent, the polytope it was cut from, takes no part in equality.
    """

    dim: int
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    parent: "HPolytope | None" = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_inequalities(dim: int, rows: Iterable[tuple[Sequence, object]]) -> "HPolytope":
        """Normalize the rows; raises UnboundedPolytope for an unbounded system."""
        P = _normalized(dim, rows)
        _assert_bounded(P)
        return P

    def contains(self, x: Sequence) -> bool:
        x = _as_point(x)
        return all(_dot(n, x) <= r for n, r in self.facets)

    def strictly_contains(self, x: Sequence) -> bool:
        x = _as_point(x)
        return all(_dot(n, x) < r for n, r in self.facets)


def _normalized(dim: int, rows: Iterable[tuple[Sequence, object]],
                parent: HPolytope | None = None) -> HPolytope:
    """Primitive normals with the tightest rhs each; boundedness unchecked."""
    tight: dict[tuple[int, ...], Fraction] = {}
    for normal, rhs in rows:
        if len(normal) != dim:
            raise DimensionMismatch("facet normal has wrong length")
        n, r = _primitive(normal, rhs)
        tight[n] = min(tight[n], r) if n in tight else r
    return HPolytope(dim, tuple(sorted(tight.items())), parent)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((_frac(x) * _frac(y) for x, y in zip(a, b)), Fraction(0))


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan reduction: (reduced rows, pivot columns, determinant).

    The determinant is that of the leading square block (0 when it is
    singular); elimination stops once every row holds a pivot.
    """
    m = [[_frac(v) for v in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        inv = m[rank][col]
        det *= inv
        m[rank] = [v / inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots, det


def _solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """The solution of a square system, or None when it is singular."""
    m, _, det = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)])
    return None if det == 0 else [row[-1] for row in m]


def _null_vector(rows: Sequence[Sequence]) -> list[Fraction] | None:
    """A nonzero vector orthogonal to all rows, or None when rank is full."""
    n = len(rows[0])
    m, pivots, _ = _eliminate(rows)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    d = [Fraction(0)] * n
    d[free] = Fraction(1)
    for row, col in zip(m, pivots):
        d[col] = -row[free]
    return d


def _affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of a nonempty point set."""
    base = points[0]
    return len(_eliminate([[p[t] - base[t] for t in range(len(base))] for p in points[1:]])[1])


def _assert_bounded(P: HPolytope) -> None:
    """Raise UnboundedPolytope when the recession cone is nontrivial.

    The cone {d : Ld <= 0} is nontrivial iff L has rank < n (lineality)
    or some (n-1)-subset of normals carries an extreme ray.
    """
    normals = [n for n, _ in P.facets]
    if not normals or len(_eliminate(normals)[1]) < P.dim:
        raise UnboundedPolytope("facet normals do not span the ambient space")
    if P.dim == 1:
        # rank 1 in 1-d: need both a <= and a >= constraint
        if not any(n[0] > 0 for n in normals) or not any(n[0] < 0 for n in normals):
            raise UnboundedPolytope("interval missing a bound")
        return
    for subset in itertools.combinations(normals, P.dim - 1):
        d = _null_vector(subset)
        if d is None:
            continue
        for cand in (d, [-v for v in d]):
            if all(_dot(n, cand) <= 0 for n in normals):
                raise UnboundedPolytope(f"recession direction {tuple(cand)}")


class _Record(NamedTuple):
    """What the kernel knows of one polytope; vertices are () when it is empty."""

    vertices: tuple[Point, ...]  # sorted lexicographically
    tight: tuple[frozenset[int], ...]  # per vertex, indices of the facets tight there
    simplices: tuple[tuple[tuple[Point, ...], Fraction], ...]  # (simplex, its volume)


@lru_cache(maxsize=CACHE_SIZE)
def _record(P: HPolytope) -> _Record:
    verts, tight = _enumerate(P) if P.parent is None else _clip(P)
    simplices = _pulling(P, verts, tight)
    return _Record(verts, tight, tuple((s, _simplex_volume(s)) for s in simplices))


def _nonempty(P: HPolytope) -> _Record:
    rec = _record(P)
    if not rec.vertices:
        raise EmptyPolytope("no feasible vertex")
    return rec


def _enumerate(P: HPolytope) -> tuple[tuple[Point, ...], tuple[frozenset[int], ...]]:
    """Exhaustive dim-subset intersection with a feasibility filter."""
    if P.dim > 5:
        raise InputTooLarge("vertex enumeration supports dim <= 5")
    found: set[Point] = set()
    for subset in itertools.combinations(P.facets, P.dim):
        x = _solve([n for n, _ in subset], [r for _, r in subset])
        if x is not None and all(_dot(n, x) <= r for n, r in P.facets):
            found.add(tuple(x))
    verts = tuple(sorted(found))
    return verts, tuple(frozenset(i for i, (n, r) in enumerate(P.facets) if _dot(n, v) == r)
                        for v in verts)


def _clip(R: HPolytope) -> tuple[tuple[Point, ...], tuple[frozenset[int], ...]]:
    """Vertices of R with their tight sets over R.facets, from its parent P.

    P's vertices are cut by one row of R at a time: a row keeps the
    vertices on its side and adds the point where it crosses each edge.
    Two vertices span an edge iff no other vertex is tight at every
    constraint both are.  The constraints are P's facets (i) and the rows
    already cut by (len(P.facets) + i); no tight set names a later row.
    """
    P = R.parent
    m = len(P.facets)
    of_P = {row: i for i, row in enumerate(P.facets)}
    verts, tight = list(_record(P).vertices), list(_record(P).tight)
    for i, (normal, rhs) in enumerate(R.facets, start=m):
        if (normal, rhs) in of_P:  # every point so far holds it; tight where the facet is
            tight = [T | {i} if of_P[normal, rhs] in T else T for T in tight]
            continue
        slack = [sum(a * x for a, x in zip(normal, v)) - rhs for v in verts]
        cut = [(v, T | {i} if s == 0 else T) for v, T, s in zip(verts, tight, slack) if s <= 0]
        for u, su in enumerate(slack):
            if su >= 0:
                continue
            for w, sw in enumerate(slack):
                if sw <= 0:
                    continue
                Z = tight[u] & tight[w]
                if len(Z) >= R.dim - 1 and not any(
                        Z <= T for k, T in enumerate(tight) if k != u and k != w):
                    t = su / (su - sw)
                    cut.append((tuple(x + t * (y - x) for x, y in zip(verts[u], verts[w])),
                                Z | {i}))
        if not cut:
            return (), ()
        verts, tight = [v for v, _ in cut], [T for _, T in cut]
    verts, tight = zip(*sorted(zip(verts, tight)))
    return verts, tuple(frozenset(j - m for j in T if j >= m) for T in tight)


@lru_cache(maxsize=CACHE_SIZE)
def vertices(P: HPolytope) -> tuple[Point, ...]:
    """All points where >= dim facets are tight and every facet holds.

    Clipped from the parent's vertices for a linearity region (P.parent
    set), else exhaustive dim-subset intersection with a feasibility
    filter.  Sorted lexicographically; raises EmptyPolytope when empty.
    """
    return _nonempty(P).vertices


def _simplex_volume(simplex: Sequence[Point]) -> Fraction:
    n = len(simplex) - 1
    v0 = simplex[0]
    det = _eliminate([[w[t] - v0[t] for t in range(n)] for w in simplex[1:]])[2]
    return abs(det) / factorial(n)


def _pulling(P: HPolytope, verts: Sequence[Point], tight: Sequence[frozenset[int]]):
    """The simplices of triangulate(P) from P's vertices and their tight sets."""
    if not verts or _affine_rank(verts) < P.dim:
        return ()
    on = [frozenset(k for k, T in enumerate(tight) if i in T) for i in range(len(P.facets))]

    def pull(face: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [face]
        apex = face[0]
        seen: set[tuple[int, ...]] = set()
        simplices = []
        for on_facet in on:
            if apex in on_facet:
                continue
            sub = tuple(i for i in face if i in on_facet)
            if sub in seen:
                continue
            seen.add(sub)
            if len(sub) >= k and _affine_rank([verts[i] for i in sub]) == k - 1:
                simplices.extend((apex,) + s for s in pull(sub, k - 1))
        return simplices

    return [tuple(verts[i] for i in s) for s in pull(tuple(range(len(verts))), P.dim)]


@lru_cache(maxsize=CACHE_SIZE)
def triangulate(P: HPolytope) -> tuple[tuple[Point, ...], ...]:
    """Pulling triangulation over the vertex-facet incidence of P.

    A face is the tuple of its vertices.  The facets of a k-face are its
    vertex subsets tight at one more facet of P whose affine rank is
    k - 1.  The lexicographically-first vertex of the face is coned over
    the triangulations of the facets that miss it.  Every simplex is
    full-dimensional; a lower-dimensional P yields the empty
    triangulation.
    """
    return tuple(s for s, _ in _nonempty(P).simplices)


@lru_cache(maxsize=CACHE_SIZE)
def volume(P: HPolytope) -> Fraction:
    """Exact Lebesgue volume; 0 for lower-dimensional polytopes."""
    return sum((vol for _, vol in _nonempty(P).simplices), Fraction(0))


@lru_cache(maxsize=CACHE_SIZE)
def barycenter(P: HPolytope) -> Point:
    """Exact centroid: volume-weighted average of simplex centroids."""
    total = volume(P)
    if total == 0:
        raise EmptyPolytope("barycenter of a degenerate polytope")
    simplices = _record(P).simplices
    return tuple(sum(vol * sum(v[t] for v in s) for s, vol in simplices) / (total * (P.dim + 1))
                 for t in range(P.dim))


def integrate_product(P: HPolytope, a: AffineFn, b: AffineFn) -> Fraction:
    """Exact integral of a(x) b(x) over P from the values at simplex vertices.

    Over a simplex with vertices w_0..w_n (barycentric Dirichlet moments):
      int a b = vol * (sum_w a(w) b(w) + sum_w a(w) * sum_w b(w)) / ((n+1)(n+2))
    """
    total = Fraction(0)
    for s, vol in _nonempty(P).simplices:
        va = [a(w) for w in s]
        vb = [b(w) for w in s]
        total += vol * (sum(x * y for x, y in zip(va, vb)) + sum(va) * sum(vb))
    return total / ((P.dim + 1) * (P.dim + 2))


def integrate_affine(P: HPolytope, a: AffineFn) -> Fraction:
    """Exact integral of an affine function: volume times value at centroid."""
    vol = volume(P)
    if vol == 0:
        return Fraction(0)
    return vol * a(barycenter(P))


def region_subdivision(P: HPolytope, affines: Sequence[AffineFn]):
    """Linearity regions of min(affines) on P.

    Returns [(region, affine)] with empty and lower-dimensional regions
    pruned; region volumes sum to volume(P).
    """
    return list(_region_subdivision_cached(P, tuple(affines)))


@lru_cache(maxsize=CACHE_SIZE)
def _region_subdivision_cached(P: HPolytope, affines: tuple[AffineFn, ...]):
    if not affines:
        raise ValueError("need at least one affine piece")
    uniq: list[AffineFn] = []
    for a in affines:
        if len(a.gradient) != P.dim:
            raise DimensionMismatch("affine dimension does not match polytope")
        if a not in uniq:
            uniq.append(a)
    regions = ((_region(P, a, uniq), a) for a in uniq)
    return tuple((R, a) for R, a in regions if R is not None and _record(R).simplices)


def _region(P: HPolytope, aj: AffineFn, affines: Sequence[AffineFn]) -> HPolytope | None:
    """P cut by a_j <= a_i for every affine a_i, with parent P; None when
    a parallel affine lies strictly below a_j."""
    rows = []
    for ai in affines:
        # a_j <= a_i  <=>  <g_j - g_i, x> <= c_i - c_j
        diff = [gj - gi for gj, gi in zip(aj.gradient, ai.gradient)]
        if all(d == 0 for d in diff):
            if aj.constant > ai.constant:
                return None
            continue
        rows.append((diff, ai.constant - aj.constant))
    return _normalized(P.dim, P.facets + tuple(rows), P)


def facets_from_vertices(points: Sequence[Sequence]) -> HPolytope:
    """H-representation of the convex hull of a full-dimensional point set."""
    pts = sorted(set(_as_point(p) for p in points))
    if not pts:
        raise EmptyPolytope("no points")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionMismatch("points of mixed dimension")

    def is_facet(normal, rhs):
        tight = [p for p in pts if _dot(normal, p) == rhs]
        return len(tight) >= dim and _affine_rank(tight) == dim - 1

    rows = []
    for subset in itertools.combinations(pts, dim):
        if dim == 1:
            normal = [Fraction(1)]
        else:
            base = subset[0]
            normal = _null_vector([[p[t] - base[t] for t in range(dim)] for p in subset[1:]])
            if normal is None:
                continue
        rhs = _dot(normal, subset[0])
        values = [_dot(normal, p) - rhs for p in pts]
        if all(v <= 0 for v in values) and is_facet(normal, rhs):
            rows.append((normal, rhs))
        if all(v >= 0 for v in values) and is_facet(normal, rhs):
            rows.append(([-c for c in normal], -rhs))
    if not rows:
        raise EmptyPolytope("points do not span a full-dimensional hull")
    try:
        P = HPolytope.from_inequalities(dim, rows)
    except UnboundedPolytope:
        raise EmptyPolytope("hull is lower-dimensional") from None
    if volume(P) == 0:
        raise EmptyPolytope("hull is lower-dimensional")
    return P
