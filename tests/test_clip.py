"""The double-description kernel against independent references: vertices
against exhaustive enumeration of every dim-subset of facets, boundedness
against a recession scan of (dim-1)-subsets of normals, hulls against a
scan of dim-subsets of points, and edge directions against the tight
normals at each vertex."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricding import vertices, volume
from toricding import geometry
from toricding.errors import EmptyPolytope, NonSmoothVertex, UnboundedPolytope
from toricding.normalcone import _edge_directions

from conftest import CORPUS_FILES, affine, indices, load_corpus, pairs


def _echelon(rows):
    """Row echelon form over fractions: (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def exhaustive(P):
    """Reference enumeration: the feasible solutions of every nonsingular
    dim-subset of facets, sorted, with the facets tight at each."""
    found, rows = set(), pairs(P)
    for subset in itertools.combinations(rows, P.dim):
        m, pivots = _echelon([list(n) + [r] for n, r in subset])
        if pivots != list(range(P.dim)):
            continue
        x = tuple(m[t][-1] / m[t][t] for t in range(P.dim))
        if all(sum(a * c for a, c in zip(n, x)) <= r for n, r in rows):
            found.add(x)
    verts = tuple(sorted(found))
    tight = tuple(frozenset(i for i, (n, r) in enumerate(rows)
                            if sum(a * c for a, c in zip(n, v)) == r) for v in verts)
    return verts, tight


def affine_rank(points):
    return len(_echelon([[p - q for p, q in zip(v, points[0])] for v in points[1:]])[1])


def null_vector(rows):
    """A nonzero vector orthogonal to every row, or None at full rank."""
    n = len(rows[0])
    m, pivots = _echelon(rows)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    d = [Fraction(0)] * n
    d[free] = Fraction(1)
    for row, c in zip(m, pivots):
        d[c] = -row[free] / row[c]
    return d


def dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


def bounded(P):
    """Reference: the recession cone {d : Ld <= 0} is trivial iff L has rank
    n and no (n-1)-subset of normals carries a ray of it."""
    normals = [n for n, _ in pairs(P)]
    if not normals or len(_echelon(normals)[1]) < P.dim:
        return False
    if P.dim == 1:
        return any(n[0] > 0 for n in normals) and any(n[0] < 0 for n in normals)
    for subset in itertools.combinations(normals, P.dim - 1):
        d = null_vector(subset)
        if d is not None and any(
                all(s * dot(n, d) <= 0 for n in normals) for s in (1, -1)):
            return False
    return True


def hull(points):
    """Reference hull: each dim-subset of points spans a hyperplane, which
    is a facet when every point lies on one side and the points on it have
    affine rank dim - 1; None when the points are not full-dimensional."""
    pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    dim = len(pts[0])
    if affine_rank(pts) < dim:
        return None
    rows = []
    for subset in itertools.combinations(pts, dim):
        base = subset[0]
        normal = [Fraction(1)] if dim == 1 else null_vector(
            [[p - b for p, b in zip(q, base)] for q in subset[1:]])
        if normal is None:
            continue
        on = [p for p in pts if dot(normal, p) == dot(normal, base)]
        if affine_rank(on) != dim - 1:
            continue
        for s in (1, -1):
            if all(s * dot(normal, p) <= s * dot(normal, base) for p in pts):
                rows.append(([s * c for c in normal], s * dot(normal, base)))
    return geometry._normalized(dim, rows)


def record_vertices(P):
    """(vertices, tight sets as index sets) of P's record, with no vertices when P is empty."""
    rec = geometry._record(P)
    return vertices(P) if rec.rows else (), tuple(map(indices, rec.tight))


def assert_regions_match(P, affines):
    """Each region's clip equals the reference, the regions kept are the
    full-dimensional ones, and their volumes sum to vol(P)."""
    uniq = list(dict.fromkeys(affines))
    kept = []
    for a in uniq:
        R = geometry._region(P, a, uniq)
        if R is None:
            continue
        verts, tight = exhaustive(R)
        assert record_vertices(R) == (verts, tight)
        if verts and affine_rank(verts) == P.dim:
            kept.append((R, a))
    assert geometry.region_subdivision(P, affines) == kept
    assert sum(volume(R) for R, _ in kept) == volume(P)
    return kept


@st.composite
def configurations(draw, P):
    """Up to five affines; each later constant is free, puts the boundary
    with the first affine through a vertex of P, lies far above it, or
    repeats an earlier gradient."""
    dim = P.dim
    verts = vertices(P)
    grad = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    first = affine(draw(grad), draw(st.fractions(-2, 2, max_denominator=3)))
    affines = [first]
    for _ in range(draw(st.integers(1, {1: 5, 2: 5, 3: 4, 4: 3}[dim]))):
        mode = draw(st.sampled_from(("free", "vertex", "far", "parallel")))
        g = draw(grad) if mode != "parallel" else list(draw(st.sampled_from(affines)).gradient)
        if mode == "vertex":
            v = draw(st.sampled_from(verts))
            c = first(v) - sum(gi * vi for gi, vi in zip(g, v))
        elif mode == "far":
            c = 100
        else:
            c = draw(st.fractions(-2, 2, max_denominator=3))
        affines.append(affine(g, c))
    return affines


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_clip_matches_exhaustive_on_corpus(name, data):
    P = load_corpus(name).base
    assert_regions_match(P, data.draw(configurations(P)))


def test_corpus_vertices_match_reference():
    for name in CORPUS_FILES:
        P = load_corpus(name).base
        assert record_vertices(P) == exhaustive(P)


def aff(*row):
    return affine(row[:-1], row[-1])


class TestDegenerate:
    def test_boundary_through_a_vertex(self):
        # x1 = x2 meets the triangle at its vertex (-1, -1)
        P = load_corpus("p2").base
        assert len(assert_regions_match(P, [aff(0, 0, 0), aff(1, -1, 0)])) == 2

    @pytest.mark.parametrize("c", [1, -1])
    def test_boundary_along_a_facet(self, c):
        # x1 = -c is a facet of the cube: one region is that facet, pruned
        P = load_corpus("p1x3").base
        kept = assert_regions_match(P, [aff(0, 0, 0, 0), aff(c, 0, 0, 1)])
        assert len(kept) == 1 and kept[0][0] == P

    def test_parallel_pieces(self):
        # a slab between two parallel boundaries; x1 + 1 lies above x1 + 1/2
        P = load_corpus("bl1p2").base
        half = Fraction(1, 2)
        kept = assert_regions_match(
            P, [aff(0, 0, 0), aff(1, 0, half), aff(-1, 0, half), aff(1, 0, 1)])
        assert len(kept) == 3

    def test_far_anchor_is_empty(self):
        P = load_corpus("p4").base
        far = aff(1, 0, 0, 0, 100)
        R = geometry._region(P, far, [aff(0, 0, 0, 0, 0), far])
        assert record_vertices(R)[0] == () == exhaustive(R)[0]
        assert len(assert_regions_match(P, [aff(0, 0, 0, 0, 0), far])) == 1

    def test_segment_region(self):
        # 0 is the minimum only on x1 = 0
        P = load_corpus("p2").base
        assert len(assert_regions_match(P, [aff(1, 0, 0), aff(-1, 0, 0), aff(0, 0, 0)])) == 2

    def test_point_region(self):
        # 0 is the minimum only at the origin, an interior point of P4
        P = load_corpus("p4").base
        coords = [aff(*(int(t == i) for t in range(4)), 0) for i in range(4)]
        pieces = coords + [aff(-1, -1, -1, -1, 0), aff(0, 0, 0, 0, 0)]
        R = geometry._region(P, pieces[-1], pieces)
        assert record_vertices(R)[0] == ((0, 0, 0, 0),)
        assert len(assert_regions_match(P, pieces)) == 5

    def test_boundary_through_many_vertices(self):
        # x1 + x2 = 0 holds at eight vertices of the 4-cube
        P = load_corpus("p1x4").base
        assert len(assert_regions_match(P, [aff(0, 0, 0, 0, 0), aff(1, 1, 0, 0, 0)])) == 2

    def test_three_boundaries_through_one_point(self):
        # x1 + x2 <= 0, x1 <= x2 and x2 <= 0 all pass through the origin,
        # inside the square; a tight set naming rows not yet cut by makes
        # two edges cross there and lists the origin twice
        P = load_corpus("p1xp1").base
        pieces = [aff(0, 0, 0), aff(-1, -1, 0), aff(-1, 1, 0), aff(0, -1, 0)]
        R = geometry._region(P, pieces[0], pieces)
        assert record_vertices(R)[0] == ((-1, -1), (-1, 0), (0, 0))
        assert len(assert_regions_match(P, pieces)) == 4


@st.composite
def h_systems(draw):
    """Up to dim + 5 rows with small normals and rhs: bounded, empty,
    lower-dimensional (a pair x <= r, -x <= -r) and unbounded systems."""
    dim = draw(st.integers(1, 4))
    normal = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    rhs = st.fractions(-2, 3, max_denominator=2)
    rows = draw(st.lists(st.tuples(normal, rhs), min_size=1, max_size=dim + 5))
    if draw(st.booleans()):
        n, r = rows[0]
        rows.append(([-a for a in n], -r))
    return geometry._normalized(dim, rows)


@settings(max_examples=300, deadline=None)
@given(P=h_systems())
def test_record_matches_exhaustive(P):
    if not bounded(P):
        with pytest.raises(UnboundedPolytope):
            geometry._record(P)
    else:
        assert record_vertices(P) == exhaustive(P)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hull_matches_subset_scan(data):
    dim = data.draw(st.integers(1, 4))
    coord = st.fractions(-3, 3, max_denominator=2)
    points = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                min_size=1, max_size=dim + 5))
    if dim > 1 and data.draw(st.booleans()):  # flatten onto x_0 = x_1
        points = [[p[1]] + p[1:] for p in points]
    expected = hull(points)
    if expected is None:
        with pytest.raises(EmptyPolytope):
            geometry.facets_from_vertices(points)
    else:
        assert geometry.facets_from_vertices(points) == expected


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_edge_directions(name):
    """At each vertex with n tight facets: n primitive directions, each
    orthogonal to n - 1 of the tight normals and into P off the last."""
    P = load_corpus(name)
    n = P.dim
    smooth = 0
    for v in vertices(P.base):
        normals = [a for a, r in pairs(P.base) if dot(a, v) == r]
        if len(normals) != n:
            continue
        smooth += 1
        dirs = _edge_directions(P, v)
        assert len(set(dirs)) == n
        for d in dirs:
            assert all(isinstance(c, int) for c in d) and math.gcd(*d) == 1
            off = [dot(a, d) for a in normals]
            assert sorted(off)[1:] == [0] * (n - 1) and min(off) < 0
    assert smooth > 0


def test_edge_directions_need_a_vertex():
    P = load_corpus("p2")
    with pytest.raises(NonSmoothVertex):
        _edge_directions(P, (Fraction(0), Fraction(0)))
