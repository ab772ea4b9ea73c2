"""Linearity-region vertices clipped from the parent's against exhaustive
enumeration of every dim-subset of facets."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricding import AffineFn, vertices, volume
from toricding import geometry

from conftest import CORPUS_FILES, load_corpus


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
    found = set()
    for subset in itertools.combinations(P.facets, P.dim):
        m, pivots = _echelon([list(n) + [r] for n, r in subset])
        if pivots != list(range(P.dim)):
            continue
        x = tuple(m[t][-1] / m[t][t] for t in range(P.dim))
        if all(sum(a * c for a, c in zip(n, x)) <= r for n, r in P.facets):
            found.add(x)
    verts = tuple(sorted(found))
    tight = tuple(frozenset(i for i, (n, r) in enumerate(P.facets)
                            if sum(a * c for a, c in zip(n, v)) == r) for v in verts)
    return verts, tight


def affine_rank(points):
    return len(_echelon([[p - q for p, q in zip(v, points[0])] for v in points[1:]])[1])


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
        assert geometry._clip(R) == (verts, tight)
        assert geometry._record(R)[:2] == (verts, tight)
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
    first = AffineFn.make(draw(grad), draw(st.fractions(-2, 2, max_denominator=3)))
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
        affines.append(AffineFn.make(g, c))
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
        assert (vertices(P), geometry._record(P).tight) == exhaustive(P)


def aff(*row):
    return AffineFn.make(row[:-1], row[-1])


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
        assert geometry._record(R).vertices == () == exhaustive(R)[0]
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
        assert geometry._record(R).vertices == ((0, 0, 0, 0),)
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
        assert geometry._record(R).vertices == ((-1, -1), (-1, 0), (0, 0))
        assert len(assert_regions_match(P, pieces)) == 4
