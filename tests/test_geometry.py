import hashlib
import itertools
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricding import (
    AffineFn,
    EmptyPolytope,
    HPolytope,
    PLConcave,
    UnboundedPolytope,
    ZeroFacetNormal,
    barycenter,
    dh_measure,
    facets_from_vertices,
    integrate_product,
    reduce_jna,
    triangulate,
    vertices,
    volume,
)
from toricding import geometry
from toricding import io as tio
from toricding import validate_fano
from toricding.errors import InputTooLarge
from toricding.extremal import FanoPolytope, covariance
from toricding.geometry import (
    _cut,
    _extreme_rays,
    _gauss_jordan,
    _lift,
    _primitive,
    _record,
    _values,
    show,
)
from toricding.normalcone import _default_grid, g_c, normal_cone_family

from conftest import CORPUS_FILES, REPO, affine, clip, indices, load_corpus, pairs, pl

rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def hp(dim, *rows):
    return HPolytope.from_inequalities(dim, [(r[:-1], r[-1]) for r in rows])


def reference_eliminate(rows):
    """Gauss-Jordan reduction over fractions: (reduced rows, pivot columns,
    determinant of the leading square block, 0 when it is singular); stops
    once every row holds a pivot.  The reference for the kernel's
    fraction-free elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
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


def bareiss(rows):
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968), one matrix at a time: every division is exact.  The
    reference for the determinants the pulling recursion shares."""
    m, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(m) - 1):
        piv = next((r for r in range(k, len(m)) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        pk, rest = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            row[k + 1:] = [(a * pk - row[k] * b) // prev for a, b in zip(row[k + 1:], rest)]
        prev = pk
    return sign * m[-1][-1]


def contains(P, x):
    """Whether the point x satisfies every facet of P."""
    return all(sum(a * Fraction(c) for a, c in zip(n, x)) <= r for n, r in pairs(P))


def _simplex_volume(simplex):
    """|det| of the lifted rows (D v, D) over n! D^(n+1), the points taken one by one."""
    D, rows = _lift([tuple(map(Fraction, v)) for v in simplex])
    return Fraction(abs(bareiss(rows)), factorial(len(rows) - 1) * D ** len(rows))


DIM5 = ("p5", "blp5", "p1x5")


def load_fano(name):
    """A corpus polytope, or one of the dim 5 polytopes kept with the golden outputs."""
    path = CORPUS_FILES.get(name, REPO / "tests" / "golden" / f"{name}.json")
    return validate_fano(tio.load_polytope(str(path)))


class TestVertices:
    def test_interval(self):
        P = hp(1, (1, 1), (-1, 1))
        assert vertices(P) == ((Fraction(-1),), (Fraction(1),))

    def test_p2_triangle(self):
        P = hp(2, (-1, 0, 1), (0, -1, 1), (1, 1, 1))
        assert vertices(P) == ((-1, -1), (-1, 2), (2, -1))

    def test_bl1p2_quadrilateral(self):
        P = hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))
        assert vertices(P) == ((-2, 1), (0, 1), (1, -2), (1, 0))

    def test_every_vertex_feasible_and_facets_covered(self):
        P = hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))
        verts = vertices(P)
        for v in verts:
            assert contains(P, v)
        for normal, rhs in pairs(P):
            on_facet = [v for v in verts if sum(a * c for a, c in zip(normal, v)) == rhs]
            assert len(on_facet) >= P.dim

    def test_unbounded_rejected_at_construction(self):
        with pytest.raises(UnboundedPolytope):
            HPolytope.from_inequalities(2, [([1, 0], 1), ([-1, 0], 1), ([0, 1], 1)])

    def test_unbounded(self):
        with pytest.raises(UnboundedPolytope):
            vertices(hp(2, (1, 0, 1), (0, 1, 1)))

    def test_unbounded_halfline(self):
        with pytest.raises(UnboundedPolytope):
            vertices(hp(1, (1, 1)))

    def test_empty(self):
        with pytest.raises(EmptyPolytope):
            vertices(hp(1, (1, -1), (-1, -1)))

    def test_zero_normal(self):
        with pytest.raises(ZeroFacetNormal, match="zero facet normal"):
            hp(2, (0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))

    def test_dim_6_too_large(self):
        with pytest.raises(InputTooLarge, match="vertex enumeration supports dim <= 5"):
            vertices(cube(6))

    def test_cube_3d(self):
        rows = []
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 1
            rows.append(tuple(e) + (1,))
            e[i] = -1
            rows.append(tuple(e) + (1,))
        P = hp(3, *rows)
        assert len(vertices(P)) == 8
        assert volume(P) == 8


class TestVolume:
    def test_interval(self):
        assert volume(hp(1, (1, 1), (-1, 1))) == 2

    def test_p2(self):
        assert volume(hp(2, (-1, 0, 1), (0, -1, 1), (1, 1, 1))) == Fraction(9, 2)

    def test_bl1p2(self):
        assert volume(hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))) == 4

    def test_simplex_volumes_sum(self):
        for P in [
            hp(2, (-1, 0, 1), (0, -1, 1), (1, 1, 1)),
            hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1)),
            hp(2, (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
        ]:
            tri = triangulate(P)
            assert sum(_simplex_volume(s) for s in tri) == volume(P)
            assert all(_simplex_volume(s) > 0 for s in tri)

    def test_triangulation_simplices_disjoint_interiors(self):
        # barycenter of each simplex lies in no other simplex
        P = hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))
        tri = triangulate(P)

        def inside(simplex, x):
            # x strictly inside iff barycentric coordinates all positive
            v0 = simplex[0]
            rows = [[simplex[i + 1][t] - v0[t] for i in range(2)] for t in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            rhs = [x[t] - v0[t] for t in range(2)]
            l1 = (rhs[0] * rows[1][1] - rhs[1] * rows[0][1]) / det
            l2 = (rows[0][0] * rhs[1] - rows[1][0] * rhs[0]) / det
            return l1 > 0 and l2 > 0 and l1 + l2 < 1

        for i, s in enumerate(tri):
            c = tuple(sum(v[t] for v in s) / Fraction(3) for t in range(2))
            for j, other in enumerate(tri):
                assert inside(other, c) == (i == j)


def cube(dim):
    return hp(dim, *(tuple(s if t == i else 0 for t in range(dim)) + (1,)
                     for i in range(dim) for s in (1, -1)))


def cross_polytope(dim):
    return hp(dim, *(signs + (1,) for signs in itertools.product((1, -1), repeat=dim)))


def projective(dim):
    return hp(dim, *[tuple(-int(t == i) for t in range(dim)) + (1,) for i in range(dim)],
              (1,) * dim + (1,))


class TestPullingTriangulation:
    def assert_valid(self, P):
        tri = triangulate(P)
        assert all(len(s) == P.dim + 1 for s in tri)
        assert all(_simplex_volume(s) > 0 for s in tri)

    @pytest.mark.parametrize("dim, vol", [(3, Fraction(4, 3)), (4, Fraction(2, 3))])
    def test_cross_polytope(self, dim, vol):
        # every vertex lies on 2^(dim-1) facets: far from simple
        P = cross_polytope(dim)
        assert len(vertices(P)) == 2 * dim
        self.assert_valid(P)
        assert volume(P) == vol
        assert barycenter(P) == (0,) * dim

    @pytest.mark.parametrize("normal, rhs, vol", [
        ((1, 1, 1), 0, 4),
        ((1, 1, 0), Fraction(1, 2), Fraction(23, 4)),
    ])
    def test_cube_clip(self, normal, rhs, vol):
        P = clip(cube(3), normal, rhs)
        self.assert_valid(P)
        assert volume(P) == vol

    def test_redundant_row_tight_at_a_2_face(self):
        # x1 + x2 <= 2 touches the 4-cube in a square: a row that defines
        # no facet yet holds as many vertices as a facet of P needs
        P = clip(cube(4), (1, 1, 0, 0), 2)
        assert (1, 1, 0, 0, 2) in P.facets
        self.assert_valid(P)
        assert volume(P) == 16

    def test_clip_to_a_face_is_empty(self):
        P = clip(cube(3), (1, 0, 0), -1)
        assert len(vertices(P)) == 4
        assert triangulate(P) == ()
        assert volume(P) == 0

    @pytest.mark.parametrize("P, degree", [
        pytest.param(projective(3), 64, id="P3"),
        pytest.param(hp(3, (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1),
                        (1, 1, 1, 1), (-1, -1, -1, 1)), 56, id="Bl_pt P3"),
        pytest.param(cube(3), 48, id="(P1)^3"),
        pytest.param(projective(4), 625, id="P4"),
        pytest.param(cube(4), 384, id="(P1)^4"),
    ])
    def test_corpus_degrees(self, P, degree):
        self.assert_valid(P)
        assert factorial(P.dim) * volume(P) == degree


class TestBarycenter:
    @pytest.mark.parametrize("name", sorted(CORPUS_FILES))
    def test_record_moment(self, name):
        # sum over simplices of det times the sum of their lifted rows, whose
        # last entry is (n + 1) D sum det; the barycenter is the rest over it
        rec = _record(load_corpus(name).base)
        n, D = len(rec.rows[0]) - 1, rec.rows[0][-1]
        assert rec.moment[-1] == (n + 1) * D * sum(det for _, det in rec.simplices)
        assert barycenter(load_corpus(name).base) == tuple(
            Fraction(m, rec.moment[-1]) for m in rec.moment[:-1])

    def test_interval(self):
        assert barycenter(hp(1, (1, 1), (-1, 1))) == (0,)

    def test_p2_symmetric(self):
        assert barycenter(hp(2, (-1, 0, 1), (0, -1, 1), (1, 1, 1))) == (0, 0)

    def test_bl1p2(self):
        b = barycenter(hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1)))
        assert b == (Fraction(-1, 12), Fraction(-1, 12))


class TestAccessorContract:
    """What vertices, triangulate, volume and barycenter return or raise."""

    @pytest.mark.parametrize("accessor", [vertices, triangulate, volume, barycenter])
    def test_empty_system(self, accessor):
        with pytest.raises(EmptyPolytope, match="^no feasible vertex$"):
            accessor(hp(2, (1, 0, -1), (-1, 0, -1), (0, 1, 1), (0, -1, 1)))

    @pytest.mark.parametrize("P, verts", [
        pytest.param(hp(2, (1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)),
                     ((0, -1), (0, 1)), id="segment"),
        pytest.param(clip(cube(3), (1, 0, 0), -1),
                     ((-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1)), id="cube face"),
    ])
    def test_lower_dimensional(self, P, verts):
        assert vertices(P) == verts
        assert triangulate(P) == ()
        assert volume(P) == 0
        with pytest.raises(EmptyPolytope, match="^barycenter of a degenerate polytope$"):
            barycenter(P)

    @pytest.mark.parametrize("name, vol, b", [
        ("p1", 2, (0,)),
        ("p2", Fraction(9, 2), (0, 0)),
        ("bl1p2", 4, (Fraction(-1, 12),) * 2),
        ("p1xp1", 4, (0, 0)),
        ("stretched", Fraction(5, 2), (Fraction(-11, 30), 0)),
        ("p3", Fraction(32, 3), (0,) * 3),
        ("blp3", Fraction(28, 3), (Fraction(1, 14),) * 3),
        ("p1x3", 8, (0,) * 3),
        ("p4", Fraction(625, 24), (0,) * 4),
        ("p1x4", 16, (0,) * 4),
    ])
    def test_corpus(self, name, vol, b):
        P = load_corpus(name).base
        assert volume(P) == vol
        assert barycenter(P) == b


class TestHash:
    ROWS = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]

    def test_equal_descriptions_hash_equal(self):
        P = HPolytope.from_inequalities(2, self.ROWS)
        Q = HPolytope.from_inequalities(2, [((0, 3), 3), ((-2, -2), 2), ((1, 0), 1)])
        R = HPolytope(2, P.facets, parent=Q)  # the parent takes no part in equality
        assert P == Q == R and len({id(P), id(Q), id(R)}) == 3
        assert hash(P) == hash(Q) == hash(R) == hash((2, P.facets))
        assert hash(P) != hash(clip(P, (1, 0), 0))

    def test_record_cache_hits_unchanged(self):
        P = HPolytope.from_inequalities(2, self.ROWS)
        Q = HPolytope(2, P.facets)
        before = _record.cache_info()
        assert _record(Q) is _record(P)
        assert volume(Q) == volume(P) == Fraction(9, 2)
        after = _record.cache_info()
        assert (after.hits, after.misses) == (before.hits + 4, before.misses)

    def test_equal_affines_hash_equal(self):
        a = affine([1, Fraction(1, 2)], Fraction(-2, 3))
        b = affine([Fraction(3, 3), Fraction(2, 4)], Fraction(-4, 6))
        assert a.cleared == ((6, 3, -4), 6)  # set at construction, the only part in equality
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != affine([1, Fraction(1, 2)], 0)
        assert hash(a) != hash(affine([1, Fraction(1, 2)], 0))
        assert {a: 1}[b] == 1 and len({a, b}) == 1


def coordinate(dim, i):
    """The affine function x -> x_i."""
    return affine([int(t == i) for t in range(dim)])


def affines(dim):
    return st.builds(affine, st.lists(rational, min_size=dim, max_size=dim), rational)


def reference_tightest(rows):
    """{primitive normal: least rhs} over rational rows (normal, rhs), each
    scaled in fractions by the gcd of its cleared normal."""
    tight = {}
    for normal, rhs in rows:
        d = lcm(*(Fraction(a).denominator for a in normal))
        g = Fraction(gcd(*(int(a * d) for a in normal)), d)
        n = tuple(int(a / g) for a in normal)
        tight[n] = min(tight.get(n, rhs / g), rhs / g)
    return tight


def as_pairs(P):
    """P's rows as {primitive normal: rhs}, the rhs a Fraction."""
    return {tuple(a // gcd(*n) for a in n): Fraction(b, gcd(*n)) for n, b in pairs(P)}


def is_primitive_row(row):
    return type(row) is tuple and all(type(c) is int for c in row) and gcd(*row) == 1


class TestIntegerRows:
    """Facets are primitive integer rows and tight sets bitmasks: a recorded
    polytope and a region's record are read without comparing or hashing a Fraction."""

    @pytest.fixture
    def fraction_calls(self, monkeypatch):
        calls = []
        for name in ("__eq__", "__hash__"):
            def counted(*args, method=getattr(Fraction, name)):
                calls.append(method.__name__)
                return method(*args)
            monkeypatch.setattr(Fraction, name, counted)
        return calls

    def test_reading_a_recorded_polytope(self, fraction_calls):
        path = str(CORPUS_FILES["bl1p2"])
        P = tio.load_polytope(path)
        volume(P)
        Q = tio.load_polytope(path)  # equal to P, a different object
        fraction_calls.clear()
        vol = volume(Q)
        assert fraction_calls == []
        assert Q is not P and vol == volume(P) == 4

    def test_recording_a_region(self, fraction_calls):
        P = tio.load_polytope(str(CORPUS_FILES["bl1p2"]))
        pieces = [affine([1, 0], Fraction(1, 3)), affine([0, Fraction(1, 2)], 0)]
        R = geometry._region(P, pieces[0], pieces)
        fraction_calls.clear()
        assert _record(R).rows
        assert fraction_calls == []

    def test_reloading_a_configuration(self, fraction_calls):
        """A configuration equal to a stored one finds its split, and its pieces
        answer is_constant, from their integer rows alone."""
        P = load_corpus("p2").base
        path = str(REPO / "tests" / "golden" / "mix2.json")
        stored = tio.load_test_config(path, P)._split()
        fraction_calls.clear()
        f = tio.load_test_config(path, P)
        assert f._split() is stored
        assert [a.is_constant for a in f.affines] == [True, False, False]
        assert fraction_calls == []

    def test_reduce_jna(self, fraction_calls):
        """reduce_jna reads each piece's value at b and its gradient as integers."""
        P = load_corpus("p2").base
        f = tio.load_test_config(str(REPO / "tests" / "golden" / "mix2.json"), P)
        fraction_calls.clear()
        rho_star, j_t = reduce_jna(f)
        assert fraction_calls == []
        assert (rho_star, j_t) == ((0, 0), Fraction(29555, 69984))

    @given(dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_identity_is_the_cleared_row(self, dim, data):
        """Two pieces are equal, and then hash equal, iff their Fraction fields
        are, however the entries are written (ints, unreduced fractions);
        cleared = (row, q) is canonical: q > 0 and gcd(*row, q) = 1."""
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

        def written(x):
            if x.denominator == 1 and data.draw(st.booleans()):
                return int(x)
            m = data.draw(st.integers(1, 3))
            return Fraction(m * x.numerator, m * x.denominator)

        first = data.draw(st.lists(value, min_size=dim + 1, max_size=dim + 1))
        second = [x if data.draw(st.booleans()) else data.draw(value) for x in first]
        a, b = (AffineFn(tuple(map(written, e[:-1])), written(e[-1])) for e in (first, second))
        assert (a == b) == ((a.gradient, a.constant) == (b.gradient, b.constant))
        assert a != b or hash(a) == hash(b)
        for row, q in (a.cleared, b.cleared):
            assert q > 0 and gcd(*row, q) == 1

    @given(name=st.sampled_from(sorted(CORPUS_FILES)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_primitive_integers(self, name, data):
        P = load_corpus(name).base
        pieces = list(dict.fromkeys(data.draw(st.lists(affines(P.dim), min_size=1, max_size=4))))
        regions = [(R, a) for a in pieces if (R := geometry._region(P, a, pieces)) is not None]
        for Q in [P] + [R for R, _ in regions]:
            assert all(map(is_primitive_row, Q.facets))
            assert list(Q.facets) == sorted(set(Q.facets))
        for R, a in regions:
            # a_j <= a_i as the Fraction row <g_j - g_i, x> <= c_i - c_j, the tightest kept
            rows = [([x - y for x, y in zip(a.gradient, b.gradient)], b.constant - a.constant)
                    for b in pieces if b.gradient != a.gradient]
            assert as_pairs(R) == reference_tightest(pairs(P) + rows)
            # each tight set is an int bitmask over R's facets
            assert all(type(T) is int and T >> len(R.facets) == 0 for T in _record(R).tight)

    @given(dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_normalized_keeps_the_tightest_row(self, dim, data):
        normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
        rows = data.draw(st.lists(st.tuples(normal, rational), min_size=1, max_size=6))
        # parallel copies, scaled by an integer or a fraction, with their own rhs
        scales = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
        rows += [([s * a for a in n], r) for (n, _), s, r in data.draw(st.lists(
            st.tuples(st.sampled_from(rows), scales, rational), max_size=4))]
        P = geometry._normalized(dim, rows)
        assert all(map(is_primitive_row, P.facets)) and list(P.facets) == sorted(P.facets)
        assert as_pairs(P) == reference_tightest(rows)

    def test_parallel_rows_with_different_denominators(self):
        # 2 x <= 1 is x <= 1/2, and x <= 1/3 is tighter: the row (3, 0, 1)
        P = geometry._normalized(2, [((2, 0), 1), ((1, 0), Fraction(1, 3)), ((0, 1), 1),
                                     ((-1, -1), Fraction(5, 2))])
        assert P.facets == ((-2, -2, 5), (0, 1, 1), (3, 0, 1))
        assert as_pairs(P) == {(1, 0): Fraction(1, 3), (0, 1): 1, (-1, -1): Fraction(5, 2)}
        Q = geometry._normalized(2, [((4, 0), 1), ((1, 0), Fraction(1, 3)), ((0, 1), 1),
                                     ((-1, -1), 3)])
        assert Q.facets == ((-1, -1, 3), (0, 1, 1), (4, 0, 1))


class TestIntegrateProduct:
    def test_square_of_x(self):
        P = hp(1, (1, 1), (-1, 1))
        assert integrate_product(P, coordinate(1, 0), coordinate(1, 0)) == Fraction(2, 3)

    def test_odd_vanishes(self):
        P = hp(1, (1, 1), (-1, 1))
        assert integrate_product(P, coordinate(1, 0), AffineFn.const(1, 1)) == 0

    def test_p2_xy_monte_carlo(self):
        # independent oracle: uniform sampling of the triangle, 10^6 points
        numpy = pytest.importorskip("numpy")
        P = hp(2, (-1, 0, 1), (0, -1, 1), (1, 1, 1))
        exact_mean = integrate_product(P, coordinate(2, 0), coordinate(2, 1)) / volume(P)
        rng = numpy.random.default_rng(20240817)
        N = 10**6
        A, B, C = numpy.array([-1.0, -1.0]), numpy.array([2.0, -1.0]), numpy.array([-1.0, 2.0])
        r1 = numpy.sqrt(rng.random(N))
        r2 = rng.random(N)
        pts = (1 - r1)[:, None] * A + (r1 * (1 - r2))[:, None] * B + (r1 * r2)[:, None] * C
        samples = pts[:, 0] * pts[:, 1]
        mc_mean = samples.mean()
        sigma = samples.std(ddof=1) / N**0.5
        assert abs(float(exact_mean) - mc_mean) < 3 * sigma

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_box_moments(self, n):
        # int over [-1,1]^n of x_i x_j: 2^n/3 on the diagonal, 0 off it
        P = cube(n)
        for i, j in itertools.product(range(n), repeat=2):
            expected = Fraction(2**n, 3) if i == j else 0
            assert integrate_product(P, coordinate(n, i), coordinate(n, j)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_standard_simplex_moments(self, n):
        # int over {x >= 0, sum x <= 1} of x^alpha = alpha! / (n + |alpha|)!
        P = hp(n, *[tuple(-int(t == i) for t in range(n)) + (0,) for i in range(n)],
               (1,) * n + (1,))
        one = AffineFn.const(1, n)
        assert integrate_product(P, one, one) == Fraction(1, factorial(n))
        for i in range(n):
            assert integrate_product(P, coordinate(n, i), one) == Fraction(1, factorial(n + 1))
        for i, j in itertools.product(range(n), repeat=2):
            alpha = [int(t == i) + int(t == j) for t in range(n)]
            expected = Fraction(prod(factorial(a) for a in alpha), factorial(n + 2))
            assert integrate_product(P, coordinate(n, i), coordinate(n, j)) == expected

    @given(a=affines(2), b=affines(2), c=affines(2), s=rational, t=rational)
    @settings(max_examples=40, deadline=None)
    def test_bilinear_and_symmetric(self, a, b, c, s, t):
        P = hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))
        combo = AffineFn(tuple(s * x + t * y for x, y in zip(a.gradient, b.gradient)),
                         s * a.constant + t * b.constant)
        lhs = integrate_product(P, combo, c)
        assert lhs == s * integrate_product(P, a, c) + t * integrate_product(P, b, c)
        assert integrate_product(P, a, c) == integrate_product(P, c, a)

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_dh_second_moment(self, name, data):
        # independent route: the B-spline pushforward of Lebesgue measure under a
        P = load_corpus(name).base
        a = data.draw(affines(P.dim))
        second = dh_measure(PLConcave((a,), P)).moment(2)
        assert integrate_product(P, a, a) / volume(P) == second


def affine_rank(points):
    """Dimension of the affine hull of a nonempty point set."""
    base = points[0]
    edges = [[p[t] - base[t] for t in range(len(base))] for p in points[1:]]
    return len(reference_eliminate(edges)[1])


def reference_triangulation(P):
    """The pulling triangulation with the facets of a k-face found by rank:
    its vertex sets tight at one more row of P whose affine rank is k - 1."""
    rec = _record(P)
    verts = vertices(P) if rec.rows else ()
    if not verts or affine_rank(verts) < P.dim:
        return ()
    on = [frozenset(k for k, T in enumerate(rec.tight) if i in indices(T))
          for i in range(len(P.facets))]

    def pull(face, k):
        if k == 0:
            return [face]
        apex, seen, simplices = face[0], set(), []
        for on_facet in on:
            sub = tuple(i for i in face if i in on_facet)
            if apex in on_facet or sub in seen:
                continue
            seen.add(sub)
            if len(sub) >= k and affine_rank([verts[i] for i in sub]) == k - 1:
                simplices.extend((apex,) + s for s in pull(sub, k - 1))
        return simplices

    return tuple(tuple(verts[i] for i in s) for s in pull(tuple(range(len(verts))), P.dim))


def reference_integral(P, a, b):
    """int_P a b summed simplex by simplex, each affine evaluated at each simplex vertex."""
    n = P.dim
    total = Fraction(0)
    for s in triangulate(P):
        va, vb = [a(w) for w in s], [b(w) for w in s]
        total += _simplex_volume(s) * (sum(x * y for x, y in zip(va, vb)) + sum(va) * sum(vb))
    return total / ((n + 1) * (n + 2))


def pyramid_over_square():
    return facets_from_vertices([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)])


@st.composite
def lattice_hulls(draw):
    """Full-dimensional hulls of n + 1 to n + 6 lattice points in [-2, 2]^n, n in 2..4."""
    dim = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim + 1,
                           max_size=dim + 6, unique=True))
    try:
        return facets_from_vertices(points)
    except EmptyPolytope:
        assume(False)


@st.composite
def corpus_regions(draw):
    """The linearity regions of 2-4 random affine pieces on a corpus polytope."""
    P = load_corpus(draw(st.sampled_from(sorted(CORPUS_FILES))))
    f = PLConcave.make(draw(st.lists(affines(P.dim), min_size=2, max_size=4)), P)
    return [R for R, _ in f.regions()]


class TestReferenceFormulas:
    """The kernel against the per-candidate rank test and per-simplex evaluation it replaced."""

    @pytest.mark.parametrize("P", [
        pytest.param(cross_polytope(3), id="octahedron"),
        pytest.param(cross_polytope(4), id="4-cross-polytope"),
        pytest.param(pyramid_over_square(), id="pyramid over a square"),
        pytest.param(clip(cube(4), (1, 1, 0, 0), 2), id="redundant row"),
        pytest.param(clip(cube(3), (1, 0, 0), -1), id="lower-dimensional"),
        pytest.param(cube(5), id="(P1)^5"),
    ])
    def test_non_simple_and_degenerate(self, P):
        assert triangulate(P) == reference_triangulation(P)

    @given(P=lattice_hulls())
    @settings(max_examples=60, deadline=None)
    def test_triangulation_on_lattice_hulls(self, P):
        assert triangulate(P) == reference_triangulation(P)

    @given(regions=corpus_regions())
    @settings(max_examples=30, deadline=None)
    def test_triangulation_on_corpus_regions(self, regions):
        for R in regions:
            assert triangulate(R) == reference_triangulation(R)

    @given(P=lattice_hulls(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_integral_on_lattice_hulls(self, P, data):
        a, b = data.draw(affines(P.dim)), data.draw(affines(P.dim))
        assert integrate_product(P, a, b) == reference_integral(P, a, b)

    @given(regions=corpus_regions(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_integral_on_corpus_regions(self, regions, data):
        for R in regions:
            a, b = data.draw(affines(R.dim)), data.draw(affines(R.dim))
            assert integrate_product(R, a, b) == reference_integral(R, a, b)


def reference_simplex_volume(simplex):
    """|det| of the edge rows v_i - v_0 by Gauss-Jordan elimination over fractions, over n!."""
    n, v0 = len(simplex) - 1, simplex[0]
    edges = [[w[t] - v0[t] for t in range(n)] for w in simplex[1:]]
    return abs(reference_eliminate(edges)[2]) / factorial(n)


@st.composite
def rational_simplices(draw):
    """(n + 1 rational points in dims 1-5, whether the last is an affine
    combination of the others, which makes the simplex degenerate)."""
    n = draw(st.integers(1, 5))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 1))
    degenerate = draw(st.booleans())
    if degenerate:
        lam = draw(st.lists(coord, min_size=n - 1, max_size=n - 1))
        lam = [1 - sum(lam)] + lam
        points[-1] = tuple(sum(l * p[t] for l, p in zip(lam, points)) for t in range(n))
    return points, degenerate


def primitive_integral(rays):
    return all(type(c) is int for y in rays for c in y) and all(gcd(*y) == 1 for y in rays)


def canon(x):
    """A nested tuple of rationals as text, each number written as a reduced fraction."""
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(canon, x)) + ")"
    return str(Fraction(x))


# sha256 (first 32 hex digits) of canon([triangulate(P)] + [triangulate(R) for
# the regions R of g_c at the first default c]), recorded with the kernel that
# eliminated over fractions; the integer kernel must give the same point tuples
TRIANGULATION_DIGESTS = {
    "bl1p2": "660d8f8b8fc572385f3df21e143a3443",
    "blp3": "cb645441dfb4f0c3f1aad110f9284c33",
    "blp5": "88ddcd3c987eb648de2856a49c2fda77",
    "p1": "d41c6b7c6a1beaef10f3fb98e70083aa",
    "p1x3": "551edd9072c9ae728913c1f568c8c17b",
    "p1x4": "725a5d5e045067949597fc0dc8f45625",
    "p1x5": "d18ec67a2953bfb88f9f519848a0ca96",
    "p1xp1": "2f67ca651cfb95ec5e9e6aed8834d5cc",
    "p2": "7cdaf5596ac81a68538b21fe6d806d64",
    "p3": "6c03efcada7922e41ad597933c766611",
    "p4": "b192b3a92cd7e591548a3afb1334d901",
    "p5": "b968e8d33d71f74c08a8e56ec9559a9e",
    "stretched": "963b5c5b9d51cf1e054b94cf0cc3ae83",
}


def cleared(row):
    """A rational row times the lcm of its denominators: an integer row."""
    d = lcm(*(Fraction(c).denominator for c in row))
    return tuple(int(c * d) for c in row)


def reference_extreme_rays(rows):
    """The extreme rays by fraction elimination: the basis B from the
    transpose, the starting rays the primitive negated columns of H_B^{-1}."""
    d = len(rows[0])
    basis = reference_eliminate(list(zip(*rows)))[1]
    if len(basis) < d:
        return None
    m = reference_eliminate([list(rows[b]) + [int(i == j) for j in range(d)]
                             for i, b in enumerate(basis)])[0]
    rays = [_primitive([-row[d + j] for row in m], 0)[:-1] for j in range(d)]
    tight = [sum(1 << c for c in basis if c != b) for b in basis]
    return _cut(rays, tight, ((i, h) for i, h in enumerate(rows) if i not in basis))


@st.composite
def integer_matrices(draw):
    """Integer matrices of 1-5 rows and 1-6 columns: square, wide and tall;
    in about half the last row is an integer combination of the others, so
    the matrix is rank-deficient (a square one singular)."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r > 1 and draw(st.booleans()):
        lam = draw(st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r - 1))
        rows[-1] = [sum(l * row[j] for l, row in zip(lam, rows)) for j in range(c)]
    return rows


class TestGaussJordan:
    """The fraction-free elimination against the fraction reference."""

    @given(rows=integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reduction(self, rows):
        m, pivots, p = _gauss_jordan(rows)
        ref, ref_pivots, det = reference_eliminate(rows)
        assert pivots == ref_pivots
        assert all(type(v) is int for row in m for v in row)
        assert [[Fraction(v, p) for v in row] for row in m] == ref
        if len(rows) == len(rows[0]):
            # square: p is +-det, and a singular matrix misses a pivot
            assert abs(p) == abs(det) if det else pivots != list(range(len(rows)))

    @given(rows=integer_matrices(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_solves_square_systems(self, rows, data):
        n = len(rows)
        A = [row[:n] + [0] * (n - len(row)) for row in rows]
        b = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        m, pivots, p = _gauss_jordan([row + [bi] for row, bi in zip(A, b)])
        ref, _, det = reference_eliminate([row + [bi] for row, bi in zip(A, b)])
        assert (pivots == list(range(n))) == (det != 0)
        if det:
            x = [Fraction(row[-1], p) for row in m]
            assert x == [row[-1] for row in ref]
            assert [sum(a * xi for a, xi in zip(row, x)) for row in A] == b

    def test_unimodular_and_singular(self):
        assert _gauss_jordan([[2, 1], [1, 1]]) == ([[1, 0], [0, 1]], [0, 1], 1)
        assert _gauss_jordan([[1, 2], [2, 4]]) == ([[1, 2], [0, 0]], [0], 1)
        assert _gauss_jordan([[0, 0, 0]]) == ([[0, 0, 0]], [], 1)
        m, pivots, p = _gauss_jordan([[2, 0], [0, 3]])
        assert (m, pivots, p) == ([[6, 0], [0, 6]], [0, 1], 6)


class TestIntegerKernel:
    """Integer rays and fraction-free determinants against the fraction routes."""

    @given(case=rational_simplices())
    @settings(max_examples=200, deadline=None)
    def test_simplex_volume_matches_gauss_jordan(self, case):
        simplex, degenerate = case
        assert _simplex_volume(simplex) == reference_simplex_volume(simplex)
        rows = _lift(simplex)[1]
        assert bareiss(rows) == reference_eliminate(rows)[2]
        if degenerate:
            assert _simplex_volume(simplex) == 0

    @given(dim=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_extreme_rays_are_primitive(self, dim, data):
        rows = data.draw(st.lists(st.tuples(*[rational] * (dim + 1)), min_size=dim + 1,
                                  max_size=dim + 5))
        assume(all(any(h) for h in rows))
        rows = [cleared(h) for h in rows]
        cone = _extreme_rays(rows)
        assume(cone is not None)
        rays, tight = cone
        assert primitive_integral(rays)
        for y, T in zip(rays, tight):
            slack = [sum(a * c for a, c in zip(h, y)) for h in rows]
            assert all(v <= 0 for v in slack)
            assert indices(T) == {i for i, v in enumerate(slack) if v == 0}
        # a row scaled by a positive integer bounds the same halfspace
        scale = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
        assert _extreme_rays([[s * c for c in h] for s, h in zip(scale, rows)]) == cone

    @given(dim=st.integers(1, 4), flat=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_extreme_rays_match_reference(self, dim, flat, data):
        rows = data.draw(st.lists(st.tuples(*[rational] * (dim + 1)), min_size=1,
                                  max_size=dim + 5))
        if flat:
            # every row misses the last coordinate: the rows do not span
            rows = [h[:-1] + (0,) for h in rows]
        assume(all(any(h) for h in rows))
        rows = [cleared(h) for h in rows]
        assert _extreme_rays(rows) == reference_extreme_rays(rows)

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES) + list(DIM5))
    def test_extreme_rays_match_reference_on_corpus(self, name):
        P = load_fano(name).base
        cone = [n + (-r,) for n, r in pairs(P)] + [(0,) * P.dim + (-1,)]
        hull = [cleared(v + (-1,)) for v in vertices(P)]
        for rows in (cone, hull):
            assert _extreme_rays(rows) == reference_extreme_rays(rows)

    @given(name=st.sampled_from(sorted(CORPUS_FILES)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cut_rays_are_primitive(self, name, data):
        P = load_corpus(name).base
        rec, dim = _record(P), P.dim
        rows = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (dim + 1)), min_size=1,
                                  max_size=3))
        rays, _ = _cut([_lift([v])[1][0] for v in vertices(P)], list(rec.tight),
                       ((100 + i, h) for i, h in enumerate(rows)))
        assert primitive_integral(rays)
        assert all(y[-1] > 0 for y in rays)

    @given(name=st.sampled_from(sorted(CORPUS_FILES)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tight_sets_index_facets(self, name, data):
        # the tight set of each record row is exactly the facets of P through
        # its vertex: no index past P's own facets, for P and for its regions
        P = load_corpus(name).base
        f = PLConcave.make(data.draw(st.lists(cleared_affines(P.dim), min_size=1, max_size=4)), P)
        for Q in [P] + [R for R, _ in f.regions()]:
            rec = _record(Q)
            for v, T in zip(vertices(Q), rec.tight):
                assert indices(T) == {i for i, (n, r) in enumerate(pairs(Q))
                             if sum(a * c for a, c in zip(n, v)) == r}

    @pytest.mark.parametrize("name", sorted(TRIANGULATION_DIGESTS))
    def test_triangulations_unchanged(self, name):
        P = load_fano(name)
        family = normal_cone_family(P)
        regions = g_c(family, _default_grid(family)[0]).regions()
        tris = [triangulate(P.base)] + [triangulate(R) for R, _ in regions]
        assert hashlib.sha256(canon(tris).encode()).hexdigest()[:32] == TRIANGULATION_DIGESTS[name]


def reference_covariance(P):
    """cov over the simplices of triangulate(P), in fractions, each volume by _simplex_volume."""
    n, b = P.dim, barycenter(P)
    moment = [[Fraction(0)] * n for _ in range(n)]
    for s in triangulate(P):
        vol_s, sigma = _simplex_volume(s), [sum(c) for c in zip(*s)]
        for i, row in enumerate(moment):
            for j in range(n):
                row[j] += vol_s * (sum(w[i] * w[j] for w in s) + sigma[i] * sigma[j])
    return tuple(tuple(m / ((n + 1) * (n + 2)) - volume(P) * bi * bj for m, bj in zip(row, b))
                 for row, bi in zip(moment, b))


def denominator(R):
    return lcm(*(c.denominator for v in vertices(R) for c in v))


# rationals with denominators up to 12; zero and constant affines drawn on purpose
twelfths = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def cleared_affines(dim):
    return st.one_of(
        st.just(AffineFn.const(0, dim)),
        twelfths.map(lambda c: AffineFn.const(c, dim)),
        st.builds(affine, st.lists(twelfths, min_size=dim, max_size=dim), twelfths))


@st.composite
def fano_regions(draw):
    """The linearity regions of 1-4 affine pieces with denominators up to 12
    on a corpus or dim 5 polytope."""
    P = load_fano(draw(st.sampled_from(sorted(CORPUS_FILES) + list(DIM5))))
    f = PLConcave.make(draw(st.lists(cleared_affines(P.dim), min_size=1, max_size=4)), P.base)
    return [R for R, _ in f.regions()]


class TestIntegerMoments:
    """integrate_product and covariance, one integer sum each, against the fraction formulas."""

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES) + list(DIM5))
    def test_record_invariants(self, name):
        P = load_fano(name).base
        rec = _record(P)
        D = denominator(P)
        assert rec.rows == tuple(tuple(D * c for c in v) + (D,) for v in vertices(P))
        assert rec.unit == factorial(P.dim) * D ** (P.dim + 1)
        assert all(det > 0 for _, det in rec.simplices)
        assert sum(det for _, det in rec.simplices) == volume(P) * rec.unit

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES) + list(DIM5))
    def test_covariance_on_corpus(self, name):
        P = load_fano(name)
        assert covariance(P) == reference_covariance(P.base)

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES) + list(DIM5))
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_integral_on_corpus(self, name, data):
        P = load_fano(name).base
        a, b = data.draw(cleared_affines(P.dim)), data.draw(cleared_affines(P.dim))
        assert integrate_product(P, a, b) == reference_integral(P, a, b)

    @given(regions=fano_regions(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_on_regions(self, regions, data):
        for R in regions:
            a, b = data.draw(cleared_affines(R.dim)), data.draw(cleared_affines(R.dim))
            assert integrate_product(R, a, b) == reference_integral(R, a, b)
            assert covariance(FanoPolytope(R)) == reference_covariance(R)
            rec = _record(R)
            assert sum(det for _, det in rec.simplices) == volume(R) * rec.unit

    @given(regions=fano_regions(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_values_are_vertex_values(self, regions, data):
        for R in regions:
            a = data.draw(cleared_affines(R.dim))
            values, Q = _values(R, a)
            assert values == [a(v) * Q for v in vertices(R)]

    @staticmethod
    def assert_record_matches_references(P):
        # each determinant by its own elimination, the moment as the triple sum
        rec = _record(P)
        for s, det in rec.simplices:
            assert det == abs(bareiss([rec.rows[k] for k in s]))
        assert rec.moment == tuple(
            sum(det * sum(rec.rows[k][t] for k in s) for s, det in rec.simplices)
            for t in range(P.dim + 1))

    @pytest.mark.parametrize("P", [
        *(pytest.param(load_fano(name).base, id=name)
          for name in sorted(CORPUS_FILES) + list(DIM5)),
        pytest.param(cross_polytope(4), id="4-cross-polytope"),
        pytest.param(pyramid_over_square(), id="pyramid over a square"),
    ])
    def test_record_determinants_and_moment(self, P):
        self.assert_record_matches_references(P)

    @given(regions=fano_regions())
    @settings(max_examples=40, deadline=None)
    def test_record_determinants_and_moment_on_regions(self, regions):
        for R in regions:
            self.assert_record_matches_references(R)

    @pytest.mark.parametrize("name", ["blp3", "p4", "blp5"])
    def test_regions_with_common_denominator(self, name):
        # the three-piece configuration of the goldens cuts regions whose
        # vertices have a common denominator D > 1
        P = load_fano(name)
        f = tio.load_test_config(str(REPO / "tests" / "golden" / f"mix{P.dim}.json"), P)
        regions = f.regions()
        assert any(denominator(R) > 1 for R, _ in regions)
        rho = affine([Fraction(1, 2 + t) for t in range(P.dim)], Fraction(-1, 7))
        for R, a in regions:
            assert integrate_product(R, a, rho) == reference_integral(R, a, rho)
            assert covariance(FanoPolytope(R)) == reference_covariance(R)


class TestRegionSubdivision:
    def test_step_on_interval(self, p1, step_p1):
        regions = step_p1.regions()
        assert len(regions) == 2
        zero_region, zero_fn = regions[0]
        assert zero_fn.is_constant and zero_fn.constant == 0
        assert zero_region == hp(1, (1, 0), (-1, 1))
        neg_region, neg_fn = regions[1]
        assert neg_fn.gradient == (Fraction(-1),)
        assert neg_region == hp(1, (1, 1), (-1, 0))

    def test_single_affine_is_identity(self, p2):
        f = pl(p2, (1, 2, Fraction(1, 3)))
        regions = f.regions()
        assert regions == [(p2.base, f.affines[0])]

    def test_corner_cut_volumes(self, p2):
        # min{x1 + x2 + 2 - c, 0}: corner simplex c^2/2 at the vertex chart
        for c in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
            f = pl(p2, (1, 1, 2 - c), (0, 0, 0))
            vols = {volume(R) for R, _ in f.regions()}
            assert vols == {c**2 / 2, Fraction(9, 2) - c**2 / 2}

    def test_volumes_sum_and_values_match(self, bl1p2):
        f = pl(bl1p2, (1, 0, 1), (0, 1, 1), (0, 0, Fraction(3, 2)))
        regions = f.regions()
        assert sum(volume(R) for R, _ in regions) == volume(bl1p2.base)
        for R, a in regions:
            assert f(barycenter(R)) == a(barycenter(R))

    def test_duplicate_affines_pruned(self, p1):
        f = pl(p1, (0, 0), (0, 0), (-1, 0))
        assert len(f.regions()) == 2

    def test_parallel_dominated_affine_pruned(self, p2):
        # equal gradients, larger constant: never the minimum
        f = pl(p2, (1, 1, 0), (1, 1, 1))
        regions = f.regions()
        assert len(regions) == 1
        assert regions[0][1].constant == 0
        assert volume(regions[0][0]) == volume(p2.base)


class TestFacetsFromVertices:
    def test_roundtrip(self):
        P = hp(2, (1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 1))
        Q = facets_from_vertices(vertices(P))
        assert Q == P

    def test_interval_roundtrip(self):
        P = hp(1, (1, 1), (-1, Fraction(1, 3)))
        assert facets_from_vertices(vertices(P)) == P

    def test_degenerate(self):
        with pytest.raises(EmptyPolytope):
            facets_from_vertices([(0, 0), (1, 1), (2, 2)])


def test_show():
    assert show(Fraction(-1, 2)) == "-1/2"
    assert show(Fraction(5)) == "5"
    assert show((Fraction(0), Fraction(-1), 3)) == "(0, -1, 3)"
    assert show([Fraction(5, 3)]) == "(5/3)"
