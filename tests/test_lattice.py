import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricding import (
    FanoPolytope,
    HPolytope,
    dh_measure,
    e_na,
    inner_product,
    jump_weights,
    level_moments,
    vertices,
)
from toricding import io as tio
from toricding import lattice
from toricding.errors import DimensionMismatch, EmptyPolytope, InputTooLarge
from toricding.lattice import _envelope, _floor_sums

from conftest import CORPUS_FILES, REPO, load_corpus as corpus, pairs, pl
from dh_reference import upper_mass
from lattice_reference import lattice_points, vol_distribution, weight_measure
from test_golden import GOLDEN, run


def box_scan(P, k):
    """Reference enumeration: every integer point of the bounding box of kP
    that satisfies every facet, in lexicographic order."""
    base = P.base if isinstance(P, FanoPolytope) else P
    verts = vertices(base)
    ranges = [range(math.ceil(k * min(v[i] for v in verts)),
                    math.floor(k * max(v[i] for v in verts)) + 1) for i in range(base.dim)]
    return [u for u in product(*ranges)
            if all(sum(a * x for a, x in zip(n, u)) <= k * r for n, r in pairs(base))]


def jumps(f, k, points):
    """floor(k f(u/k)) at each point, as the floor of a Fraction minimum."""
    return [math.floor(min(sum(g * x for g, x in zip(a.gradient, u)) + k * a.constant
                           for a in f.affines)) for u in points]


def totals(points, mu):
    """(N, sum mu, sum mu^2, sum u, sum mu u) of the weights mu at points:
    what jump_weights returns."""
    n = len(points[0])
    return (len(points), sum(mu), sum(m * m for m in mu),
            tuple(sum(u[i] for u in points) for i in range(n)),
            tuple(sum(m * u[i] for m, u in zip(mu, points)) for i in range(n)))


def zero(P):
    return pl(P, (0,) * (P.dim + 1))


def with_flat_pieces(dim, rows, flat):
    """rows with the last gradient entry zeroed where flat says so: a piece
    of slope 0 along the fibers, whose runs take no floor sum."""
    return [(*row[:dim - 1], 0, row[dim]) if z else tuple(row) for row, z in zip(rows, flat)]


@st.composite
def clipped_boxes(draw):
    """A rational box around the origin cut by primitive normals with
    non-integer rhs; the origin stays inside, so the result is nonempty."""
    dim = draw(st.integers(1, 3))
    half = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4)
    rows = [(tuple(s * int(t == i) for t in range(dim)), draw(half))
            for i in range(dim) for s in (1, -1)]
    for _ in range(draw(st.integers(0, 3))):
        normal = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
                      .filter(lambda v: math.gcd(*v) == 1))
        den = draw(st.integers(2, 5))
        num = draw(st.integers(1, 4 * den).filter(lambda m: m % den))
        rows.append((normal, Fraction(num, den)))
    return HPolytope.from_inequalities(dim, rows)


class TestLatticePoints:
    def test_interval_k2(self, p1):
        assert lattice_points(p1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_p2_k1_count(self, p2):
        assert len(lattice_points(p2, 1)) == 10

    def test_bl1p2_k1_pick(self, bl1p2):
        # Pick's theorem: area 4, boundary 8 -> 4 + 8/2 + 1 = 9
        assert len(lattice_points(bl1p2, 1)) == 9

    def test_growth_matches_volume(self, p2):
        # N_k = (L^n/n!) k^n + O(k^{n-1})
        for k in (8, 16):
            n_k = len(lattice_points(p2, k))
            assert abs(n_k - Fraction(9, 2) * k**2) <= 10 * k

    def test_k_positive(self, p1):
        with pytest.raises(ValueError):
            jump_weights(zero(p1), 0)

    @pytest.mark.parametrize("name", sorted(CORPUS_FILES))
    def test_matches_box_scan_on_corpus(self, name):
        P = corpus(name)
        for k in range(1, {1: 6, 2: 6, 3: 4, 4: 3}[P.dim]):
            assert lattice_points(P, k) == box_scan(P, k)

    def test_redundant_rows_match_box_scan(self):
        # P2 with x + 2y <= 7/2, tight nowhere, and 2x + y <= 3, tight at one vertex
        P = HPolytope.from_inequalities(2, [([-1, 0], 1), ([0, -1], 1), ([1, 1], 1),
                                            ([1, 2], Fraction(7, 2)), ([2, 1], 3)])
        upper, _ = lattice._fiber_rows(P)[-1]
        assert ((2,), 4, 7) in upper and ((2,), 1, 3) in upper
        for k in range(1, 7):
            assert lattice_points(P, k) == box_scan(P, k)

    @given(clipped_boxes(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_box_scan_on_rational_polytopes(self, P, k):
        assert lattice_points(P, k) == box_scan(P, k)

    def test_lexicographic_order(self):
        pts = lattice_points(corpus("blp3"), 3)
        assert pts == sorted(set(pts))


EHRHART = {
    "p3": lambda k: math.comb(4 * k + 3, 3),
    "blp3": lambda k: math.comb(4 * k + 3, 3) - math.comb(2 * k + 2, 3),
    "p1x3": lambda k: (2 * k + 1) ** 3,
    "p1x4": lambda k: (2 * k + 1) ** 4,
    "p4": lambda k: math.comb(5 * k + 4, 4),
}


class TestEhrhartClosedForms:
    @pytest.mark.parametrize("name, k, count", [
        ("p3", 16, 47905),
        ("blp3", 4, 849),
        ("blp3", 8, 5729),
        ("p1x3", 8, 4913),
        ("p1x4", 8, 83521),
        ("p4", 8, 135751),
    ])
    def test_count(self, name, k, count):
        assert EHRHART[name](k) == count
        assert jump_weights(zero(corpus(name)), k)[0] == count

    @pytest.mark.parametrize("name", sorted(EHRHART))
    def test_small_levels(self, name):
        P = corpus(name)
        for k in range(1, 5):
            assert jump_weights(zero(P), k)[0] == EHRHART[name](k)


class TestResourceGuard:
    def test_p4_k40_refused_before_enumerating(self, monkeypatch):
        def enumerate_rows(base):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(lattice, "_fiber_rows", enumerate_rows)
        with pytest.raises(InputTooLarge, match=r"k = 40: about 66666667 lattice points"):
            jump_weights(zero(corpus("p4")), 40)

    def test_zero_volume_domain_refused(self, monkeypatch):
        # the estimate vol(P) k^n is 0 on a segment, so it cannot refuse it
        def enumerate_rows(base):
            raise AssertionError("enumeration started")

        segment = HPolytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])
        monkeypatch.setattr(lattice, "_fiber_rows", enumerate_rows)
        with pytest.raises(EmptyPolytope, match="full-dimensional"):
            jump_weights(zero(segment), 10**6)


class TestJumpWeights:
    def test_zero_function(self, p2):
        # 28 points of 2P, all of weight 0, summing to the barycenter 0
        assert jump_weights(zero(p2), 2) == (28, 0, 0, (0, 0), (0, 0))

    def test_step_k2(self, p1, step_p1):
        # weights 0, 0, 0, -1, -2 at u = -2..2
        assert jump_weights(step_p1, 2) == (5, -3, 5, (0,), (-5,))

    def test_integer_affine_no_rounding(self, p2):
        f = pl(p2, (2, -1, 0))
        points = lattice_points(p2, 3)
        assert jump_weights(f, 3) == totals(points, [2 * u[0] - u[1] for u in points])

    @given(
        st.sampled_from(["p1", "p2", "bl1p2", "stretched", "p3"]),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                 min_size=4, max_size=12),
        st.integers(1, 5),
        st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @example("p2", [-1, 0, 0, 0, 0, 0, 0, Fraction(1, 2)], 3, [False] * 6)  # slope 0
    @example("p2", [1, Fraction(1, 3), 0, 0, -1, Fraction(1, 2)], 4, [False] * 6)  # sloped
    @settings(max_examples=60, deadline=None)
    def test_floor_of_fraction_minimum(self, name, coeffs, k, flat):
        P = corpus(name)
        row = P.dim + 1
        rows = [coeffs[i:i + row] for i in range(0, len(coeffs) - row + 1, row)]
        f = pl(P, *with_flat_pieces(P.dim, rows, flat))
        points = box_scan(P, k)
        assert jump_weights(f, k) == totals(points, jumps(f, k, points))


@given(
    st.sampled_from(["p1", "p2", "bl1p2", "stretched", "p3"]),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
             min_size=8, max_size=12),
    st.integers(1, 5),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.integers(1, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
@settings(max_examples=60, deadline=None)
def test_level_sums_match_per_point_fractions(name, coeffs, k, head, last, lam):
    """The level's moments and pairing, and the per-point reference, equal
    the per-point Fraction formula over box_scan."""
    assume(any(c.denominator > 1 for c in coeffs))
    P = corpus(name)
    row = P.dim + 1
    f = pl(P, *(tuple(coeffs[i:i + row]) for i in range(0, len(coeffs) - row + 1, row)))
    rho = [*head[:P.dim - 1], last]
    points = box_scan(P, k)
    mu = jumps(f, k, points)
    nu = [sum(r * x for r, x in zip(rho, u)) for u in points]
    N = len(points)
    wm = weight_measure(f, k)
    assert wm.N_k == N
    assert wm.entries == tuple((Fraction(m, k), c) for m, c in sorted(Counter(mu).items()))
    assert wm.mean() == sum(Fraction(m, k) for m in mu) / N
    assert wm.second_moment() == sum(Fraction(m, k) ** 2 for m in mu) / N
    pairing = (Fraction(sum(m * n for m, n in zip(mu, nu)), k * k * N)
               - Fraction(sum(mu) * sum(nu), k * k * N * N))
    assert level_moments(f, rho, k) == (N, wm.mean(), wm.second_moment(), pairing)
    assert vol_distribution(f, k, lam) == Fraction(
        sum(m >= math.ceil(k * lam) for m in mu), N)


class TestWeightMeasure:
    """The per-point weight measure that the level's moments are checked
    against, and the library's mean read from the totals."""

    def test_zero_function_unit_atom(self, p2):
        f = pl(p2, (0, 0, 0))
        wm = weight_measure(f, 4)
        assert wm.entries == ((0, wm.N_k),)
        assert wm.mass() == 1

    def test_step_k2(self, step_p1):
        wm = weight_measure(step_p1, 2)
        assert wm.N_k == 5
        assert wm.entries == ((Fraction(-1), 1), (Fraction(-1, 2), 1), (0, 3))
        assert wm.mean() == Fraction(-3, 10)
        assert level_moments(step_p1, [1], 2)[:2] == (5, Fraction(-3, 10))

    def test_mass_always_one(self, step_p2):
        for k in (1, 3, 8):
            assert weight_measure(step_p2, k).mass() == 1

    def test_support_below_max(self, step_p2):
        target = step_p2.max_value()
        for k in (2, 4, 8, 16):
            wm = weight_measure(step_p2, k)
            assert wm.max_support() <= target
            assert target - wm.max_support() <= Fraction(1, k)

    def test_support_above_min(self, step_p2):
        # floor convention: locations stay within 1/k of the true minimum
        lower = step_p2.min_value()
        for k in (2, 4, 8):
            wm = weight_measure(step_p2, k)
            assert min(loc for loc, _ in wm.entries) >= lower - Fraction(1, k)

    def test_mean_error_doubling_ladder(self, step_p1, step_p2):
        for f in (step_p1, step_p2):
            exact = e_na(f)
            rho = [1] * f.domain.dim
            for k in (4, 8, 16, 32):
                err_k = abs(level_moments(f, rho, k)[1] - exact)
                err_2k = abs(level_moments(f, rho, 2 * k)[1] - exact)
                assert err_2k <= 2 * (err_k + Fraction(1, k))


def thin_strip(dim):
    """[-1, 1]^(dim - 2) x {(y, x) : 0 <= y <= 3, 1/10 <= x - y/3 <= 3/10}: at
    k <= 3 the x-interval, of length k/5, misses the integers at some y."""
    box = [(tuple(s * int(t == i) for t in range(dim)), 1)
           for i in range(dim - 2) for s in (1, -1)]
    y, x = (tuple(int(t == i) for t in range(dim)) for i in (dim - 2, dim - 1))
    return HPolytope.from_inequalities(dim, box + [
        (tuple(-a for a in y), 0), (y, 3),
        (tuple(a - 3 * b for a, b in zip(y, x)), Fraction(-3, 10)),
        (tuple(3 * b - a for a, b in zip(y, x)), Fraction(9, 10))])


def assert_first_moments(f, k, rho):
    """The level's totals, and its weight pairing, against a brute-force sum over
    box_scan."""
    points = box_scan(f.domain, k)
    mu = jumps(f, k, points)
    N = len(points)
    assert jump_weights(f, k) == totals(points, mu)
    nu = [sum(r * x for r, x in zip(rho, u)) for u in points]
    assert level_moments(f, rho, k)[3] == (
        Fraction(sum(m * v for m, v in zip(mu, nu)), k * k * N)
        - Fraction(sum(mu) * sum(nu), k * k * N * N))


@st.composite
def first_moment_cases(draw):
    """A dim 1-3 domain (corpus, clipped box or thin strip), 1-4 random pieces
    on it, some flat along the fibers, a level k >= 2, at which each domain
    has a point, and an integer rho."""
    P = draw(st.one_of(
        st.sampled_from(["p1", "p2", "bl1p2", "p1xp1", "stretched", "p3", "blp3", "p1x3"])
        .map(lambda name: corpus(name).base),
        clipped_boxes(),
        st.integers(2, 3).map(thin_strip)))
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    rows = draw(st.lists(st.lists(coeff, min_size=P.dim + 1, max_size=P.dim + 1),
                         min_size=1, max_size=4))
    flat = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rho = draw(st.lists(st.integers(-3, 3), min_size=P.dim, max_size=P.dim))
    return (pl(P, *with_flat_pieces(P.dim, rows, flat)),
            draw(st.integers(2, 4 if P.dim < 3 else 3)), rho)


@given(first_moment_cases())
@settings(max_examples=80, deadline=None)
def test_level_first_moments_match_box_scan(case):
    assert_first_moments(*case)


@pytest.mark.parametrize("dim", [2, 3])
def test_thin_strip_skips_empty_fibers(dim):
    """A parent run ys with empty fibers: they are skipped, and the sums hold."""
    P = thin_strip(dim)
    f = pl(P, (*[Fraction(1, 3)] * dim, 0), (*[-1] * (dim - 1), Fraction(1, 2), 1))
    for k in (2, 3):
        empty = [y for _, ys, lo, hi in lattice._fibers(P, k)
                 for y, a, b in zip(ys, lo, hi) if -a > b]
        assert empty
        assert lattice_points(P, k) == box_scan(P, k)
        assert_first_moments(f, k, [1, -2, 3][:dim])


class TestGaborInner:
    def test_zero_rho(self, step_p2):
        assert level_moments(step_p2, [0, 0], 4)[3] == 0

    def test_constant_k_compatible(self, p1):
        # kappa k integral: exact zero at every level
        f = pl(p1, (0, Fraction(3, 2)))
        assert level_moments(f, [1], 2)[3] == 0
        assert level_moments(f, [1], 4)[3] == 0

    def test_requires_integer_rho(self, step_p2):
        with pytest.raises(ValueError):
            level_moments(step_p2, [Fraction(1, 2), 0], 4)

    def test_dimension_mismatch(self, step_p2):
        with pytest.raises(DimensionMismatch):
            level_moments(step_p2, [1], 4)

    def test_converges_to_inner_product(self, step_p1):
        target = inner_product(step_p1, [1])
        errs = [abs(level_moments(step_p1, [1], k)[3] - target) for k in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestVolDistribution:
    def test_below_support(self, step_p1):
        assert vol_distribution(step_p1, 4, Fraction(-3)) == 1

    def test_above_support(self, step_p1):
        assert vol_distribution(step_p1, 4, Fraction(1, 2)) == 0

    def test_limit_value(self, step_p1):
        # vol{x <= 1/2}/2 = 3/4
        vals = [vol_distribution(step_p1, k, Fraction(-1, 2)) for k in (16, 64, 256)]
        errs = [abs(v - Fraction(3, 4)) for v in vals]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= Fraction(1, 64)

    def test_matches_upper_mass(self, step_p2):
        m = dh_measure(step_p2)
        lam = Fraction(-1, 2)
        discrete = vol_distribution(step_p2, 64, lam)
        assert abs(discrete - upper_mass(m, lam)) <= Fraction(1, 16)


class TestFloorSums:
    @given(st.integers(0, 40), st.integers(-50, 50), st.integers(-200, 200), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, n, a, b, c):
        ys = [(a * i + b) // c for i in range(n)]
        assert _floor_sums(n, a, b, c) == (
            sum(ys), sum(i * y for i, y in enumerate(ys)), sum(y * y for y in ys))

    @pytest.mark.parametrize("n, a, b, c, sums", [
        (0, 3, 5, 7, (0, 0, 0)),
        (1, -5, -3, 2, (-2, 0, 4)),  # one point: (-3) // 2
        (4, 0, -7, 3, (-12, -18, 36)),  # s = 0: the constant -3
        (3, -1, 0, 1, (-3, -5, 5)),  # 0, -1, -2
        (5, 7, 2, 12, (4, 13, 6)),  # 0, 0, 1, 1, 2
    ])
    def test_cases(self, n, a, b, c, sums):
        assert _floor_sums(n, a, b, c) == sums


def envelope_min(lines, x):
    return min(A + s * x for A, s in lines)


@st.composite
def pencils(draw):
    """Lines of distinct slopes in increasing order and an interval lo..hi."""
    slopes = sorted(draw(st.sets(st.integers(-6, 6), min_size=1, max_size=5)))
    lines = [(draw(st.integers(-30, 30)), s) for s in slopes]
    lo = draw(st.integers(-10, 10))
    return lines, lo, lo + draw(st.integers(0, 20))


class TestEnvelope:
    @given(pencils())
    @settings(max_examples=300, deadline=None)
    def test_runs_partition_and_give_the_minimum(self, pencil):
        lines, lo, hi = pencil
        runs = _envelope(lines, lo, hi)
        assert runs[0][2] == lo and runs[-1][3] == hi
        assert all(x1 + 1 == nxt[2] for (*_, x1), nxt in zip(runs, runs[1:]))
        for A, s, x0, x1 in runs:
            assert x0 <= x1 and (A, s) in lines
            assert all(A + s * x == envelope_min(lines, x) for x in range(x0, x1 + 1))

    def test_tie_at_a_crossing(self):
        # -x and x cross at 0; the tie goes to the smaller slope
        assert _envelope([(0, -1), (0, 1)], -3, 3) == ((0, 1, -3, 0), (0, -1, 1, 3))

    def test_line_never_minimal(self):
        # the constant 1 lies above min(-x, x) except near 0, where 0 is lower
        lines = [(0, -2), (1, 0), (0, 2)]
        assert _envelope(lines, -4, 4) == ((0, 2, -4, 0), (0, -2, 1, 4))

    def test_single_line(self):
        assert _envelope([(5, -3)], 2, 9) == ((5, -3, 2, 9),)


@pytest.mark.parametrize("name, k", [
    ("p3", 4), ("blp3", 4), ("p1x3", 3), ("p4", 3), ("p1x4", 2)])
def test_level_sums_on_corpus_mix(name, k):
    """The level's totals, moments and pairing against floor(k f(u/k)) at
    each point, on the three-piece configurations."""
    P = corpus(name)
    f = tio.load_test_config(str(REPO / "tests" / "golden" / f"mix{P.dim}.json"), P)
    assert any(x.denominator > 1 for a in f.affines for x in (*a.gradient, a.constant))
    rho = [1, -2, 3, -1][:P.dim]
    points = lattice_points(P, k)
    mu = jumps(f, k, points)
    nu = [sum(r * x for r, x in zip(rho, u)) for u in points]
    N = len(points)
    assert jump_weights(f, k) == totals(points, mu)
    assert level_moments(f, rho, k) == (
        N, Fraction(sum(mu), k * N), Fraction(sum(m * m for m in mu), k * k * N),
        Fraction(sum(m * v for m, v in zip(mu, nu)), k * k * N)
        - Fraction(sum(mu) * sum(nu), k * k * N * N))


@pytest.mark.parametrize("case", ["oracle:p4", "oracle-mix:p4"])
def test_oracle_builds_each_level_once(monkeypatch, case):
    """oracle on a four-k ladder calls jump_weights once per level."""
    calls = []
    build = lattice.jump_weights
    monkeypatch.setattr(lattice, "jump_weights", lambda f, k: calls.append(k) or build(f, k))
    argv = json.loads(GOLDEN.read_text())[case]["argv"]
    argv[argv.index("--k-ladder") + 1] = "1,2,3,4"
    code, out, _ = run(argv)
    assert code == 2 and len(out.splitlines()) == 5  # errors above --tol at k = 4
    assert calls == [1, 2, 3, 4]
