from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricding import (
    AffineFn,
    HPolytope,
    PLConcave,
    d_na,
    d_z_na,
    dh_measure,
    e_na,
    extremal_affine,
    inner_product,
    j_na,
    reduce_jna,
    validate_fano,
)
from toricding import io as tio
from toricding import rationalpoly as rp
from toricding.errors import DimensionMismatch, EmptyPolytope, InternalError
from toricding.functionals import DHMeasure
from toricding import geometry
from toricding.geometry import integrate_product, vertices, volume
from toricding.lattice import level_moments

from dh_reference import bspline, max_support, reference_dh_measure, upper_mass
from fraction_reference import (
    reference_e_na,
    reference_evaluate,
    reference_max_value,
    reference_min_value,
    reference_reduce_jna,
    reference_region,
)

from conftest import (
    CORPUS_FILES,
    REPO,
    affine,
    clip,
    lagrange_interpolate,
    load_corpus,
    make_bl1p2,
    make_p1,
    make_p1xp1,
    make_p2,
    make_stretched,
    pl,
)

rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_rational = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def random_pl(domain, draw_rows):
    return pl(domain, *draw_rows)


CORPUS = {name: load_corpus(name) for name in sorted(CORPUS_FILES)}


@st.composite
def corpus_configurations(draw):
    """Up to four pieces (three in dim 4) on a dims 1-4 corpus polytope,
    each entry with its own denominator up to 6."""
    P = CORPUS[draw(st.sampled_from(sorted(CORPUS)))]
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = draw(st.lists(st.tuples(*[entry] * (P.dim + 1)), min_size=1,
                         max_size=3 if P.dim == 4 else 4))
    if len(rows) > 1 and draw(st.booleans()):  # a parallel piece, another constant
        rows.append(rows[0][:-1] + (draw(entry),))
    return pl(P, *rows)


pl_rows_p2 = st.lists(
    st.tuples(small_rational, small_rational, small_rational),
    min_size=1,
    max_size=3,
)


class TestDHMeasure:
    def test_constant_is_unit_atom(self, p2):
        m = dh_measure(pl(p2, (0, 0, Fraction(3, 7))))
        assert m.atoms == ((Fraction(3, 7), 1),)
        assert m.pieces == ()

    def test_negative_atom_is_internal_error(self):
        with pytest.raises(InternalError, match="negative atom mass"):
            DHMeasure(atoms=((Fraction(0), Fraction(-1, 2)),), pieces=())

    def test_step_function(self, step_p1):
        m = dh_measure(step_p1)
        assert m.atoms == ((0, Fraction(1, 2)),)
        assert m.pieces == ((Fraction(-1), Fraction(0), (Fraction(1, 2),)),)

    def test_normal_cone_p1_closed_form(self, p1):
        # min{1/2 - x... the corner family at c = 1/2 on the interval
        from toricding import dh_closed_form, g_c, normal_cone_family

        fam = normal_cone_family(p1)
        m = dh_measure(g_c(fam, Fraction(1, 2)))
        assert m.atoms == ((0, Fraction(3, 4)),)
        assert m.pieces == ((Fraction(-1, 2), Fraction(0), (Fraction(1, 2),)),)
        assert m == dh_closed_form(1, 2, Fraction(1, 2))

    def test_mass_mean_support(self, p2, step_p2):
        m = dh_measure(step_p2)
        assert m.moment(0) == 1
        assert m.moment(1) == e_na(step_p2)
        assert max_support(m) == step_p2.max_value()

    @given(f=corpus_configurations())
    @settings(max_examples=40, deadline=None)
    def test_pushforward_properties_random(self, f):
        # tc-eval prints e_na(f) as the mean of the DH measure
        m = dh_measure(f)
        assert m.moment(0) == 1
        assert m.moment(1) == e_na(f)
        assert max_support(m) == f.max_value()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_second_moment_is_region_integral(self, data):
        # oracle reads the exact second moment as (1/vol) sum_R int_R a^2; a
        # constant piece adds a constant region, an atom of the DH measure
        f = data.draw(corpus_configurations())
        affines = f.affines[:4]
        if data.draw(st.booleans()):
            level = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
            affines = affines[:3] + (AffineFn.const(level, f.domain.dim),)
        f = PLConcave.make(affines, f.domain)
        total = sum(integrate_product(R, a, a) for R, a in f.regions())
        assert total / volume(f.domain) == dh_measure(f).moment(2)

    @pytest.mark.parametrize("level, atom", [(Fraction(-1, 2), (Fraction(-1, 2), Fraction(3, 4))),
                                             (Fraction(2), (Fraction(0), Fraction(1, 2)))])
    def test_second_moment_with_atom(self, p1, level, atom):
        # min(0, -x, level) on [-1, 1]: the constant regions are atoms
        f = pl(p1, (0, 0), (-1, 0), (0, level))
        assert dh_measure(f).atoms == (atom,)
        total = sum(integrate_product(R, a, a) for R, a in f.regions())
        assert total / volume(f.domain) == dh_measure(f).moment(2)

    def test_complementary_cdf_matches_sections(self, step_p2):
        assert_upper_mass_matches_sections(step_p2)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_complementary_cdf_random_configurations(self, data):
        P = data.draw(st.sampled_from(SECTION_DOMAINS))
        rows = data.draw(st.lists(st.tuples(*[small_rational] * (P.dim + 1)),
                                  min_size=1, max_size=3))
        assert_upper_mass_matches_sections(pl(P, *rows))

    @pytest.mark.parametrize("name", ["p3", "blp3", "p1x3", "p4", "p1x4"])
    def test_complementary_cdf_dim_3_4_corpus(self, name):
        P = golden_polytope(name)
        path = REPO / "tests" / "golden" / f"mix{P.dim}.json"
        assert_upper_mass_matches_sections(tio.load_test_config(str(path), P))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_coordinate_on_cube_is_uniform(self, dim):
        # the triangulated cube has simplices whose values of x_1 repeat
        # up to dim times; their knot terms must still add up to 1/2 on [-1, 1]
        m = dh_measure(pl(cube(dim), (1,) + (0,) * dim))
        assert m.atoms == ()
        assert m.pieces == ((-1, 1, (Fraction(1, 2),)),)


class TestRegionVertexCount:
    def test_step(self, step_p1, step_p2):
        # the interval's ends and the kink at 0; the triangle's vertices and
        # the two ends of the kink segment on x = 0
        assert step_p1.region_vertex_count() == 3
        assert step_p2.region_vertex_count() == 5

    @given(f=corpus_configurations())
    @settings(max_examples=40, deadline=None)
    def test_counts_distinct_region_vertices(self, f):
        # regions share the vertices on their common faces, counted once
        points = {v for R, _ in f.regions() for v in vertices(R)}
        assert f.region_vertex_count() == len(points)


def cube(dim):
    rows = [(tuple(s if j == i else 0 for j in range(dim)), 1)
            for i in range(dim) for s in (1, -1)]
    return HPolytope.from_inequalities(dim, rows)


def assert_canonical(m):
    """The unique form dh_measure gives: sorted positive atoms;
    sorted, disjoint, nonzero pieces with no equal touching neighbours."""
    locs = [loc for loc, _ in m.atoms]
    assert locs == sorted(set(locs))
    assert all(mass > 0 for _, mass in m.atoms)
    for lo, hi, coeffs in m.pieces:
        assert lo < hi
        assert coeffs and coeffs == rp.trim(coeffs)
    for (_, hi, c), (lo, _, d) in zip(m.pieces, m.pieces[1:]):
        assert hi <= lo
        assert hi < lo or c != d


class TestDHCanonical:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_configurations_dims_1_3(self, data):
        P = data.draw(st.sampled_from(SECTION_DOMAINS))
        # half-integer entries often give vertex values inside the support
        # where the density does not change, so neighbours must be merged
        halves = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])
        entry = data.draw(st.sampled_from([small_rational, halves]))
        rows = data.draw(st.lists(st.tuples(*[entry] * (P.dim + 1)), min_size=1, max_size=4))
        assert_canonical(dh_measure(pl(P, *rows)))

    @pytest.mark.parametrize("name, rows, count", [("stretched", [(0, 2, 0), (1, 1, 1)], 2),
                                                   ("p1x3", [(1, -1, 2, 2)], 3)])
    def test_equal_neighbours_merged(self, name, rows, count):
        m = dh_measure(pl(load_corpus(name), *rows))
        assert_canonical(m)
        assert len(m.pieces) == count

    @pytest.mark.parametrize("config", ["mix", "step"])
    @pytest.mark.parametrize("name", ["p3", "blp3", "p1x3", "p4", "p1x4"])
    def test_dim_3_4_corpus(self, name, config):
        P = golden_polytope(name)
        path = REPO / "tests" / "golden" / f"{config}{P.dim}.json"
        assert_canonical(dh_measure(tio.load_test_config(str(path), P)))


class TestDHReference:
    """dh_measure equals the B-spline reference, knots of every multiplicity included."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_configurations_dims_1_4(self, data):
        P = data.draw(st.sampled_from(SECTION_DOMAINS + [golden_polytope("p4")]))
        # half-integer entries repeat vertex values within a simplex
        halves = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])
        entry = data.draw(st.sampled_from([small_rational, halves]))
        rows = data.draw(st.lists(st.tuples(*[entry] * (P.dim + 1)), min_size=1, max_size=3))
        f = pl(P, *rows)
        assert dh_measure(f) == reference_dh_measure(f)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_coordinate_on_cube(self, dim):
        # a knot of multiplicity up to dim on every simplex
        f = pl(cube(dim), (1,) + (0,) * dim)
        assert dh_measure(f) == reference_dh_measure(f)

    @pytest.mark.parametrize("name, config", [("p1x3", "step3"), ("p1x4", "step4"),
                                              ("p5", "mix5"), ("blp5", "mix5"),
                                              ("p1x5", "mix5")])
    def test_golden_configurations(self, name, config):
        f = tio.load_test_config(str(REPO / "tests" / "golden" / f"{config}.json"),
                                 golden_polytope(name))
        assert dh_measure(f) == reference_dh_measure(f)


def golden_polytope(name):
    return validate_fano(tio.load_polytope(str(REPO / "tests" / "golden" / f"{name}.json")))


SECTION_DOMAINS = [make_p1(), make_p2(), make_bl1p2(), make_p1xp1(), make_stretched(),
                   golden_polytope("p3"), golden_polytope("p1x3")]


def assert_upper_mass_matches_sections(f):
    """upper_mass equals the volume of {f >= lam}, summed region by region
    over clips, at every breakpoint and at the quarter points between.

    upper_mass is a polynomial of degree <= dim on each interval, so in
    dims <= 4 these five points per interval determine it there.
    """
    m = dh_measure(f)
    vol = volume(f.domain)
    breaks = sorted({loc for loc, _ in m.atoms} | {x for lo, hi, _ in m.pieces for x in (lo, hi)})
    inner = [lo + (hi - lo) * Fraction(i, 4) for lo, hi in zip(breaks, breaks[1:]) for i in (1, 2, 3)]
    for lam in breaks + inner:
        direct = Fraction(0)
        for R, a in f.regions():
            if a.is_constant:
                if a.constant >= lam:
                    direct += volume(R)
                continue
            try:
                direct += volume(clip(R, [-g for g in a.gradient], a.constant - lam))
            except EmptyPolytope:
                pass
        assert upper_mass(m, lam) == direct / vol, lam


knots = st.lists(rational, min_size=2, max_size=6).filter(lambda t: len(set(t)) > 1)


class TestBSpline:
    @given(t=knots)
    @settings(max_examples=50, deadline=None)
    def test_total_mass_one(self, t):
        assert sum(rp.integrate(c, lo, hi) for lo, hi, c in bspline(t)) == 1

    @given(t=knots)
    @settings(max_examples=50, deadline=None)
    def test_mean_is_knot_average(self, t):
        mean = sum(rp.integrate((Fraction(0),) + c, lo, hi) for lo, hi, c in bspline(t))
        assert mean == Fraction(sum(t), len(t))

    @given(t=knots)
    @settings(max_examples=50, deadline=None)
    def test_support_is_knot_hull(self, t):
        pieces = bspline(t)
        assert pieces[0][0] == min(t) and pieces[-1][1] == max(t)
        assert [lo for lo, _, _ in pieces[1:]] == [hi for _, hi, _ in pieces[:-1]]
        assert all(rp.evaluate(c, (lo + hi) / 2) > 0 for lo, hi, c in pieces)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_knot_of_multiplicity_n(self, n):
        # M(x; 0, 1, ..., 1) = n x^(n-1) and M(x; 0, ..., 0, 1) = n (1 - x)^(n-1)
        up = bspline([0] + [1] * n)
        down = bspline([0] * n + [1])
        assert up == [(0, 1, (0,) * (n - 1) + (n,))]
        assert down == [(0, 1, tuple(n * comb(n - 1, k) * (-1) ** k for k in range(n)))]

    def test_single_distinct_knot_rejected(self):
        with pytest.raises(ValueError):
            bspline([1, 1, 1])


class TestIntegerEvaluation:
    """The integer evaluations on the kernel record equal the Fraction references."""

    @given(f=corpus_configurations())
    @settings(max_examples=60, deadline=None)
    def test_functionals_match_fraction_reference(self, f):
        assert e_na(f) == reference_e_na(f)
        assert f.max_value() == reference_max_value(f)
        assert f.min_value() == reference_min_value(f)

    @given(f=corpus_configurations())
    @settings(max_examples=60, deadline=None)
    def test_region_rows_match_fraction_reference(self, f):
        uniq = list(dict.fromkeys(f.affines))
        for a in uniq:
            R, expected = geometry._region(f.domain, a, uniq), reference_region(f.domain, a, uniq)
            assert R == expected
            assert R is None or R.parent is f.domain

    # the tie at b of x and y on Bl_pt P2, its two pieces in either order
    @example(f=pl(CORPUS["bl1p2"], (0, 1, 0), (1, 0, 0)))
    @example(f=pl(CORPUS["bl1p2"], (1, 0, 0), (0, 1, 0), (1, 1, 1)))
    @given(f=corpus_configurations())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_reduce_jna_matches_fraction_reference(self, f):
        assert reduce_jna(f) == reference_reduce_jna(f)

    @example(p=[], x=Fraction(1, 3))
    @example(p=[1, -2, 3], x=-2)
    @example(p=[Fraction(1, 2), 0, Fraction(-3, 4)], x=Fraction(-5, 3))
    @given(p=st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12)),
                      max_size=8),
           x=st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=12)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_evaluate_matches_fraction_horner(self, p, x):
        value = rp.evaluate(p, x)
        assert type(value) is Fraction and value == reference_evaluate(p, x)

    @pytest.mark.parametrize("config", ["mix", "step"])
    @pytest.mark.parametrize("name", ["p3", "blp3", "p1x3", "p4", "p1x4"])
    def test_dh_mean_is_energy_on_dim_3_4_goldens(self, name, config):
        P = golden_polytope(name)
        f = tio.load_test_config(str(REPO / "tests" / "golden" / f"{config}{P.dim}.json"), P)
        assert dh_measure(f).moment(1) == e_na(f) == reference_e_na(f)


class TestEnergy:
    def test_constant(self, p2):
        assert e_na(pl(p2, (0, 0, Fraction(5, 3)))) == Fraction(5, 3)

    def test_step(self, step_p1):
        assert e_na(step_p1) == Fraction(-1, 4)

    def test_affine_is_value_at_barycenter(self, bl1p2):
        f = pl(bl1p2, (2, Fraction(1, 3), Fraction(-1, 2)))
        b = bl1p2.barycenter()
        assert e_na(f) == f.affines[0](b)


class TestJFunctional:
    def test_constant_zero(self, p1xp1):
        assert j_na(pl(p1xp1, (0, 0, Fraction(9, 2)))) == 0

    def test_step(self, step_p1):
        assert j_na(step_p1) == Fraction(1, 4)

    def test_linear(self, p1):
        assert j_na(pl(p1, (1, 0))) == 1

    @given(rows=pl_rows_p2)
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_zero_iff_constant(self, rows):
        from conftest import make_p2

        f = pl(make_p2(), *rows)
        j = j_na(f)
        assert j >= 0
        regions = f.regions()
        constant = len(regions) == 1 and regions[0][1].is_constant
        assert (j == 0) == constant


class TestDingInvariant:
    def test_constant_zero(self, p2):
        assert d_na(pl(p2, (0, 0, Fraction(-7, 5)))) == 0

    def test_product(self, bl1p2):
        # f = <a, x>: d_na = -<a, b>
        f = pl(bl1p2, (1, 0, 0))
        assert d_na(f) == Fraction(1, 12)

    def test_normal_cone_value(self, p1):
        from toricding import g_c, normal_cone_family

        fam = normal_cone_family(p1)
        c = Fraction(1, 2)
        assert d_na(g_c(fam, c)) == c**2 / 4

    @pytest.mark.parametrize("rows", [
        pytest.param([((1, 0), 0), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], id="on a facet"),
        pytest.param([((1, 0), 2), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 1)], id="outside"),
    ])
    def test_origin_not_interior(self, rows):
        f = pl(HPolytope.from_inequalities(2, rows), (1, 0, 0))
        with pytest.raises(ValueError, match="^Ding invariant needs the origin interior"):
            d_na(f)


class TestInnerProduct:
    def test_constant_vanishes(self, p2):
        assert inner_product(pl(p2, (0, 0, 42)), [Fraction(1, 3), -7]) == 0

    def test_step(self, step_p1):
        assert inner_product(step_p1, [1]) == Fraction(-1, 6)

    def test_zero_rho(self, step_p2):
        assert inner_product(step_p2, [0, 0]) == 0

    def test_dimension_mismatch(self, step_p2):
        with pytest.raises(DimensionMismatch):
            inner_product(step_p2, [1])

    @given(rows=pl_rows_p2, r1=small_rational, r2=small_rational, s=small_rational)
    @settings(max_examples=25, deadline=None)
    def test_linear_in_rho(self, rows, r1, r2, s):
        from conftest import make_p2

        f = pl(make_p2(), *rows)
        lhs = inner_product(f, [r1 + s * r2, r2])
        rhs = inner_product(f, [r1, 0]) + inner_product(f, [s * r2, r2])
        assert lhs == rhs


class TestRelativeDing:
    def test_product_vanishes_exactly(self, corpus):
        import random

        rng = random.Random(7)
        for P in corpus.values():
            ext = extremal_affine(P)
            for _ in range(5):
                a = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(P.dim)]
                kappa = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                f = PLConcave.make([affine(a, kappa)], P)
                assert d_z_na(f, ext) == 0

    def test_reduces_to_ding_when_theta_zero(self, p2, step_p2):
        ext = extremal_affine(p2)
        assert d_z_na(step_p2, ext) == d_na(step_p2)

    # a constant a0 (its region an atom) and two sloped a0, one with another region
    @example(f=pl(CORPUS["bl1p2"], (0, 0, 0), (1, 1, Fraction(-1, 2))))
    @example(f=pl(CORPUS["bl1p2"], (1, 1, 2)))
    @example(f=pl(CORPUS["bl1p2"], (1, 0, 0), (0, -1, 0)))
    @given(f=corpus_configurations())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_theta_pairing_is_the_generic_pairing(self, f):
        """d_z_na pairs f with theta through cov g = vol b; inner_product integrates."""
        ext = extremal_affine(validate_fano(f.domain))
        assert d_z_na(f, ext) == d_na(f) + inner_product(f, ext.theta.gradient)

    @pytest.mark.parametrize("name", ["p5", "blp5", "p1x5"])
    @given(data=st.data())
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_theta_pairing_in_dim_5(self, name, data):
        P = golden_polytope(name)
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        f = pl(P, *data.draw(st.lists(st.tuples(*[entry] * 6), min_size=1, max_size=2)))
        ext = extremal_affine(P)
        assert d_z_na(f, ext) == d_na(f) + inner_product(f, ext.theta.gradient)

    def test_normal_cone_cubic_coefficient(self, bl1p2):
        # exact polynomial in c with leading coefficient (1 - vartheta)/24
        from toricding import g_c, normal_cone_family

        fam = normal_cone_family(bl1p2)
        ext = extremal_affine(bl1p2)
        nodes = []
        for i in range(1, 6):
            c = Fraction(i, 12)
            f = g_c(fam, c)
            nodes.append((c, d_z_na(f, ext)))
        poly = lagrange_interpolate(nodes)
        assert poly[:3] == (0, 0, 0)
        assert poly[3] == (1 - ext.vartheta) / (3 * 8)


class TestTranslationCovariance:
    @given(rows=pl_rows_p2, kappa=rational)
    @settings(max_examples=25, deadline=None)
    def test_shift_by_constant(self, rows, kappa):
        from conftest import make_p2

        P = make_p2()
        ext = extremal_affine(P)
        f = pl(P, *rows)
        shifted = PLConcave.make(
            [AffineFn(a.gradient, a.constant + kappa) for a in f.affines], P
        )
        assert e_na(shifted) == e_na(f) + kappa
        assert j_na(shifted) == j_na(f)
        assert d_na(shifted) == d_na(f)
        assert inner_product(shifted, [1, -2]) == inner_product(f, [1, -2])
        assert d_z_na(shifted, ext) == d_z_na(f, ext)


class TestOracleAgreement:
    def test_means_converge(self, step_p1):
        target = e_na(step_p1)
        errs = [abs(level_moments(step_p1, [1], k)[1] - target) for k in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestCalibratedRegime:
    def test_flagged_when_far_below_origin_value(self, p1):
        from toricding.functionals import outside_calibrated_regime

        assert not outside_calibrated_regime(pl(p1, (0, 0), (-1, 0)))
        assert outside_calibrated_regime(pl(p1, (0, 0), (-3, 0)))
