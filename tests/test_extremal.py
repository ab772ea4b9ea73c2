from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricding import (
    HPolytope,
    NotCanonicalFano,
    OriginNotInterior,
    covariance,
    dh_of_vector_field,
    extremal_affine,
    validate_fano,
)
from toricding import extremal
from toricding import io as tio
from toricding.errors import DimensionMismatch, SingularGram
from toricding.geometry import integrate_product

from conftest import CORPUS_FILES, REPO, affine, futaki_pairing, load_corpus, pairs
from lattice_reference import lattice_points

rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestValidateFano:
    def test_p2_accepted(self, p2):
        assert p2.volume() == Fraction(9, 2)

    def test_bl1p2_accepted(self, bl1p2):
        for normal, rhs in pairs(bl1p2.base):
            assert rhs == 1 and gcd(*normal) == 1

    def test_shifted_interval_rejected(self):
        # [0, 2] as {-x <= 0, x <= 2}
        with pytest.raises(OriginNotInterior):
            validate_fano(HPolytope.from_inequalities(1, [([-1], 0), ([1], 2)]))

    def test_wrong_rhs_rejected(self):
        with pytest.raises(NotCanonicalFano):
            validate_fano(HPolytope.from_inequalities(1, [([-1], 1), ([1], 2)]))

    @pytest.mark.parametrize("dim, rows, error, message", [
        (2, [((1, 0), Fraction(1, 3)), ((2, 1), 5), ((-1, -1), 1), ((0, -1), 1), ((-1, 1), 1)],
         NotCanonicalFano, "facet (1, 0) has rhs 1/3 != 1"),
        # the rows (2, 1, -5) and (3, 0, -1) sort apart from their primitive normals
        (2, [((1, 0), Fraction(-1, 3)), ((2, 1), -5), ((-1, 0), 10), ((0, -1), 10),
             ((-1, 1), 10)], OriginNotInterior, "facet (1, 0) has rhs -1/3 <= 0"),
        (2, [((1, 0), 2), ((3, 3), 1), ((-1, 0), 1), ((0, -1), 1)],
         NotCanonicalFano, "facet (1, 0) has rhs 2 != 1"),
        (1, [((2,), Fraction(-1, 2)), ((-1,), 1)], OriginNotInterior,
         "facet (1,) has rhs -1/4 <= 0"),
        (1, [((3,), 1), ((-2,), 3)], NotCanonicalFano, "facet (-1,) has rhs 3/2 != 1"),
    ])
    def test_messages_name_the_first_facet_by_primitive_normal(self, dim, rows, error, message):
        with pytest.raises(error) as info:
            validate_fano(HPolytope.from_inequalities(dim, rows))
        assert str(info.value) == message

    def test_nonprimitive_scaling_rejected(self):
        # {3x <= 1} normalizes to rhs 1/3
        with pytest.raises(NotCanonicalFano):
            validate_fano(HPolytope.from_inequalities(1, [([3], 1), ([-1], 1)]))


class TestCovariance:
    def test_interval(self, p1):
        assert covariance(p1) == ((Fraction(2, 3),),)

    def test_square_diagonal(self, p1xp1):
        cov = covariance(p1xp1)
        assert cov == ((Fraction(4, 3), 0), (0, Fraction(4, 3)))

    def test_bl1p2_swap_symmetry(self, bl1p2):
        cov = covariance(bl1p2)
        assert cov[0][1] == cov[1][0]
        assert cov[0][0] == cov[1][1]
        assert cov == ((Fraction(71, 36), Fraction(-49, 36)), (Fraction(-49, 36), Fraction(71, 36)))


    @pytest.mark.parametrize("name", sorted(CORPUS_FILES) + ["p5", "blp5"])
    def test_equals_centered_product_integrals(self, name):
        # the n^2 integrals of (x_i - b_i)(x_j - b_j) that the one sweep replaced
        if name in CORPUS_FILES:
            P = load_corpus(name)
        else:
            P = validate_fano(tio.load_polytope(str(REPO / "tests" / "golden" / f"{name}.json")))
        centered = [affine([int(t == i) for t in range(P.dim)], -bi)
                    for i, bi in enumerate(P.barycenter())]
        assert covariance(P) == tuple(tuple(integrate_product(P.base, xi, xj) for xj in centered)
                                      for xi in centered)


class TestExtremalAffine:
    def test_p2_trivial(self, p2):
        ext = extremal_affine(p2)
        assert ext.theta.is_constant and ext.theta.constant == 0
        assert ext.vartheta == 0

    def test_p1xp1_trivial(self, p1xp1):
        assert extremal_affine(p1xp1).vartheta == 0

    def test_bl1p2(self, bl1p2):
        ext = extremal_affine(bl1p2)
        assert ext.theta.gradient[0] == ext.theta.gradient[1]
        assert 0 < ext.vartheta < 1
        # regression of the exact rational value
        assert ext.vartheta == Fraction(5, 11)

    def test_zero_mean_and_gram_residual(self, corpus):
        for P in corpus.values():
            ext = extremal_affine(P)
            n = P.dim
            # int theta = 0: theta = <g, x - b> and the B-spline pushforward has mean 0
            assert ext.theta(ext.b) == 0
            assert dh_of_vector_field(P, ext.theta.gradient).moment(1) == 0
            # cov . grad = vol . b exactly
            for i in range(n):
                lhs = sum(ext.cov[i][j] * ext.theta.gradient[j] for j in range(n))
                assert lhs == P.volume() * ext.b[i]

    def test_vartheta_finite_k_cross_check(self, bl1p2):
        # max of theta over lattice points u/k climbs to vartheta
        ext = extremal_affine(bl1p2)
        gaps = []
        for k in (4, 8, 16, 32):
            best = max(
                ext.theta(tuple(Fraction(c, k) for c in u))
                for u in lattice_points(bl1p2, k)
            )
            assert best <= ext.vartheta
            gaps.append(ext.vartheta - best)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= Fraction(2, 32)

    def test_vartheta_positive_iff_barycenter_nonzero(self, corpus, stretched):
        for P in list(corpus.values()) + [stretched]:
            ext = extremal_affine(P)
            if all(c == 0 for c in ext.b):
                assert ext.vartheta == 0
            else:
                assert ext.vartheta > 0


    @pytest.mark.parametrize("name", ["p2", "bl1p2"])
    @pytest.mark.parametrize("cov", [
        ((0, 0), (0, 0)),
        ((1, 2), (2, 4)),
        ((Fraction(1, 3), Fraction(1, 6)), (Fraction(2, 3), Fraction(1, 3))),
    ], ids=["zero", "rank-1", "rank-1-fractions"])
    def test_singular_covariance_raises(self, monkeypatch, name, cov):
        monkeypatch.setattr(extremal, "covariance",
                            lambda P: tuple(tuple(map(Fraction, row)) for row in cov))
        with pytest.raises(SingularGram):
            # past the cache, which holds the real extremal data
            extremal_affine.__wrapped__(load_corpus(name))


class TestFutakiPairing:
    def test_p2_zero(self, p2):
        assert futaki_pairing(p2, [1, 0]) == 0
        assert futaki_pairing(p2, [Fraction(2, 3), -5]) == 0

    def test_bl1p2_values(self, bl1p2):
        assert futaki_pairing(bl1p2, [1, 0]) == Fraction(-1, 12)
        assert futaki_pairing(bl1p2, [1, -1]) == 0

    def test_dimension_mismatch(self, p2):
        with pytest.raises(DimensionMismatch):
            futaki_pairing(p2, [1])

    def test_equals_minus_ding_of_product(self, bl1p2):
        from toricding import PLConcave, d_na

        for a in ([1, 0], [Fraction(2, 3), Fraction(-1, 5)], [-2, 7]):
            f = PLConcave.make([affine(a, 0)], bl1p2)
            assert futaki_pairing(bl1p2, a) == -d_na(f)

    @given(a1=rational, a2=rational, s=rational)
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a1, a2, s):
        from conftest import make_bl1p2

        P = make_bl1p2()
        lhs = futaki_pairing(P, [a1 + s * a2, a2])
        rhs = futaki_pairing(P, [a1, 0]) + futaki_pairing(P, [s * a2, a2])
        assert lhs == rhs


class TestDHOfVectorField:
    def test_uniform_on_interval(self, p1):
        m = dh_of_vector_field(p1, [1])
        assert m.atoms == ()
        assert m.pieces == ((Fraction(-1), Fraction(1), (Fraction(1, 2),)),)

    def test_zero_field_is_unit_atom(self, p2):
        m = dh_of_vector_field(p2, [0, 0])
        assert m.atoms == ((0, 1),)
        assert m.pieces == ()

    def test_p2_coordinate_field(self, p2):
        m = dh_of_vector_field(p2, [1, 0])
        assert m.moment(0) == 1
        assert m.moment(1) == 0
        assert m.pieces[0][0] == -1 and m.pieces[-1][1] == 2

    def test_second_moment_is_quadratic_form(self, corpus):
        for P in corpus.values():
            cov = covariance(P)
            for a in ([1, 0], [0, 1], [1, 1], [Fraction(1, 2), -2]):
                a = a[: P.dim]
                if len(a) < P.dim:
                    a = a + [0] * (P.dim - len(a))
                m = dh_of_vector_field(P, a)
                quad = sum(
                    Fraction(a[i]) * cov[i][j] * Fraction(a[j])
                    for i in range(P.dim)
                    for j in range(P.dim)
                )
                assert m.moment(0) == 1
                assert m.moment(1) == 0
                assert m.moment(2) == quad / P.volume()
