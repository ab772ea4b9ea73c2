import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricding import (
    PLConcave,
    dh_measure,
    e_na,
    j_na,
    reduce_jna,
)
from toricding import io as tio
from toricding import validate_fano
from toricding.errors import DimensionMismatch
from toricding.geometry import barycenter, vertices

from conftest import REPO, affine, pl, twist, twisted_j

small_rational = st.fractions(min_value=-2, max_value=2, max_denominator=2)
pl_rows_p2 = st.lists(
    st.tuples(small_rational, small_rational, small_rational),
    min_size=1,
    max_size=3,
)


class TestTwist:
    def test_zero_is_identity(self, step_p2):
        assert twist(step_p2, [0, 0]) == step_p2

    def test_affine_cancels(self, p2):
        f = pl(p2, (2, -3, 0))
        g = twist(f, [-2, 3])
        assert all(a.is_constant for a in g.affines)

    def test_componentwise(self, step_p1):
        g = twist(step_p1, [1])
        assert g.affines == (affine([1], 0), affine([0], 0))

    def test_dimension_mismatch(self, step_p1):
        with pytest.raises(DimensionMismatch):
            twist(step_p1, [1, 2])


class TestJnaTwisted:
    def test_affine_to_zero(self, p2):
        f = pl(p2, (1, -1, Fraction(1, 2)))
        assert twisted_j(f, [-1, 1]) == 0

    def test_step_half(self, step_p1):
        assert twisted_j(step_p1, [Fraction(1, 2)]) == Fraction(1, 4)

    def test_step_two(self, step_p1):
        assert twisted_j(step_p1, [2]) == Fraction(5, 4)

    @given(rows=pl_rows_p2, r=st.tuples(small_rational, small_rational))
    @settings(max_examples=30, deadline=None)
    def test_matches_j_of_twist(self, rows, r):
        from conftest import make_p2

        f = pl(make_p2(), *rows)
        assert twisted_j(f, list(r)) == j_na(twist(f, list(r)))

    @given(
        rows=pl_rows_p2,
        r1=st.tuples(small_rational, small_rational),
        r2=st.tuples(small_rational, small_rational),
    )
    @settings(max_examples=30, deadline=None)
    def test_midpoint_convexity(self, rows, r1, r2):
        from conftest import make_p2

        f = pl(make_p2(), *rows)
        mid = [(a + b) / 2 for a, b in zip(r1, r2)]
        lhs = twisted_j(f, mid)
        rhs = (twisted_j(f, list(r1)) + twisted_j(f, list(r2))) / 2
        assert lhs <= rhs

    def test_twist_covariance_of_mean(self, step_p2):
        b = barycenter(step_p2.domain)
        for rho in ([1, 0], [Fraction(-1, 2), Fraction(2, 3)]):
            m = dh_measure(twist(step_p2, rho))
            expected = e_na(step_p2) + sum(Fraction(r) * c for r, c in zip(rho, b))
            assert m.moment(1) == expected


class TestReduce:
    def test_affine_reduces_to_zero(self, bl1p2):
        f = pl(bl1p2, (Fraction(3, 2), -1, Fraction(2, 7)))
        rho, j_t = reduce_jna(f)
        assert j_t == 0
        assert rho == (Fraction(-3, 2), 1)

    def test_step_on_interval(self, step_p1):
        rho, j_t = reduce_jna(step_p1)
        assert j_t == Fraction(1, 4)
        # optimal set is [0, 1]; the lexicographically smallest point is 0
        assert rho == (0,)

    def test_normal_cone_untwisted(self, p1):
        from toricding import g_c, normal_cone_family

        fam = normal_cone_family(p1)
        for c in (Fraction(1, 4), Fraction(1, 2)):
            f = g_c(fam, c)
            rho, j_t = reduce_jna(f)
            assert rho == (0,)
            assert j_t == j_na(f)

    def test_optimum_dominates_random_twists(self, step_p2):
        rng = random.Random(3)
        _, j_t = reduce_jna(step_p2)
        for _ in range(20):
            rho = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2)]
            assert j_t <= twisted_j(step_p2, rho)

    @given(rows=pl_rows_p2, r=st.tuples(small_rational, small_rational))
    @settings(max_examples=15, deadline=None)
    def test_twist_invariance_of_optimum(self, rows, r):
        from conftest import make_p2

        f = pl(make_p2(), *rows)
        _, j_t = reduce_jna(f)
        _, j_t_twisted = reduce_jna(twist(f, list(r)))
        assert j_t == j_t_twisted

    def test_without_problem_enumerates_no_vertices(self, step_p2, monkeypatch):
        def enumerate_vertices(self):
            raise AssertionError("region vertices counted")

        monkeypatch.setattr(PLConcave, "region_vertex_count", enumerate_vertices)
        assert reduce_jna(step_p2) == ((0, 0), Fraction(8, 27))

    @pytest.mark.parametrize("name", ["p3", "blp3", "p1x3", "p4", "p1x4"])
    def test_forced_tie_in_dims_3_4(self, name):
        # random pieces plus one forced through (b, f(b)), so at least two
        # pieces are active at the barycenter; the minimizer is checked
        # against the twisted J itself, not against the active-set rule
        P = validate_fano(tio.load_polytope(str(REPO / "tests" / "golden" / f"{name}.json")))
        b = barycenter(P.base)
        rng = random.Random(name)

        def rand_gradient():
            return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(P.dim)]

        for _ in range(3):
            pieces = [affine(rand_gradient(), Fraction(rng.randint(-4, 4), 3))
                      for _ in range(rng.randint(1, 3))]
            top = min(a(b) for a in pieces)
            forced = affine(rand_gradient(), 0)
            pieces.append(affine(forced.gradient, top - forced(b)))
            f = PLConcave.make(pieces, P)
            rho_star, j_t = reduce_jna(f)
            assert twisted_j(f, rho_star) == j_t
            minimizers = [rho for rho in (tuple(-g for g in a.gradient) for a in pieces)
                          if twisted_j(f, rho) == j_t]
            assert tuple(-g for g in pieces[-1].gradient) in minimizers
            assert len(set(minimizers)) >= 2
            assert all(rho_star <= rho for rho in minimizers)

    def test_subgradient_descent_cross_check(self):
        # float subgradient run with Polyak steps lands on the closed-form optimum
        from conftest import make_p2

        rng = random.Random(11)
        P = make_p2()
        for _ in range(3):
            rows = [
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
                for _ in range(rng.randint(2, 3))
            ]
            f = pl(P, *rows)
            _, j_t = reduce_jna(f)
            points = {v for R, _ in f.regions() for v in vertices(R)}
            cand = [(float(f(v)), [float(c) for c in v]) for v in sorted(points)]
            bf = [float(c) for c in barycenter(f.domain)]
            mean = float(e_na(f))

            def j_float(rho):
                return max(fv + sum(r * c for r, c in zip(rho, v)) for fv, v in cand) - (
                    mean + sum(r * c for r, c in zip(rho, bf))
                )

            rho = [0.3, -0.7]
            best_val = j_float(rho)
            for _ in range(20000):
                val = j_float(rho)
                best_val = min(best_val, val)
                gap = val - float(j_t)
                if gap <= 1e-9:
                    break
                fv, v = max(
                    cand, key=lambda t: t[0] + sum(r * c for r, c in zip(rho, t[1]))
                )
                grad = [c - b for c, b in zip(v, bf)]
                norm2 = sum(g * g for g in grad)
                if norm2 == 0:
                    break
                step = gap / norm2
                rho = [r - step * g for r, g in zip(rho, grad)]
            assert abs(best_val - float(j_t)) < 1e-6
