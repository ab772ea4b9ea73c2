"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; a pytest failure is the corresponding FAIL line.
"""

import random
from fractions import Fraction

from toricding import (
    PLConcave,
    covariance,
    d_na,
    d_z_na,
    dh_closed_form,
    dh_measure,
    dh_of_vector_field,
    e_na,
    extremal_affine,
    g_c,
    inner_product,
    j_na,
    normal_cone_family,
    reduce_jna,
)
from toricding.lattice import level_moments

from conftest import (
    affine,
    lagrange_interpolate,
    make_bl1p2,
    make_p1,
    make_p1xp1,
    make_p2,
    pl,
    twist,
    twisted_j,
)
from dh_reference import upper_mass
from lattice_reference import vol_distribution

CORPUS = {"p1": make_p1(), "p2": make_p2(), "bl1p2": make_bl1p2(), "p1xp1": make_p1xp1()}
NC_CORPUS = {k: CORPUS[k] for k in ("p1", "p2", "bl1p2")}
FAMILIES = {name: normal_cone_family(P) for name, P in NC_CORPUS.items()}


def grid_for(family):
    cap = family.grid_cap()
    return [cap * Fraction(i, 4) for i in (1, 2, 3)]


_MEASURES = []  # (measure, expected mean) pairs accumulated across criteria


def track(measure, expected_mean):
    _MEASURES.append((measure, expected_mean))
    return measure


def ok(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_dh_closed_form():
    for name, family in FAMILIES.items():
        n = family.P.dim
        Ln = family.P.anticanonical_degree()
        for c in grid_for(family):
            f = g_c(family, c)
            produced = track(dh_measure(f), e_na(f))
            expected = dh_closed_form(n, Ln, c)
            assert produced == expected, (name, c)
    ok(1, "dh_measure(g_c) equals the closed form exactly on P1, P2, Bl1P2 x 3 grid values")


def test_criterion_02_j_identity():
    for name, family in FAMILIES.items():
        n = family.P.dim
        Ln = family.P.anticanonical_degree()
        for c in grid_for(family):
            assert j_na(g_c(family, c)) == c ** (n + 1) / ((n + 1) * Ln), (name, c)
    ok(2, "j_na(g_c) = c^(n+1)/((n+1)L^n) exactly on the corpus")


def test_criterion_03_ding_identity():
    for name, family in FAMILIES.items():
        n = family.P.dim
        Ln = family.P.anticanonical_degree()
        for c in grid_for(family):
            assert d_na(g_c(family, c)) == c ** (n + 1) / ((n + 1) * Ln), (name, c)
    ok(3, "d_na(g_c) = c^(n+1)/((n+1)L^n) exactly on the corpus")


def test_criterion_04_expansion_theorem():
    for name in ("p2", "bl1p2"):
        family = FAMILIES[name]
        P = family.P
        n = P.dim
        Ln = P.anticanonical_degree()
        ext = extremal_affine(P)
        cap = family.grid_cap()
        nodes = []
        for i in range(1, n + 4):
            c = cap * Fraction(i, n + 3)
            f = g_c(family, c)
            nodes.append((c, d_z_na(f, ext)))
        poly = lagrange_interpolate(nodes)
        coeff = poly[n + 1] if len(poly) > n + 1 else Fraction(0)
        assert coeff == (1 - ext.vartheta) / ((n + 1) * Ln), name
    ok(4, "c^(n+1) coefficient of d_z_na(g_c) equals (1-vartheta)/((n+1)L^n) exactly")


def test_criterion_05_reduced_j_localization():
    for name, family in FAMILIES.items():
        for c in grid_for(family):
            f = g_c(family, c)
            rho_star, j_t = reduce_jna(f)
            assert all(r == 0 for r in rho_star), (name, c)
            assert j_t == j_na(f), (name, c)
    ok(5, "reduce_jna(g_c) returns rho*=0 and J_T = J exactly for all tested c")


def test_criterion_06_product_calibration():
    rng = random.Random(2024)
    for name, P in CORPUS.items():
        ext = extremal_affine(P)
        for _ in range(20):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(P.dim)]
            kappa = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            f = PLConcave.make([affine(a, kappa)], P)
            assert d_z_na(f, ext) == 0, (name, a, kappa)
            rho_star, j_t = reduce_jna(f)
            assert j_t == 0, (name, a, kappa)
            assert rho_star == tuple(-x for x in a), (name, a, kappa)
    ok(6, "d_z_na and reduced J vanish exactly on 20 random products per polytope, rho* = -a")


def test_criterion_07_oracle_convergence():
    ladder = (8, 16, 32, 64)
    bound = Fraction(4, 64)
    lams = (Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4))
    cases = [
        ("p1", pl(CORPUS["p1"], (0, 0), (-1, 0)), [1]),
        ("p2", pl(CORPUS["p2"], (0, 0, 0), (-1, 0, 0)), [1, 0]),
    ]
    for name, f, rho in cases:
        measure = track(dh_measure(f), e_na(f))
        exact_mean = measure.moment(1)
        exact_inner = inner_product(f, rho)
        exact_cdf = {lam: upper_mass(measure, lam) for lam in lams}
        series = {"mean": [], "inner": []}
        series.update({f"cdf@{lam}": [] for lam in lams})
        for k in ladder:
            _, mean, _, inner = level_moments(f, rho, k)
            series["mean"].append(abs(mean - exact_mean))
            series["inner"].append(abs(inner - exact_inner))
            for lam in lams:
                series[f"cdf@{lam}"].append(abs(vol_distribution(f, k, lam) - exact_cdf[lam]))
        for label, errs in series.items():
            assert all(b < a for a, b in zip(errs, errs[1:])), (name, label, errs)
            assert errs[-1] <= bound, (name, label, errs[-1])
    ok(7, "oracle errors decrease along k in {8,16,32,64} and final error <= 4/64")


def test_criterion_08_convexity_suite():
    rng = random.Random(77)
    P = CORPUS["p2"]

    def rand_rho():
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)]

    for i in range(100):
        rows = [
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        ]
        f = pl(P, *rows)
        r1, r2 = rand_rho(), rand_rho()
        mid = [(a + b) / 2 for a, b in zip(r1, r2)]
        lhs = twisted_j(f, mid)
        rhs = (twisted_j(f, r1) + twisted_j(f, r2)) / 2
        assert lhs <= rhs, (i, rows, r1, r2)
        _, j_t = reduce_jna(f)
        for _ in range(20):
            rho = rand_rho()
            assert j_t <= twisted_j(f, rho), (i, rows, rho)
        if i % 25 == 0:
            track(dh_measure(f), e_na(f))
    ok(8, "midpoint convexity and reduced J <= twisted J hold exactly on 100 random instances")


def test_criterion_09_extremal_invariants():
    for name, P in CORPUS.items():
        ext = extremal_affine(P)
        n = P.dim
        # int theta = 0: theta = <g, x - b> and the B-spline pushforward has mean 0
        assert ext.theta(ext.b) == 0, name
        assert dh_of_vector_field(P, ext.theta.gradient).moment(1) == 0, name
        cov = covariance(P)
        for i in range(n):
            residual = sum(cov[i][j] * ext.theta.gradient[j] for j in range(n)) - (
                P.volume() * ext.b[i]
            )
            assert residual == 0, name
    assert extremal_affine(CORPUS["p2"]).vartheta == 0
    assert extremal_affine(CORPUS["p1xp1"]).vartheta == 0
    vt = extremal_affine(CORPUS["bl1p2"]).vartheta
    assert 0 < vt < 1
    assert vt == Fraction(5, 11)  # derived regression constant
    ok(9, "int theta = 0 and Gram residual = 0; vartheta values exact on the corpus")


def test_criterion_10_mass_and_mean_conservation():
    # measures produced by the other criteria, plus vector-field pushforwards
    for P in CORPUS.values():
        ext = extremal_affine(P)
        track(dh_of_vector_field(P, ext.theta.gradient), Fraction(0))
        track(dh_of_vector_field(P, [1] + [0] * (P.dim - 1)), Fraction(0))
    for family in FAMILIES.values():
        n = family.P.dim
        Ln = family.P.anticanonical_degree()
        c = family.grid_cap() / 3
        f = g_c(family, c)
        track(dh_closed_form(n, Ln, c), e_na(f))
    for f_rows, domain in [(((0, 0), (-1, 0)), CORPUS["p1"])]:
        f = pl(domain, *f_rows)
        track(dh_measure(twist(f, [Fraction(1, 3)])), None)
    assert len(_MEASURES) >= 20
    for measure, expected_mean in _MEASURES:
        assert measure.moment(0) == 1
        if expected_mean is not None:
            assert measure.moment(1) == expected_mean
    ok(10, f"all {len(_MEASURES)} DH measures produced have exact mass 1 and mean = E^NA")
