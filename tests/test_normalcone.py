from fractions import Fraction

import pytest

from toricding import normalcone
from toricding import rationalpoly as rp
from toricding import (
    COutOfRange,
    HPolytope,
    MismatchReport,
    NonSmoothVertex,
    d_z_na,
    dh_closed_form,
    dh_measure,
    extremal_affine,
    g_c,
    normal_cone_family,
    reduce_jna,
    select_vertex,
    validate_fano,
    verdict,
    verify_family,
    vertex_chart,
    volume,
)
from toricding.functionals import DHMeasure

from conftest import CORPUS_FILES, clip, load_corpus

# polygons with vartheta > 1 whose destabilizing range (0, c*) ends below c_max = 2,
# c* = 4 (vartheta - 1) / |s|: 165/284 and 11/10
THETA_ABOVE_ONE = {
    "kite": validate_fano(HPolytope.from_inequalities(
        2, [([1, 0], 1), ([0, 1], 1), ([-1, -1], 1), ([-1, -2], 1)])),
    "pentagon": validate_fano(HPolytope.from_inequalities(
        2, [([1, 0], 1), ([0, 1], 1), ([-1, 0], 1), ([-1, -1], 1), ([-1, -2], 1)])),
}

RATIO_STATEMENT = ("not uniformly relative Ding-stable: the normal-cone family has "
                   "relative-Ding/reduced-J ratio tending to 1 - vartheta <= 0")


class TestSelectVertex:
    def test_p2_ties_break_lex(self, p2):
        assert select_vertex(p2) == (-1, -1)

    def test_p1(self, p1):
        assert select_vertex(p1) == (-1,)

    def test_bl1p2_maximizer(self, bl1p2):
        v = select_vertex(bl1p2)
        ext = extremal_affine(bl1p2)
        assert v == (-2, 1)
        assert ext.theta(v) == ext.vartheta


class TestVertexChart:
    def test_p1_at_plus_one(self, p1):
        chart = vertex_chart(p1, (1,))
        assert chart.ord.gradient == (-1,)
        assert chart.ord.constant == 1

    def test_p2_corner(self, p2):
        chart = vertex_chart(p2, (-1, -1))
        assert chart.ord.gradient == (1, 1)
        assert chart.ord.constant == 2

    def test_ord_vanishes_at_vertex_nonnegative_elsewhere(self, bl1p2):
        chart = vertex_chart(bl1p2, (-2, 1))
        assert chart.ord(chart.vertex) == 0
        for w in bl1p2.vertices():
            assert chart.ord(w) >= 0

    def test_ord_integer_on_lattice(self, bl1p2):
        from lattice_reference import lattice_points

        chart = vertex_chart(bl1p2, (-2, 1))
        for u in lattice_points(bl1p2, 1):
            assert chart.ord(u).denominator == 1
            assert chart.ord(u) >= 0

    def test_non_smooth_cone(self):
        # cone spanned by (1,2) and (1,-2) normals: lattice index 4
        P = validate_fano(
            HPolytope.from_inequalities(2, [([1, 2], 1), ([1, -2], 1), ([-1, 0], 1)])
        )
        with pytest.raises(NonSmoothVertex) as exc:
            vertex_chart(P, (1, 0))
        assert abs(exc.value.determinant) == 4


class TestGc:
    def test_p1_formula(self, p1):
        fam = normal_cone_family(p1)
        f = g_c(fam, Fraction(1, 2))
        origin = (Fraction(0),)
        assert f(origin) == 0
        assert f((Fraction(-1),)) == Fraction(-1, 2)
        assert f((Fraction(1),)) == 0

    def test_p2_chart_composition(self, p2):
        fam = normal_cone_family(p2)
        f = g_c(fam, Fraction(1, 2))
        assert f((-1, -1)) == Fraction(-1, 2)
        assert f((0, 0)) == 0

    def test_small_c_continuity(self, p2):
        from toricding import j_na

        fam = normal_cone_family(p2)
        values = [j_na(g_c(fam, Fraction(1, 2**i))) for i in range(1, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_range(self, p1):
        """g_c and the closed form of D_Z, which builds no g_c, refuse the same c."""
        fam = normal_cone_family(p1)
        for bad in (0, fam.c_max, fam.c_max + 1, -1):
            for at_c in (g_c, normalcone._d_z):
                with pytest.raises(COutOfRange, match=f"^c = {bad} outside \\(0, 2\\)$"):
                    at_c(fam, bad)

    def test_c_max_values(self, p1, p2, bl1p2):
        assert normal_cone_family(p1).c_max == 2
        assert normal_cone_family(p2).c_max == 3
        assert normal_cone_family(bl1p2).c_max == 2

    def test_c_max_tight(self, bl1p2):
        # past c_max the sublevel set is strictly smaller than the simplex
        fam = normal_cone_family(bl1p2)
        ordfn = fam.chart.ord
        for c in (fam.c_max + Fraction(1, 10), fam.c_max + 1):
            clipped = clip(bl1p2.base, ordfn.gradient, c - ordfn.constant)
            assert volume(clipped) < c**2 / 2
        c = fam.c_max - Fraction(1, 10)
        clipped = clip(bl1p2.base, ordfn.gradient, c - ordfn.constant)
        assert volume(clipped) == c**2 / 2


class TestClosedForm:
    def test_n1(self):
        m = dh_closed_form(1, 2, Fraction(1, 2))
        assert m.atoms == ((0, Fraction(3, 4)),)
        assert m.pieces == ((Fraction(-1, 2), 0, (Fraction(1, 2),)),)

    def test_n2(self):
        m = dh_closed_form(2, 9, 1)
        assert m.atoms == ((0, Fraction(8, 9)),)
        assert m.pieces == ((-1, 0, (Fraction(2, 9), Fraction(2, 9))),)

    def test_mass_one(self):
        for n, Ln, c in [(1, 2, Fraction(1, 3)), (2, 8, Fraction(5, 4)), (3, 6, 1)]:
            assert dh_closed_form(n, Ln, c).moment(0) == 1

    def test_out_of_range(self):
        with pytest.raises(COutOfRange):
            dh_closed_form(2, 4, 2)


class TestInvariantClosedForms:
    """D_Z and J_T of g_c in closed form against the generic functionals, at every
    smooth vertex and on c across (0, c_max), past ord(0) and ord(b) where they are
    below c_max; off the theta-maximizers, theta(v) takes the place of vartheta."""

    @pytest.mark.parametrize("name", [*CORPUS_FILES, *THETA_ABOVE_ONE])
    def test_every_smooth_vertex(self, name):
        P = THETA_ABOVE_ONE[name] if name in THETA_ABOVE_ONE else load_corpus(name)
        n = P.dim
        b = P.barycenter()
        kinks = [(Fraction(0),) * n, b]
        checked = 0
        for v in P.vertices():
            try:
                fam = normal_cone_family(P, v)
            except NonSmoothVertex:
                continue
            # five even steps, and each of ord(0), ord(b) with a point above it
            cs = {fam.c_max * Fraction(i, 6) for i in range(1, 6)}
            for o in map(fam.chart.ord, kinks):
                cs |= {c for c in (o, (o + fam.c_max) / 2) if c < fam.c_max}
            ext = fam.ext
            for c in sorted(cs):
                f = g_c(fam, c)
                off_max = (ext.vartheta - ext.theta(v)) * c ** (n + 1) / ((n + 1) * fam.Ln)
                assert d_z_na(f, ext) == normalcone._d_z(fam, c) + off_max, (v, c)
                assert reduce_jna(f)[1] == f(b) + rp.evaluate(fam.j_coeffs, c), (v, c)
                checked += 1
        assert checked >= 9


class TestVerifyFamily:
    def test_p1(self, p1):
        fam = normal_cone_family(p1)
        for row in verify_family(fam, [Fraction(1, 4), Fraction(1, 2)]):
            assert row.d_z == row.c**2 / 4
        assert fam.leading_coeff == Fraction(1, 4)

    def test_p2(self, p2):
        fam = normal_cone_family(p2)
        verify_family(fam, [Fraction(1, 2), 1])
        assert fam.leading_coeff == Fraction(1, 27)
        assert fam.ext.vartheta == 0

    def test_bl1p2(self, bl1p2):
        fam = normal_cone_family(bl1p2)
        verify_family(fam, [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)])
        assert fam.ext.vartheta == Fraction(5, 11)
        assert fam.leading_coeff == (1 - Fraction(5, 11)) / 24
        assert fam.expansion_coeffs[:3] == (0, 0, 0)

    def test_reads_extremal_data_from_family(self, bl1p2, monkeypatch):
        fam = normal_cone_family(bl1p2)
        calls = []
        monkeypatch.setattr(normalcone, "extremal_affine",
                            lambda P: calls.append(P) or extremal_affine(P))
        verify_family(fam, [Fraction(1, 8), Fraction(1, 4)])
        assert calls == []

    def test_held_out_point_reproduced(self, bl1p2, monkeypatch):
        # the generic D_Z is checked at n + 4 nodes of (0, grid_cap], which pins
        # every coefficient: a point off the nodes is reproduced as well
        fam = normal_cone_family(bl1p2)
        ext = extremal_affine(bl1p2)
        nodes = []

        def spy(f, ext):
            value = d_z_na(f, ext)
            nodes.append((-f.min_value(), value))
            return value

        monkeypatch.setattr(normalcone, "d_z_na", spy)
        verify_family(fam, [Fraction(1, 4)])
        cap = fam.grid_cap()
        assert [c for c, _ in nodes] == [cap * Fraction(i, 6) for i in range(1, 7)]
        for c, value in nodes:
            assert value == rp.evaluate(fam.expansion_coeffs, c)
        c_h = cap * Fraction(11, 12)
        assert d_z_na(g_c(fam, c_h), ext) == rp.evaluate(fam.expansion_coeffs, c_h)

    def test_mismatch_reported_with_both_sides(self, bl1p2):
        # a vertex that does not maximize theta: per-c identities hold but
        # D_Z sees theta(v) instead of vartheta, at the grid row and every node
        fam = normal_cone_family(bl1p2, (1, 0))
        ext = extremal_affine(bl1p2)
        with pytest.raises(MismatchReport) as exc:
            verify_family(fam, [Fraction(1, 4)])
        failures = exc.value.failures
        cs = [Fraction(1, 4)] + [fam.grid_cap() * Fraction(i, 6) for i in range(1, 7)]
        assert [name for name, _, _ in failures] == [f"d_z_na(c={c})" for c in cs]
        for (_, generic, closed), c in zip(failures, cs):
            assert generic - closed == (ext.vartheta - ext.theta((1, 0))) * c**3 / (3 * 8)


    def test_dh_mismatch_reported_with_both_sides(self, bl1p2, monkeypatch):
        # a closed form that is a unit atom at 0 fails the one DH comparison
        fam = normal_cone_family(bl1p2)
        c = Fraction(1, 4)
        expected = DHMeasure(atoms=((Fraction(0), Fraction(1)),), pieces=())
        monkeypatch.setattr(normalcone, "dh_closed_form", lambda n, Ln, c: expected)
        with pytest.raises(MismatchReport) as exc:
            verify_family(fam, [c])
        assert exc.value.failures == [("dh_measure(c=1/4)", dh_measure(g_c(fam, c)), expected)]


class TestVerdict:
    def test_p2_obstruction_vanishes(self, p2):
        rep = verdict(p2)
        assert rep.vartheta == 0
        assert rep.flags == {"vartheta<1": True, "vartheta=1": False, "vartheta>1": False}
        assert any("vanishes" in s for s in rep.statements)

    def test_bl1p2_condition_satisfied(self, bl1p2):
        rep = verdict(bl1p2)
        assert 0 < rep.vartheta < 1
        assert any("necessary condition" in s for s in rep.statements)

    @pytest.mark.parametrize("name, statement", [
        ("p2", "obstruction vanishes: extremal affine function is zero"),
        ("bl1p2", "necessary condition satisfied: vartheta < 1"),
    ], ids=["p2", "bl1p2"])
    def test_no_family_below_one(self, monkeypatch, name, statement):
        # below vartheta = 1 the verdict is read off vartheta alone
        def no_family(P, v=None):
            raise AssertionError("normal-cone family built")

        monkeypatch.setattr(normalcone, "normal_cone_family", no_family)
        rep = verdict(load_corpus(name))
        assert rep.flags == {"vartheta<1": True, "vartheta=1": False, "vartheta>1": False}
        assert rep.statements == [statement]
        assert (rep.witness_c, rep.witness_d_z) == (None, None)

    def test_stretched_destabilized(self, stretched):
        rep = verdict(stretched)
        assert rep.vartheta == Fraction(38, 23)
        assert rep.flags["vartheta>1"]
        assert rep.witness_c is not None
        assert rep.witness_d_z < 0
        assert any("destabilized" in s for s in rep.statements)

    @pytest.mark.parametrize("negative_below", [Fraction(1, 32), None])
    def test_halving_fallback(self, stretched, monkeypatch, negative_below):
        # no grid value destabilizes, so the witness search halves grid[0]
        # up to 60 times; below negative_below the closed form is the true one
        seen = []
        closed_form = normalcone._d_z

        def fake_d_z(family, c):
            seen.append(c)
            return closed_form(family, c) if negative_below and c <= negative_below else Fraction(1)

        monkeypatch.setattr(normalcone, "_d_z", fake_d_z)
        grid = [Fraction(1, 8), Fraction(1, 4)]
        rep = verdict(stretched, grid)
        witness = [s for s in rep.statements if "destabilized" in s]
        if negative_below:
            fam = normal_cone_family(stretched)
            assert rep.witness_c == grid[0] / 4 == negative_below
            assert rep.witness_d_z == d_z_na(g_c(fam, negative_below), fam.ext)
            assert rep.witness_d_z == Fraction(-31, 24117248)
            assert witness == ["destabilized: not relative Ding-semistable; "
                               "g_c with c = 1/32 has relative Ding invariant -31/24117248 < 0"]
            assert seen == [*grid, grid[0] / 2, grid[0] / 4]
        else:
            assert rep.witness_c is None and rep.witness_d_z is None
            assert witness == []
            assert seen == grid + [grid[0] / 2**i for i in range(1, 61)]

    # (polytope, grid, witness c, witness D_Z, closed-form ratio D_Z/J_T at grid[0])
    @pytest.mark.parametrize("name, grid, witness_c, witness_d_z, ratio", [
        ("stretched", None, "1/8", "-7/94208", "-105/184"),
        ("stretched", ["1/8", "1/4"], "1/8", "-7/94208", "-105/184"),
        ("stretched", ["9/10"], "9/10", "-729/230000", "-3/46"),
        ("stretched", ["1/2", "3/4"], "1/2", "-1/368", "-15/46"),
        ("kite", None, "1/8", "-37/2163712", "-777/4226"),
        ("kite", ["1", "3/2"], "1/2", "-23/118328", "357/2113"),
        ("kite", ["19/10"], "19/40", "-294937/1352320000", "676153/919155"),
        ("pentagon", None, "1/8", "-1/20480", "-9/20"),
        ("pentagon", ["3/2"], "3/4", "-63/16640", "12/65"),
        ("pentagon", ["1/2"], "1/2", "-1/520", "-18/65"),
    ])
    def test_pinned_witness(self, stretched, name, grid, witness_c, witness_d_z, ratio):
        P = stretched if name == "stretched" else THETA_ABOVE_ONE[name]
        grid = grid and [Fraction(c) for c in grid]
        rep = verdict(P, grid)
        assert rep.vartheta > 1
        assert (rep.witness_c, rep.witness_d_z) == (Fraction(witness_c), Fraction(witness_d_z))
        # D_Z/J_T at the first grid value, from the closed forms of the ratio statement
        fam = normal_cone_family(P)
        c = grid[0] if grid else normalcone._default_grid(fam)[0]
        j_t = g_c(fam, c)(P.barycenter()) + rp.evaluate(fam.j_coeffs, c)
        assert normalcone._d_z(fam, c) / j_t == Fraction(ratio)
        assert rep.statements == [
            RATIO_STATEMENT,
            f"destabilized: not relative Ding-semistable; g_c with c = {witness_c} "
            f"has relative Ding invariant {witness_d_z} < 0",
        ]

    def test_witness_confirmed_by_generic_value(self, stretched, monkeypatch):
        # the printed witness D_Z is generic; one that disagrees with the closed form
        # is an identity violation, never a "< 0" statement
        monkeypatch.setattr(normalcone, "d_z_na", lambda f, ext: Fraction(-1))
        with pytest.raises(MismatchReport) as exc:
            verdict(stretched)
        assert exc.value.failures == [("d_z_na(c=1/8)", Fraction(-1), Fraction(-7, 94208))]

    def test_stretched_family_identities_still_hold(self, stretched):
        fam = normal_cone_family(stretched)
        assert fam.c_max == 1
        verify_family(fam, [Fraction(1, 8), Fraction(1, 4)])
        assert fam.leading_coeff == (1 - Fraction(38, 23)) / (3 * fam.Ln)
