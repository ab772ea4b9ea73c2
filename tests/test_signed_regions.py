"""The region sums read through the domain's record.

The functionals read the linearity region R0 of one piece a0 through P's
cached record: f = a0 + sum over the other regions R of (a - a0) 1_R almost
everywhere, and a vertex of R0 is one of P or of another region.  These tests
hold that route to the per-region one exactly, count the records it builds,
and tie inner_product to dh_measure and covariance by the polarization
identity of twisting.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricding import cli, extremal, geometry, lattice, twisting, validate_fano
from toricding import io as tio
from toricding.extremal import covariance
from toricding.functionals import dh_measure, e_na, inner_product
from toricding.geometry import _dot, barycenter, volume
from toricding.normalcone import _default_grid, g_c, normal_cone_family

from conftest import CORPUS_FILES, REPO, load_corpus, pl, twist, twisted_j
from region_reference import (
    region_atoms,
    region_e_na,
    region_inner_product,
    region_max_value,
    region_min_value,
    region_second_moment,
    region_tilted_peak,
    region_vertex_count,
)

CORPUS = {name: load_corpus(name) for name in sorted(CORPUS_FILES)}
DIM5 = {name: validate_fano(tio.load_polytope(str(REPO / "tests" / "golden" / f"{name}.json")))
        for name in ("p5", "blp5", "p1x5")}

entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# a piece as (g_1, ..., g_4, c): a polytope of dim n reads g_1..g_n and c
rows = st.lists(st.tuples(*[entry] * 5), min_size=1, max_size=4)
rhos = st.tuples(*[st.integers(-2, 2)] * 5)


def config(P, pieces):
    return pl(P, *(row[:P.dim] + row[-1:] for row in pieces))


def clear_caches():
    for cache in (geometry._record, geometry._region_subdivision_cached,
                  extremal.extremal_affine, lattice._fiber_rows):
        cache.cache_clear()


def oracle_exact(f, name, rho):
    """The exact (mean, second moment, inner product) that `oracle` prints as
    its err columns against the per-region references: all three read 0 when
    the two routes agree exactly, as each error is the float of a Fraction."""
    affines = [{"gradient": [str(g) for g in a.gradient], "constant": str(a.constant)}
               for a in f.affines]
    reference = (region_e_na(f), region_second_moment(f), region_inner_product(f, rho))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            mock.patch.object(cli, "level_moments", lambda *_: (0, *reference)):
        tc = Path(tmp) / "tc.json"
        tc.write_text(json.dumps({"affines": affines}))
        code = cli.main(["oracle", str(CORPUS_FILES[name]), str(tc), "--k-ladder", "1",
                         f"--rho={','.join(map(str, rho))}", "--tol", "0"])
    header, row = [line.split(",") for line in out.getvalue().splitlines()]
    return code, [float(row[header.index(k)]) for k in ("err_mean", "err_second", "err_inner")]


class TestSignedRoute:
    """Every signed sum equals the per-region sum, R0's own record included."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @settings(max_examples=12, deadline=None)
    @given(pieces=rows, rho=rhos)
    # a tie at the vertices of the facet x_1 = -1
    @example(pieces=[(1, 0, 0, 0, 1), (0, 0, 0, 0, 0)], rho=(1, 0, 0, 0, 0))
    # on the square (P1)^2 the first piece is the first of three lowest at two
    # vertices each, and its region is the facet x_1 = -1
    @example(pieces=[(0, 0, 0, 0, 0), (-1, 0, 0, 0, -1), (-2, 0, 0, 0, -1)], rho=(0, 1, 0, 0, 0))
    # a constant a0 with an atom
    @example(pieces=[(0, 0, 0, 0, 0), (1, 1, 1, 1, Fraction(-1, 2))], rho=(1, -1, 1, -1, 0))
    # duplicate pieces
    @example(pieces=[(1, 1, 1, 1, 0), (0, 0, 0, 0, 0), (1, 1, 1, 1, 0)], rho=(2, 1, 0, -1, 0))
    # a far piece that is pruned
    @example(pieces=[(1, -1, 0, 1, 0), (0, 0, 0, 0, 100), (-1, 0, 1, 0, 0)], rho=(0, 0, 1, 1, 0))
    def test_matches_per_region_route(self, name, pieces, rho):
        f, rho = config(CORPUS[name].base, pieces), rho[:CORPUS[name].dim]
        assert e_na(f) == region_e_na(f)
        assert inner_product(f, rho) == region_inner_product(f, rho)
        assert f.max_value() == region_max_value(f)
        assert f.min_value() == region_min_value(f)
        assert dh_measure(f).atoms == region_atoms(f)
        assert oracle_exact(f, name, rho) == (0, [0.0, 0.0, 0.0])

    def test_tie_leaves_a_lower_dimensional_r0(self):
        # three pieces lowest at two vertices each: the constant one wins, first or not
        for pieces, k in (([(0, 0, 0, 0, 0), (-1, 0, 0, 0, -1), (-2, 0, 0, 0, -1)], 0),
                          ([(-1, 0, 0, 0, -1), (0, 0, 0, 0, 0), (-2, 0, 0, 0, -1)], 1)):
            f = config(CORPUS["p1xp1"].base, pieces)
            a0, *_, regions = geometry._region_subdivision_cached(f.domain, f.affines)
            R0 = next(R for R, a in regions if a is a0)
            assert a0 == f.affines[k] and volume(R0) == 0
            assert [a for _, a in f.regions()] == [a for a in f.affines if a != a0]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_g_c_reads_the_big_region_through_p(self, name):
        family = normal_cone_family(CORPUS[name])
        for c in _default_grid(family):
            f = g_c(family, c)
            # in dim 1 both pieces are lowest at one vertex, and the tie goes to the constant
            assert f._split()[0].is_constant
            assert e_na(f) == region_e_na(f)
            assert inner_product(f, family.ext.theta.gradient) == region_inner_product(
                f, family.ext.theta.gradient)
            assert f.max_value() == region_max_value(f)
            assert dh_measure(f).atoms == region_atoms(f)


@pytest.mark.parametrize("path, records", [
    ("polytopes/p1.json", 9),
    ("polytopes/p2.json", 9),
    ("polytopes/stretched.json", 9),
    ("tests/golden/p1x4.json", 9),
    ("tests/golden/p1x5.json", 13),
])
def test_normal_cone_records(capsys, path, records):
    """One record for P and one corner per distinct c: the big region of each
    g_c is read through P and never recorded."""
    clear_caches()
    assert cli.main(["normal-cone", "--polytope", str(REPO / path)]) == 0
    assert geometry._record.cache_info().misses == records


def assert_vertices_through_p(f, rho):
    """region_vertex_count and the twisted J equal their per-region references exactly."""
    b = barycenter(f.domain)
    assert f.region_vertex_count() == region_vertex_count(f)
    assert twisted_j(f, rho) == region_tilted_peak(f, rho) - (region_e_na(f) + _dot(rho, b))


class TestVerticesThroughP:
    """The regions' vertices are P's and the other regions': R0's record is never built."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @settings(max_examples=12, deadline=None)
    @given(pieces=rows, rho=st.tuples(*[entry] * 5))
    # on the square (P1)^2 the constant second piece wins a three-way tie, and its region is
    # the facet x_1 = -1
    @example(pieces=[(-1, 0, 0, 0, -1), (0, 0, 0, 0, 0), (-2, 0, 0, 0, -1)], rho=(1, -1, 0, 0, 0))
    # the same tie with the constant piece first
    @example(pieces=[(0, 0, 0, 0, 0), (-1, 0, 0, 0, -1), (-2, 0, 0, 0, -1)], rho=(0, 1, 0, 0, 0))
    def test_corpus(self, name, pieces, rho):
        assert_vertices_through_p(config(CORPUS[name].base, pieces), rho[:CORPUS[name].dim])

    @pytest.mark.parametrize("name", sorted(DIM5))
    @settings(max_examples=3, deadline=None)
    @given(pieces=st.lists(st.tuples(*[entry] * 6), min_size=1, max_size=2),
           rho=st.tuples(*[entry] * 5))
    def test_dim5(self, name, pieces, rho):
        assert_vertices_through_p(pl(DIM5[name].base, *pieces), rho)

    @pytest.mark.parametrize("segment", [[], ["--segment", "0,0;1,-1;8"]])
    def test_reduce_records(self, segment):
        """reduce builds the records of P and of the two regions other than R0, with or
        without --segment; it built R0's too, 4 in all."""
        clear_caches()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            csv = ["--segment-csv", str(Path(tmp) / "segment.csv")] * bool(segment)
            assert cli.main(["reduce", str(REPO / "polytopes" / "p2.json"),
                             str(REPO / "tests" / "golden" / "mix2.json"), *segment, *csv]) == 0
        assert geometry._record.cache_info().misses == 3

    def test_segment_tilts_once_per_sample(self, monkeypatch):
        """Each of the 51 samples builds one AffineFn, its rho, and no tilted piece per region."""
        made = []
        monkeypatch.setattr(twisting, "AffineFn",
                            lambda *args: made.append(args) or geometry.AffineFn(*args))
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["reduce", str(REPO / "polytopes" / "p2.json"),
                             str(REPO / "tests" / "golden" / "mix2.json"), "--segment",
                             "0,0;1,-1;50", "--segment-csv", str(Path(tmp) / "segment.csv")]) == 0
        assert len(made) == 51


def dh_variance(m):
    return m.moment(2) - m.moment(1) ** 2


def assert_polarization(P, f, rho):
    """f_rho = f + <rho, .>: its DH mean is e_na(f) + <rho, b>, and its DH variance is
    Var(f) + 2 inner_product(f, rho) + rho^T cov rho / vol."""
    m, m_rho = dh_measure(f), dh_measure(twist(f, rho))
    cov, vol = covariance(P), volume(P.base)
    quad = sum(r * cov[i][j] * s for i, r in enumerate(rho) for j, s in enumerate(rho))
    assert m_rho.moment(0) == 1
    assert m_rho.moment(1) == e_na(f) + _dot(rho, barycenter(P.base))
    assert dh_variance(m_rho) == dh_variance(m) + 2 * inner_product(f, rho) + quad / vol


class TestPolarization:
    """Twisting by rho polarizes the DH variance through inner_product."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @settings(max_examples=6, deadline=None)
    @given(pieces=rows, rho=st.tuples(*[entry] * 5))
    def test_corpus(self, name, pieces, rho):
        P = CORPUS[name]
        assert_polarization(P, config(P.base, pieces), rho[:P.dim])

    @pytest.mark.parametrize("name", sorted(DIM5))
    @settings(max_examples=3, deadline=None)
    @given(pieces=st.lists(st.tuples(*[entry] * 6), min_size=1, max_size=2),
           rho=st.tuples(*[entry] * 5))
    def test_dim5(self, name, pieces, rho):
        P = DIM5[name]
        assert_polarization(P, pl(P.base, *pieces), rho)
