"""Each configuration is split once, and its DH knots are summed in integers.

The cached split gives no region to a piece that lies above another at every
vertex of P, and it sums the mean of f once; dh_measure sums its knot
coefficients as integers over common denominators.  These tests hold the
regions to a cut of every piece, count the sums of the mean through the CLI,
and hold dh_measure exactly to its Fraction knot sums.
"""

import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricding import cli, extremal, geometry, lattice
from toricding import io as tio
from toricding.functionals import dh_measure
from toricding.normalcone import _default_grid, g_c, normal_cone_family

from conftest import CORPUS_FILES, REPO, load_corpus, pl
from dh_reference import fraction_dh_measure
from region_reference import piece_regions

CORPUS = {name: load_corpus(name) for name in sorted(CORPUS_FILES)}

# half-integer entries repeat vertex values within a simplex: repeated knots
entry = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                  st.sampled_from([Fraction(k, 2) for k in range(-4, 5)]))
# a piece as (g_1, ..., g_4, c): a polytope of dim n reads g_1..g_n and c
rows = st.lists(st.tuples(*[entry] * 5), min_size=1, max_size=4)
# a far tangent plane of tcmix, 50 -+ 10 x_i, which lies above 0 on every corpus polytope
far = st.builds(lambda i, s: tuple(-10 * s * (j == i) for j in range(4)) + (50,),
                st.integers(0, 3), st.sampled_from((1, -1)))


def config(P, pieces):
    return pl(P, *(row[:P.dim] + row[-1:] for row in pieces))


def clear_caches():
    for cache in (geometry._record, geometry._region_subdivision_cached,
                  extremal.extremal_affine, lattice._fiber_rows):
        cache.cache_clear()


def run(argv):
    """(exit code, stdout) of one command through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def affines(*pieces):
    return {"affines": [{"gradient": [str(g) for g in p[:-1]], "constant": str(p[-1])}
                        for p in pieces]}


def tcmix_configurations():
    """A param (polytope document, configuration document) per tc-eval task of
    the benchmark's tcmix workload at seeds 0-2, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("tcmix_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(workloads)
    params = []
    for seed in (0, 1, 2):
        files, tasks = workloads.build_inputs("tcmix", seed)
        params += [pytest.param(files[f"polytopes/{t.polytope}.json"], files[t.argv[2][2:]],
                                id=f"seed{seed}-{t.id}")
                   for t in tasks if t.kind == "tc-eval"]
    return params


class TestDominatedPieces:
    """A piece above another at every vertex of P gets no region and no record."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @settings(max_examples=10, deadline=None)
    @given(pieces=rows, far_pieces=st.lists(far, max_size=2))
    # the step with a far piece, as in tcmix
    @example(pieces=[(0, 0, 0, 0, 0), (-1, 0, 0, 0, 0)], far_pieces=[(-10, 0, 0, 0, 50)])
    # a piece above another by a constant, and the same piece twice
    @example(pieces=[(1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 0, 0)], far_pieces=[])
    def test_regions_match_per_piece_cut(self, name, pieces, far_pieces):
        f = config(CORPUS[name].base, pieces + far_pieces)
        assert f.regions() == piece_regions(f)

    def test_far_piece_builds_no_record(self, tmp_path):
        """tc-eval prints the same with a far piece as without it, and builds the
        same two records: P and the region of -x_1 (R0, of the constant a0, is read
        through P).  Cutting the far piece's empty region would record it too."""
        polytope = str(CORPUS_FILES["p2"])
        results = []
        for pieces in ([(0, 0, 0), (-1, 0, 0)], [(0, 0, 0), (-1, 0, 0), (-10, 0, 50)]):
            tc = tmp_path / f"tc{len(pieces)}.json"
            tc.write_text(json.dumps(affines(*pieces)))
            clear_caches()
            results.append((*run(["tc-eval", polytope, str(tc), "--rho=1,-1"]),
                            geometry._record.cache_info().misses))
        assert results[0][0] == 0 and results[0][2] == 2
        assert results[1] == results[0]


def test_mean_summed_once_per_configuration(tmp_path):
    """tc-eval and then reduce on one configuration sum its mean once: every
    functional reads it from the cached split."""
    tc = tmp_path / "tc.json"
    tc.write_text(json.dumps(affines((0, 0, 0), (-1, 0, 0), (Fraction(1, 2), -1, 1))))
    polytope = str(CORPUS_FILES["p2"])
    clear_caches()
    with mock.patch.object(geometry, "_mean", wraps=geometry._mean) as mean:
        assert run(["tc-eval", polytope, str(tc), "--rho=1,-1"])[0] == 0
        assert run(["reduce", polytope, str(tc)])[0] == 0
    assert mean.call_count == 1


class TestIntegerKnotSums:
    """dh_measure equals its Fraction knot sums exactly."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @settings(max_examples=10, deadline=None)
    @given(pieces=rows)
    # a constant a0 with an atom, and one constant region beside a sloped one
    @example(pieces=[(0, 0, 0, 0, 0), (1, 1, 1, 1, Fraction(-1, 2))])
    @example(pieces=[(0, 0, 0, 0, Fraction(1, 3)), (-1, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    # pieces of different denominators, so regions of different Q
    @example(pieces=[(Fraction(1, 2), 0, 0, 0, 0), (Fraction(-1, 3), 1, 0, 0, Fraction(1, 5))])
    def test_corpus(self, name, pieces):
        f = config(CORPUS[name].base, pieces)
        assert dh_measure(f) == fraction_dh_measure(f)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_step_configuration(self, name):
        # the step min(0, -x_1): x_1 repeats its value along whole faces
        f = config(CORPUS[name].base, [(0, 0, 0, 0, 0), (-1, 0, 0, 0, 0)])
        assert dh_measure(f) == fraction_dh_measure(f)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_g_c_corners(self, name):
        # the corner simplex of g_c has n vertices on {ord = c}: n equal knots
        family = normal_cone_family(CORPUS[name])
        for c in _default_grid(family):
            f = g_c(family, c)
            assert dh_measure(f) == fraction_dh_measure(f)

    @pytest.mark.parametrize("polytope, tc", tcmix_configurations())
    def test_tcmix_configurations(self, polytope, tc):
        f = tio.test_config_from_dict(tc, tio.polytope_from_dict(polytope))
        assert dh_measure(f) == fraction_dh_measure(f)
