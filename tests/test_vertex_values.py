"""Vertex values read in integers off the kernel record against the Fraction
references: vartheta, the theta-maximizing vertex, the edge directions,
c_max and the twisted J, on the dims 1-5 corpus and on the linearity regions
of random configurations; and the vanishing order of every chart, which is
>= 0 on the polytope and vanishes only at the chart's vertex."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricding import io as tio
from toricding import normal_cone_family, validate_fano
from toricding.errors import NonSmoothVertex
from toricding.extremal import FanoPolytope, extremal_affine
from toricding.geometry import _record, vertices
from toricding.normalcone import _edge_directions, select_vertex

from conftest import CORPUS_FILES, REPO, indices, pl, twisted_j
from fraction_reference import (
    reference_c_max,
    reference_edge_directions,
    reference_jna_twisted,
    reference_select_vertex,
    reference_vartheta,
)

NAMES = sorted(CORPUS_FILES) + ["p5", "blp5", "p1x5"]
POLYTOPES = {name: validate_fano(tio.load_polytope(
    str(CORPUS_FILES.get(name, REPO / "tests" / "golden" / f"{name}.json")))) for name in NAMES}

entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def configurations(draw):
    """One to three pieces (two in dims 4-5) on a dims 1-5 corpus polytope,
    each entry with its own denominator up to 6."""
    P = POLYTOPES[draw(st.sampled_from(NAMES))]
    rows = draw(st.lists(st.tuples(*[entry] * (P.dim + 1)), min_size=1,
                         max_size=3 if P.dim < 4 else 2))
    return pl(P, *rows)


def simple_vertices(P):
    """The vertices of P with exactly dim tight facets."""
    rec = _record(P.base)
    return [v for v, T in zip(vertices(P.base), rec.tight) if len(indices(T)) == P.dim]


def assert_extremal_vertex(P):
    assert extremal_affine(P).vartheta == reference_vartheta(P)
    assert select_vertex(P) == reference_select_vertex(P)
    for v in simple_vertices(P):
        assert _edge_directions(P, v) == reference_edge_directions(P, v)


@pytest.mark.parametrize("name", NAMES)
def test_extremal_vertex_on_corpus(name):
    assert_extremal_vertex(POLYTOPES[name])


@given(f=configurations())
@settings(max_examples=40, deadline=None)
def test_extremal_vertex_on_regions(f):
    for R, _ in f.regions():
        assert_extremal_vertex(FanoPolytope(R))


@given(f=configurations(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_jna_twisted(f, data):
    rho = data.draw(st.lists(entry, min_size=f.domain.dim, max_size=f.domain.dim))
    assert twisted_j(f, rho) == reference_jna_twisted(f, rho)


@pytest.mark.parametrize("name", NAMES)
def test_vanishing_order_at_every_smooth_vertex(name):
    # the edges at a simple vertex v generate its tangent cone, so every vertex
    # is v + sum_i y_i e_i with y >= 0 and ord = sum_i y_i (Ziegler, 2.2)
    P = POLYTOPES[name]
    charts = 0
    for v in vertices(P.base):
        try:
            family = normal_cone_family(P, v)
        except NonSmoothVertex:
            continue
        charts += 1
        ord_fn = family.chart.ord
        assert ord_fn(v) == 0
        assert all(ord_fn(w) > 0 for w in vertices(P.base) if w != v)
        assert family.c_max == reference_c_max(family)
    assert charts > 0

