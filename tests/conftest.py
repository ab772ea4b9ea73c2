import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricding import AffineFn, HPolytope, PLConcave, validate_fano
from toricding import io as tio
from toricding import rationalpoly as rp
from toricding.errors import DimensionMismatch
from toricding.geometry import _frac, _normalized, barycenter
from toricding.twisting import _twisted

REPO = Path(__file__).resolve().parent.parent
POLYTOPE_DIR = REPO / "polytopes"

# the bundled polytopes and the dim 3-4 ones kept with the golden outputs
CORPUS_FILES = {
    **{name: POLYTOPE_DIR / f"{name}.json"
       for name in ("p1", "p2", "bl1p2", "p1xp1", "stretched")},
    **{name: REPO / "tests" / "golden" / f"{name}.json"
       for name in ("p3", "blp3", "p1x3", "p4", "p1x4")},
}


def load_corpus(name):
    return validate_fano(tio.load_polytope(str(CORPUS_FILES[name])))


def poly_add(p, q):
    n = max(len(p), len(q))
    return rp.trim(tuple(
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ))


def poly_multiply(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return rp.trim(out)


def poly_scale(p, s):
    return rp.trim(tuple(c * s for c in p))


def lagrange_interpolate(points):
    """Unique polynomial of degree < len(points) through the given points."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    result = ()
    for i, (xi, yi) in enumerate(points):
        basis = (Fraction(1),)
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = poly_multiply(basis, (-xj, Fraction(1)))
                denom *= xi - xj
        result = poly_add(result, poly_scale(basis, yi / denom))
    return result


def twist(f, rho):
    """Add <rho, x> to every affine piece of f; the domain is unchanged."""
    if len(rho) != f.domain.dim:
        raise DimensionMismatch("rho length does not match domain dimension")
    return PLConcave(tuple(AffineFn(tuple(g + _frac(r) for g, r in zip(a.gradient, rho)),
                                    a.constant) for a in f.affines), f.domain)


def futaki_pairing(P, a):
    """<a, b>: minus the Ding invariant of the product configuration <a, x>."""
    if len(a) != P.dim:
        raise DimensionMismatch("vector length does not match polytope dimension")
    return sum((_frac(ai) * bi for ai, bi in zip(a, P.barycenter())), Fraction(0))


def pairs(P):
    """P's facets as (a, b) pairs, each row (a_1, ..., a_n, b) meaning <a, x> <= b."""
    return [(row[:-1], row[-1]) for row in P.facets]


def indices(mask):
    """The set of the indices of the set bits of a bitmask."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def clip(P, normal, rhs):
    """Intersect P with the halfspace <normal, x> <= rhs."""
    return _normalized(P.dim, pairs(P) + [(normal, rhs)])


def make_p1():
    return validate_fano(HPolytope.from_inequalities(1, [([1], 1), ([-1], 1)]))


def make_p2():
    return validate_fano(
        HPolytope.from_inequalities(2, [([-1, 0], 1), ([0, -1], 1), ([1, 1], 1)])
    )


def make_bl1p2():
    return validate_fano(
        HPolytope.from_inequalities(
            2, [([1, 0], 1), ([0, 1], 1), ([-1, -1], 1), ([1, 1], 1)]
        )
    )


def make_p1xp1():
    return validate_fano(
        HPolytope.from_inequalities(
            2, [([1, 0], 1), ([-1, 0], 1), ([0, 1], 1), ([0, -1], 1)]
        )
    )


def make_stretched():
    # engineered rational Fano polytope with vartheta > 1 (regression: 38/23)
    return validate_fano(
        HPolytope.from_inequalities(
            2, [([-1, 0], 1), ([0, 1], 1), ([0, -1], 1), ([2, 1], 1), ([2, -1], 1)]
        )
    )


@pytest.fixture(scope="session")
def p1():
    return make_p1()


@pytest.fixture(scope="session")
def p2():
    return make_p2()


@pytest.fixture(scope="session")
def bl1p2():
    return make_bl1p2()


@pytest.fixture(scope="session")
def p1xp1():
    return make_p1xp1()


@pytest.fixture(scope="session")
def stretched():
    return make_stretched()


@pytest.fixture(scope="session")
def corpus(p1, p2, bl1p2, p1xp1):
    return {"p1": p1, "p2": p2, "bl1p2": bl1p2, "p1xp1": p1xp1}


def affine(gradient, constant=0):
    """AffineFn from a gradient and a constant given as ints, Fractions or strings."""
    return AffineFn(tuple(_frac(g) for g in gradient), _frac(constant))


def pl(domain, *rows):
    """PLConcave from (gradient..., constant) rows."""
    return PLConcave.make([affine(row[:-1], row[-1]) for row in rows], domain)


def twisted_j(f, rho):
    """J of the twisted configuration f + <rho, .>, as `reduce --segment` samples it."""
    return _twisted(f, tuple(_frac(r) for r in rho), barycenter(f.domain))


@pytest.fixture(scope="session")
def step_p1(p1):
    """min{0, -x} on the interval [-1, 1]."""
    return pl(p1, (0, 0), (-1, 0))


@pytest.fixture(scope="session")
def step_p2(p2):
    """min{0, -x_1} on the anticanonical triangle."""
    return pl(p2, (0, 0, 0), (-1, 0, 0))


def frac(n, d=1):
    return Fraction(n, d)
