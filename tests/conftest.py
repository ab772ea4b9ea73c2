import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricding import AffineFn, HPolytope, PLConcave, validate_fano
from toricding import io as tio
from toricding import rationalpoly as rp
from toricding.geometry import _normalized

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
                basis = rp.multiply(basis, (-xj, Fraction(1)))
                denom *= xi - xj
        result = rp.add(result, rp.scale(basis, yi / denom))
    return result


def clip(P, normal, rhs):
    """Intersect P with the halfspace <normal, x> <= rhs."""
    return _normalized(P.dim, P.facets + ((normal, rhs),))


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


def pl(domain, *rows):
    """PLConcave from (gradient..., constant) rows."""
    affines = [AffineFn.make(row[:-1], row[-1]) for row in rows]
    return PLConcave.make(affines, domain)


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
