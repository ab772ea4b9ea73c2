"""Per-region references for the sums that the library reads through the
domain's record, and for the regions themselves.

The library reads the region R0 of one piece a0 through P: f = a0 + sum over
the other regions R of (a - a0) 1_R almost everywhere.  Each sum here is over
every region of f.regions(), R0 included, on each region's own record, as
the library did before; the extrema are taken in Fractions at the vertices.
The library gives no region to a piece that lies above another at every
vertex of P; piece_regions cuts one for every piece and prunes by the
records, as the library did before.
"""

from fractions import Fraction
from operator import mul

from toricding.geometry import _centred, _dot, _record, _region, integrate_product, vertices, volume


def piece_regions(f):
    """[(R, a)] in piece order: every distinct piece's region, cut by every
    piece's row, empty and lower-dimensional ones pruned by their records."""
    pieces = list(dict.fromkeys(f.affines))
    cut = ((_region(f.domain, a, pieces), a) for a in pieces)
    return [(R, a) for R, a in cut if R is not None and _record(R).simplices]


def region_e_na(f):
    """(1/vol) sum over the regions R of int_R a = <q (g, c), moment> / ((n+1) unit q D)."""
    n, total = f.domain.dim, Fraction(0)
    for R, a in f.regions():
        rec, (G, q) = _record(R), a.cleared
        total += Fraction(sum(map(mul, G, rec.moment)), (n + 1) * rec.unit * q * rec.rows[0][-1])
    return total / volume(f.domain)


def region_inner_product(f, rho):
    """(1/vol) sum over the regions R of int_R a <rho, x - b>."""
    tilt = _centred(f.domain, rho)
    return sum(integrate_product(R, a, tilt) for R, a in f.regions()) / volume(f.domain)


def region_second_moment(f):
    """(1/vol) sum over the regions R of int_R a^2, the DH second moment."""
    return sum(integrate_product(R, a, a) for R, a in f.regions()) / volume(f.domain)


def region_max_value(f):
    """The largest value of each region's affine at the region's vertices, in Fractions."""
    return max(a(v) for R, a in f.regions() for v in vertices(R))


def region_vertex_count(f):
    """The number of distinct points among the vertices of the regions."""
    return len({v for R, _ in f.regions() for v in vertices(R)})


def region_tilted_peak(f, rho):
    """The largest value of each region's tilted affine a + <rho, .> at the region's vertices:
    the peak of f + <rho, .>."""
    return max(a(v) + _dot(rho, v) for R, a in f.regions() for v in vertices(R))


def region_min_value(f):
    """The least value of any piece at the domain's vertices, in Fractions."""
    return min(a(v) for a in f.affines for v in vertices(f.domain))


def region_atoms(f):
    """The atom (a, vol(R) / vol(P)) of each constant region (R, a), sorted."""
    vol = volume(f.domain)
    return tuple(sorted((a.constant, volume(R) / vol) for R, a in f.regions() if a.is_constant))
