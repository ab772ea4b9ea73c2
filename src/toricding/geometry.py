"""Exact rational polytope kernel.

Vertex enumeration, pulling triangulation, volumes, barycenters and
exact integrals of a product of two affine functions over bounded
rational H-polytopes, and convex hulls.  Every vertex set, boundedness
check and hull is one double-description computation (Motzkin et al.
1953, Fukuda-Prodon 1996): the extreme rays of a cone {y : <h, y> <= 0},
cut by one row at a time.  A facet <a, x> <= b is one primitive integer row
(a, b).  Each polytope has one cached record: the lifted integer rows (D v, D)
of its vertices v, the bitmasks of their tight facets, its simplices, pulled
over faces (vertex bitmasks) read off those, with their integer determinants,
its volume and its integer moment.  Building a polytope from outside
(HPolytope.from_inequalities) computes the record, which checks boundedness;
a linearity region cuts its parent's vertices and needs no check.  Rays are
primitive integer vectors.  Linear algebra is
fraction-free on integers (Bareiss 1968): one Gauss-Jordan routine for
the starting cones, the vertex charts and the extremal Gram system, and one
elimination per pulling step, shared by every simplex below it, for the
simplex determinants.  An affine function is its integer row, cleared once:
its equality, hash, values, integrals and region rows read that row.
Points, volumes and integrals are fractions.Fraction.  Floats never
enter this module.  Intended for desk-scale dimensions (n <= 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import eq, gt, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    InputTooLarge,
    UnboundedPolytope,
    ZeroFacetNormal,
)

Point = tuple[Fraction, ...]

# entries per kernel cache: more polytopes than one pass of any bundled
# workload touches, few enough to bound a long-lived process
CACHE_SIZE = 1024


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _text(x) -> str:
    """str(x): a rational as p/q, or p when it is an integer."""
    try:
        return str(x)
    except ValueError:  # past Python's limit on the digits of an int's decimal string
        raise InputTooLarge("value too long to print: it passes the digit limit") from None


def show(x) -> str:
    """x for a message: a rational as p/q, a point or list as (p/q, ...)."""
    if isinstance(x, (tuple, list)):
        return f"({', '.join(map(show, x))})"
    return _text(_frac(x))


@dataclass(frozen=True)
class AffineFn:
    """x -> <gradient, x> + constant.  Its identity, which equality and the hash
    read, is the canonical integer row cleared = (q (g, c), q), q the lcm of the
    denominators: the value at x is <q (g, c), (D x, D)> / (q D) for any D clearing x."""

    gradient: tuple[Fraction, ...] = field(compare=False)
    constant: Fraction = field(compare=False)
    cleared: tuple[tuple[int, ...], int] = field(init=False, repr=False)

    def __post_init__(self):
        q, (row,) = _lift([self.gradient + (self.constant,)])
        object.__setattr__(self, "cleared", (row[:-1], q))

    @staticmethod
    def const(value, dim: int) -> "AffineFn":
        return AffineFn((Fraction(0),) * dim, _frac(value))

    def __call__(self, x: Sequence) -> Fraction:
        if len(x) != len(self.gradient):
            raise DimensionMismatch(f"point has dim {len(x)}, affine has dim {len(self.gradient)}")
        return sum((g * _frac(c) for g, c in zip(self.gradient, x)), self.constant)

    @property
    def is_constant(self) -> bool:
        return not any(self.cleared[0][:-1])


def _primitive(normal: Sequence, rhs) -> tuple[int, ...]:
    """<normal, x> <= rhs cleared to one primitive integer row (a_1, ..., a_n, b)."""
    *row, _ = _lift([tuple(map(_frac, normal)) + (_frac(rhs),)])[1][0]
    if not any(row[:-1]):
        raise ZeroFacetNormal("zero facet normal")
    return _divided(row)


def _tighten(tight: dict, n: tuple[int, ...], row: tuple[int, ...]) -> None:
    """Keep as tight[n] the tighter of the primitive rows row and tight[n], both
    of primitive normal n: (g n, b) is tighter than (g' n, b') iff b g' < b' g,
    and g' / g is the ratio of the l1 norms of the two rows' normals."""
    old = tight.setdefault(n, row)
    if old is not row and row[-1] * sum(map(abs, old[:-1])) < old[-1] * sum(map(abs, row[:-1])):
        tight[n] = row


@dataclass(frozen=True)
class HPolytope:
    """Bounded rational polytope {x : <a, x> <= b for each facet (a, b)}.

    Each facet is one primitive integer row (a_1, ..., a_n, b), the tightest
    of its primitive normal; facets are sorted, so equal polytope descriptions
    compare equal.  A linearity region's parent, the polytope it was cut
    from, takes no part in equality.
    """

    dim: int
    facets: tuple[tuple[int, ...], ...]
    parent: "HPolytope | None" = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_inequalities(dim: int, rows: Iterable[tuple[Sequence, object]]) -> "HPolytope":
        """Normalize the rows and compute the record; raises UnboundedPolytope
        for an unbounded system and InputTooLarge above dim 5."""
        P = _normalized(dim, rows)
        _record(P)
        return P


def _normalized(dim: int, rows: Iterable[tuple[Sequence, object]]) -> HPolytope:
    """Primitive rows, the tightest one per primitive normal; boundedness unchecked."""
    tight = {}
    for normal, rhs in rows:
        if len(normal) != dim:
            raise DimensionMismatch("facet normal has wrong length")
        row = _primitive(normal, rhs)
        _tighten(tight, _divided(row[:-1]), row)
    return HPolytope(dim, tuple(sorted(tight.values())))


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((_frac(x) * _frac(y) for x, y in zip(a, b)), Fraction(0))


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan reduction of an integer matrix (Bareiss
    1968): (reduced rows, pivot columns, last pivot p).

    Each pivot step scales every other row by the new pivot and divides by
    the previous one; every entry stays a minor of the input, so each
    division is exact.  The reduced rows are p times the reduced row echelon
    form: row i holds p in column pivots[i].  p is +-det of the pivot rows
    and columns of the input; elimination stops once every row holds a pivot.
    """
    m, pivots, prev = [list(row) for row in rows], [], 1
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[col]
        m = [row if row is top else [(p * a - row[col] * b) // prev for a, b in zip(row, top)]
             for row in m]
        pivots.append(col)
        prev = p
    return m, pivots, prev


def _divided(y: Sequence[int]) -> tuple[int, ...]:
    """The integer vector y over the gcd of its entries: a primitive vector."""
    g = gcd(*y)
    return tuple(y) if g == 1 else tuple(c // g for c in y)


class _Record(NamedTuple):
    """What the kernel knows of one polytope; rows are () when it is empty."""

    tight: tuple[int, ...]  # per vertex, the bitmask of the facets tight there
    rows: tuple[tuple[int, ...], ...]  # per vertex v, the lifted row (D v, D), sorted
    simplices: tuple[tuple[tuple[int, ...], int], ...]  # (vertex indices, |det| of their rows)
    unit: int  # n! D^(n+1): a simplex has volume det / unit
    moment: tuple[int, ...]  # sum over simplices s of det * sum_{k in s} rows[k]
    volume: Fraction


def _lift(points: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, the integer rows (D v, D) of the points v) for D their least common
    denominator; the row of a single point is a primitive ray."""
    D = lcm(*(c.denominator for v in points for c in v))
    return D, [tuple(c.numerator * (D // c.denominator) for c in v) + (D,) for v in points]


def _cut(rays: list, tight: list, rows: Iterable[tuple[int, Sequence]]) -> tuple[list, list]:
    """Cut the cone spanned by rays with <h, y> <= 0 for each (i, h) of rows.

    Rays and rows are integer vectors; a row is used as it comes and each
    ray it adds is primitive.  tight[k] is the bitmask of the rows already
    cut by that are tight at rays[k].  A row keeps the rays on its side,
    adding bit i to the tight sets of those on it, and adds the ray where
    it crosses each edge of the cone.  Two rays span an edge iff no other
    ray is tight at every row both are (the double-description step).
    """
    for i, h in rows:
        slack, bit = [sum(map(mul, h, y)) for y in rays], 1 << i
        out = [w for w, s in enumerate(slack) if s > 0]
        cut = [(y, T | bit if s == 0 else T) for y, T, s in zip(rays, tight, slack) if s <= 0]
        for u, su in enumerate(slack if out else ()):
            if su >= 0:
                continue
            for w in out:
                Z = tight[u] & tight[w]
                if Z.bit_count() >= len(h) - 2 and not any(
                        Z & T == Z for k, T in enumerate(tight) if k != u and k != w):
                    sw = slack[w]
                    y = [sw * a - su * b for a, b in zip(rays[u], rays[w])]
                    cut.append((_divided(y), Z | bit))
        rays, tight = [y for y, _ in cut], [T for _, T in cut]
    return rays, tight


def _extreme_rays(rows: Sequence[Sequence[int]]) -> tuple[list, list] | None:
    """Extreme rays of {y : <h, y> <= 0 for h in rows}, integer rows, as
    primitive integer vectors with tight sets, bitmasks over rows; None when
    the rows do not span, so the cone is not pointed.

    Reducing [H^T | I] picks the first independent rows B as the pivot
    columns and leaves p (H_B^{-1})^T in the right half, p the last pivot.
    The rays of the simplicial cone {H_B y <= 0} are the negated columns of
    H_B^{-1}, ray j tight at every row of B but its j-th; the remaining rows
    cut it.  Scaling a row by a positive integer changes no ray.
    """
    d = len(rows[0])
    m, basis, p = _gauss_jordan([list(col) + [int(i == j) for j in range(d)]
                                 for i, col in enumerate(zip(*rows))])
    if basis[-1] >= len(rows):
        return None
    sign = -1 if p > 0 else 1
    rays = [_divided([sign * c for c in row[len(rows):]]) for row in m]
    B = sum(1 << b for b in basis)
    return _cut(rays, [B ^ 1 << b for b in basis],
                ((i, h) for i, h in enumerate(rows) if not B >> i & 1))


@lru_cache(maxsize=CACHE_SIZE)
def _record(P: HPolytope) -> _Record:
    """The vertices of P are the rays (v, 1) of the cone {(x, t) : <n, x> <= r t, t >= 0}.

    Without a parent, the cone comes from _extreme_rays; a ray with t = 0
    is a recession direction.  A linearity region cuts its parent's cone
    by its rows that are not facets of the parent; a facet of both keeps
    its index here, the parent's other facets come after P's.
    """
    if P.dim > 5:
        raise InputTooLarge("vertex enumeration supports dim <= 5")
    m = len(P.facets)
    if P.parent is None:
        cone = _extreme_rays([row[:-1] + (-row[-1],) for row in P.facets] + [(0,) * P.dim + (-1,)])
        if cone is None:
            raise UnboundedPolytope("facet normals do not span the ambient space")
        rays, tight = cone
        d = next((y[:-1] for y in rays if y[-1] == 0), None)
        if d is not None:
            raise UnboundedPolytope(
                "interval missing a bound" if P.dim == 1 else f"recession direction {show(d)}")
    else:
        parent, index = _record(P.parent), {row: i for i, row in enumerate(P.facets)}
        # the bit of each parent facet in P; index keeps P's rows that are not the parent's
        bit = [1 << index.pop(row, m + k) for k, row in enumerate(P.parent.facets)]
        rays, tight = _cut([_divided(row) for row in parent.rows],
                           [sum(b for k, b in enumerate(bit) if T >> k & 1) for T in parent.tight],
                           ((i, row[:-1] + (-row[-1],)) for row, i in index.items()))
    # a primitive ray (x, t) is the vertex x / t, and t is its least denominator;
    # the simplex on the lifted rows S has volume |det S| / (n! D^{n+1}), so
    # the volume and the barycenter are sums of integers.  No tight set holds
    # an index >= m: without a parent, m is the row t >= 0, tight only at a
    # recession ray, which raised above; in a region, m + k is a parent facet
    # <a, x> <= b that P carries tighter, so no vertex of P is on it.
    D = lcm(*(y[-1] for y in rays))
    rows, tight = zip(*sorted((tuple(c * (D // y[-1]) for c in y[:-1]) + (D,), T)
                              for y, T in zip(rays, tight))) if rays else ((), ())
    simplices = _pulling(P, tight, rows)
    unit = factorial(P.dim) * D ** (P.dim + 1)
    w = [0] * len(rows)  # the moment is sum_k w_k rows[k], w_k = sum of det_s over s holding k
    for s, det in simplices:
        for k in s:
            w[k] += det
    moment = tuple(sum(map(mul, w, (row[t] for row in rows))) for t in range(P.dim + 1))
    return _Record(tight, rows, simplices, unit, moment,
                   Fraction(sum(det for _, det in simplices), unit))


def _nonempty(P: HPolytope) -> _Record:
    rec = _record(P)
    if not rec.rows:
        raise EmptyPolytope("no feasible vertex")
    return rec


def _values(P: HPolytope, a: AffineFn) -> tuple[list[int], int]:
    """(values, Q): a(v) = <q (g, c), (D v, D)> / (q D) at each row of P's record."""
    rows, (G, q) = _nonempty(P).rows, a.cleared
    return [sum(map(mul, G, row)) for row in rows], q * rows[0][-1]


def vertices(P: HPolytope) -> tuple[Point, ...]:
    """All points where >= dim facets are tight and every facet holds, sorted
    lexicographically, from the record's rows; raises EmptyPolytope when empty."""
    return tuple(tuple(Fraction(c, r[-1]) for c in r[:-1]) for r in _nonempty(P).rows)


def _pulling(P: HPolytope, tight: Sequence[int], rows: Sequence[Sequence[int]]):
    """The simplices of triangulate(P), as vertex indices with the |det| of
    their rows, from the tight sets of P's vertices.

    A face F is the bitmask of its vertices.  Its facets, its maximal proper
    faces, are the maximal nonzero F & on[i] != F over the rows i of P,
    redundant rows included (Ziegler, Lectures on Polytopes, 2.2).  A nonempty
    P is lower-dimensional iff some row is tight at every vertex (Schrijver,
    Theory of Linear and Integer Programming, 8.2).  A simplex is a path of
    apexes in a trie, and the fraction-free elimination (Bareiss 1968) of its
    rows in that order is shared along the path: a face holds its vertices'
    rows reduced by the apexes above.  Its apex's row pivots at its first
    nonzero column c, and each other row y becomes (p y - y[c] pivot) // prev
    without column c: Bareiss with columns permuted, so each division is
    exact.  An edge's 2 x 2 minor over prev is +-det."""
    on = [sum(1 << k for k, T in enumerate(tight) if T >> i & 1) for i in range(len(P.facets))]
    if not tight or (1 << len(tight)) - 1 in on:
        return ()
    out = []

    def pull(face: int, k: int, prefix: tuple, red: dict, prev: int, above) -> None:
        apex = (face & -face).bit_length() - 1
        if k == 1:  # an edge: the last step leaves the 2 x 2 minor over prev
            v = (face ^ 1 << apex).bit_length() - 1
            (a, b), (x, y) = red[apex], red[v]
            out.append((prefix + (apex, v), abs((a * y - b * x) // prev)))
            return
        top = red[apex]
        c = next(j for j, x in enumerate(top) if x)
        p, rest = top[c], top[:c] + top[c + 1:]
        below = {v: [(p * a - y[c] * b) // prev for a, b in zip(y[:c] + y[c + 1:], rest)]
                 for v, y in red.items() if face >> v & 1 and v != apex}
        # face & on[i] = face & (F & on[i]): the distinct cuts of the face F above stand in for on
        cuts = dict.fromkeys(cut for o in above if (cut := face & o) and cut != face)
        for sub in cuts:
            if not sub >> apex & 1 and not any(sub & o == sub != o for o in cuts):
                pull(sub, k - 1, prefix + (apex,), below, p, cuts)

    pull((1 << len(tight)) - 1, P.dim, (), dict(enumerate(rows)), 1, on)
    return tuple(out)


def triangulate(P: HPolytope) -> tuple[tuple[Point, ...], ...]:
    """Pulling triangulation over the vertex-facet incidence of P: the
    lexicographically-first vertex of each face is coned over the
    triangulations of its facets that miss it.  Every simplex is
    full-dimensional; a lower-dimensional P yields the empty triangulation.
    """
    verts = vertices(P)
    return tuple(tuple(verts[k] for k in s) for s, _ in _record(P).simplices)


def volume(P: HPolytope) -> Fraction:
    """Exact Lebesgue volume; 0 for lower-dimensional polytopes."""
    return _nonempty(P).volume


def _moment(P: HPolytope) -> tuple[int, ...]:
    """The record's moment m, b = m[:-1] / m[-1]; EmptyPolytope when P is empty or degenerate."""
    if not (m := _nonempty(P).moment)[-1]:
        raise EmptyPolytope("barycenter of a degenerate polytope")
    return m


def barycenter(P: HPolytope) -> Point:
    """Exact centroid: volume-weighted average of simplex centroids, the
    record's moment over its last entry (n + 1) D sum det."""
    *m, total = _moment(P)
    return tuple(Fraction(c, total) for c in m)


def _centred(P: HPolytope, a: Sequence) -> AffineFn:
    """x -> <a, x - b> for the barycenter b of P."""
    a = tuple(map(_frac, a))
    return AffineFn(a, -sum(map(mul, a, barycenter(P)), Fraction(0)))


def integrate_product(P: HPolytope, a: AffineFn, b: AffineFn) -> Fraction:
    """Exact integral of a(x) b(x) over P from a and b at P's vertices, each taken once.

    Over a simplex with vertices w_0..w_n (barycentric Dirichlet moments):
      int a b = vol * (sum_w a(w) b(w) + sum_w a(w) * sum_w b(w)) / ((n+1)(n+2))
    summed in integers: vol = det / unit and a(w) = value / Q from _values.
    """
    if any(len(f.gradient) != P.dim for f in (a, b)):
        raise DimensionMismatch(f"affine dimension does not match polytope dim {P.dim}")
    return _product(P, *_values(P, a), *_values(P, b))


def _product(P: HPolytope, va: Sequence[int], Qa: int, vb: Sequence[int], Qb: int) -> Fraction:
    """int_P a b for a = va / Qa and b = vb / Qb at the rows of P's record."""
    rec, n, total = _record(P), P.dim, 0
    for s, det in rec.simplices:
        sa, sb = [va[k] for k in s], [vb[k] for k in s]
        total += det * (sum(map(mul, sa, sb)) + sum(sa) * sum(sb))
    return Fraction(total, rec.unit * Qa * Qb * (n + 1) * (n + 2))


def _signed_product(R: HPolytope, a: AffineFn, a0: AffineFn, b: AffineFn | None = None) -> Fraction:
    """int_R (a - a0) b, or int_R (a - a0)(a + a0) without b; a -+ a0 is q0 G -+ q G0 over q q0."""
    (G, q), (G0, q0), rows = a.cleared, a0.cleared, _nonempty(R).rows
    minus, plus = ([q0 * x + s * q * y for x, y in zip(G, G0)] for s in (-1, 1))
    Q = q * q0 * rows[0][-1]
    vb, Qb = _values(R, b) if b else ([sum(map(mul, plus, row)) for row in rows], Q)
    return _product(R, [sum(map(mul, minus, row)) for row in rows], Q, vb, Qb)


def region_subdivision(P: HPolytope, affines: Sequence[AffineFn]):
    """Linearity regions of min(affines) on P.

    Returns [(region, affine)] in piece order with empty and lower-dimensional
    regions pruned; region volumes sum to volume(P).  Unlike the functionals,
    which read a0's region through P, this builds every region's record."""
    a0, *_, regions = _region_subdivision_cached(P, tuple(affines))
    return [(R, a) for R, a in regions if a is not a0 or _record(R).simplices]


@lru_cache(maxsize=CACHE_SIZE)
def _region_subdivision_cached(P: HPolytope, affines: tuple[AffineFn, ...]):
    """(a0, the other regions, (Q f at P's vertices, Q), f's mean (_mean), all regions (R, a)
    in piece order): a0 is the first piece lowest at the most vertices of P, a constant one
    first among those.  A piece above another at every vertex of P gets no region; pruning
    the others records all but R0."""
    if not affines:
        raise ValueError("need at least one affine piece")
    uniq = list(dict.fromkeys(affines))
    if any(len(a.gradient) != P.dim for a in uniq):
        raise DimensionMismatch("affine dimension does not match polytope")
    values = [_values(P, a) for a in uniq]
    Q = lcm(*(Qa for _, Qa in values))
    scaled = [[v * (Q // Qa) for v in va] for va, Qa in values]
    low = [min(column) for column in zip(*scaled)]  # Q f at each vertex of P
    a0 = max(zip(uniq, scaled), key=lambda p: (sum(map(eq, p[1], low)), p[0].is_constant))[0]
    live = (a for a, va in zip(uniq, scaled) if not any(all(map(gt, va, vb)) for vb in scaled))
    regions = tuple((R, a) for R, a in ((_region(P, a, uniq), a) for a in live)
                    if R is not None and (a is a0 or _record(R).simplices))
    others = tuple((R, a) for R, a in regions if a is not a0)
    return a0, others, (low, Q), _mean(P, a0, others), regions


def _mean(P: HPolytope, a0: AffineFn, others) -> Fraction:
    """(1/vol) int_P f = int_P a0 + sum_R int_R (a - a0), each <G, moment> / ((n+1) unit q D)."""
    n, (G0, q0), total = P.dim, a0.cleared, Fraction(0)
    for R, a in ((P, a0),) + others:
        rec, (G, q) = _record(R), a.cleared
        if R is not P:  # a - a0 is q0 (g, c) - q (g0, c0) over q q0
            G, q = [q0 * x - q * y for x, y in zip(G, G0)], q * q0
        total += Fraction(sum(map(mul, G, rec.moment)), (n + 1) * rec.unit * q * rec.rows[0][-1])
    return total / _record(P).volume


def _region(P: HPolytope, aj: AffineFn, affines: Sequence[AffineFn]) -> HPolytope | None:
    """P cut by a_j <= a_i for every affine a_i, with parent P; None when
    a parallel affine lies strictly below a_j."""
    # P's rows are the tightest of their normals already: only a new row is compared
    (Gj, qj), tight = aj.cleared, {_divided(row[:-1]): row for row in P.facets}
    for ai in affines:
        # a_j <= a_i  <=>  <h, x> <= -k for (h, k) = q_i (g_j, c_j) - q_j (g_i, c_i)
        Gi, qi = ai.cleared
        *h, k = (qi * x - qj * y for x, y in zip(Gj, Gi))
        g = gcd(*h)
        if not g:
            if k > 0:
                return None
            continue
        e = gcd(g, k)
        _tighten(tight, tuple(c // g for c in h), tuple(c // e for c in h) + (-k // e,))
    return HPolytope(P.dim, tuple(sorted(tight.values())), P)


def facets_from_vertices(points: Sequence[Sequence]) -> HPolytope:
    """H-representation of the convex hull of a full-dimensional point set.

    Its facets <a, x> <= r are the extreme rays (a, r) of the cone of
    inequalities that every point satisfies.
    """
    pts = sorted(set(tuple(map(_frac, p)) for p in points))
    if not pts:
        raise EmptyPolytope("no points")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    D, rows = _lift(pts)
    cone = _extreme_rays([row[:-1] + (-D,) for row in rows])
    if cone is None:
        raise EmptyPolytope("points do not span a full-dimensional hull")
    return _normalized(dim, ((y[:-1], y[-1]) for y in cone[0]))
