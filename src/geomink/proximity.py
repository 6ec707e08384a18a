"""Collision, separation-distance, and directional-penetration queries
against a precomputed Minkowski sum M = P (+) (-Q).

Translates of P and Q intersect exactly when the query point s = w - u
lies in M.  The classification walks the Gaussian map of M, facet to
adjacent facet, toward the facet stabbed by the ray from an interior
point through s.  The facet where the walk stops is certified by its
neighbors alone, so a good start saves the work: each answer carries its
facet as a hint for the next query on the same map.  Every table a
query reads is held by the map: its facets and their planes
(`GaussianMap.facet_planes`), the facet adjacency across seam and pole
splits (`facet_neighbors`), and the centroid and primal mesh, each
computed once (`centroid`, `mesh`).

The walk runs on ints alone.  The map's integer plane table
(`GaussianMap.integer_planes`) holds every facet plane over one common
denominator D, the centroid as an int triple over its own denominator,
and each facet's centroid slack.  Once s is put over its denominator,
one int dot product per facet visited gives a positive multiple of
<n, s - c>; exit parameters and alignment scores are compared by
cross-multiplying, and the final side test is one more dot product.
Only the witness reads the Fraction planes of `facet_planes`.  The
penetration and separation queries still work on those.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .gaussian import GaussianMap, reflect
from .kernel import Rational, Vec3, ZeroVector, cross, dot, integer_point
from .minkowski import minkowski

INSIDE = "inside"
ON_BOUNDARY = "on_boundary"
OUTSIDE = "outside"


class PointOutside(ValueError):
    pass


class PlacementQuery(NamedTuple):
    """Translations of the two bodies; the derived configuration-space
    query point is their exact difference."""

    u: Vec3
    w: Vec3

    @property
    def s(self) -> Vec3:
        return self.w - self.u


class Witness(NamedTuple):
    """Classification plus the facet certifying it: OUTSIDE means the
    query point violates the witness facet's supporting halfspace."""

    classification: str
    facet_normal: Vec3
    facet_offset: Rational
    hint: object  # facet vertex handle, reusable by queries on the same map


def _exit_parameter(plane, c: Vec3, d: Vec3) -> Optional[Rational]:
    n, b = plane
    den = dot(n, d)
    if den <= 0:
        return None
    return Fraction(b - dot(n, c), den)


def classify_point(M: GaussianMap, s: Vec3, hint=None) -> Witness:
    """Exact classification of s against the primal polytope of M.

    Walks the Gaussian map toward the facet where the ray from the
    centroid c through s leaves the polytope, moving to an adjacent facet
    while its exit parameter is smaller.  Where the walk stops, the exit
    point lies on the current facet's plane and inside every adjacent
    facet's halfspace, so it lies on the current facet: the facet is
    certified locally, with no scan of the others.

    The walk starts at the hint when the hint is a facet vertex of this
    very map (arrangement vertex ids repeat across maps, so identity is
    checked) and the ray leaves through the hint's plane; otherwise it
    starts at the facet whose normal best matches the ray.

    Every decision is on ints (GaussianMap.integer_planes): with
    s = S / ds, the vector d = S dc - C ds is s - c times ds dc > 0, and
    facet w's exit parameter (b - <n, c>) / <n, s - c> is K / <n, d>
    times the one positive factor ds / D."""
    den, (cx, cy, cz), dc, rows = M.integer_planes
    sx, sy, sz, ds = integer_point(s)
    dx, dy, dz = sx * dc - cx * ds, sy * dc - cy * ds, sz * dc - cz * ds
    if dx == 0 and dy == 0 and dz == 0:
        w0 = next(iter(rows))
        return Witness(INSIDE, *M.facet_planes[w0], w0)

    row = rows.get(hint)
    e = 0
    if row is not None:
        nx, ny, nz, _, k = row
        e = nx * dx + ny * dy + nz * dz
    if e > 0:
        cur = hint
    else:
        cur, k, e = _start_facet(rows, dx, dy, dz)
    # the exit parameter of (k, e), e = <n, d> > 0, is k / e
    improved = True
    while improved:
        improved = False
        for nb in M.facet_neighbors(cur):
            nx, ny, nz, _, nk = rows[nb]
            ne = nx * dx + ny * dy + nz * dz
            if ne > 0 and nk * e < k * ne:
                cur, k, e = nb, nk, ne
                improved = True
                break
    nx, ny, nz, big_b, _ = rows[cur]
    # <n, s> - b, times D ds > 0
    side = den * (nx * sx + ny * sy + nz * sz) - big_b * ds
    if side < 0:
        cls = INSIDE
    elif side == 0:
        cls = ON_BOUNDARY
    else:
        cls = OUTSIDE
    return Witness(cls, *M.facet_planes[cur], cur)


def _start_facet(rows, dx: int, dy: int, dz: int) -> Tuple[object, int, int]:
    """The facet whose normal n best matches d: the first, in table
    order, with the largest <n, d> |<n, d>| / |n|^2, the signed square
    of <n / |n|, d>, compared by cross-multiplying.  The largest is
    positive, since d points out through some facet, so only facets
    with <n, d> > 0 compete.  Returns it with its slack K and <n, d>."""
    best = None
    for w, (nx, ny, nz, _, k) in rows.items():
        e = nx * dx + ny * dy + nz * dz
        if e <= 0:
            continue
        num, norm_sq = e * e, nx * nx + ny * ny + nz * nz
        if best is None or num * best_norm_sq > best_num * norm_sq:
            best, best_k, best_e, best_num, best_norm_sq = w, k, e, num, norm_sq
    return best, best_k, best_e


def collide(
    P: GaussianMap,
    Q: GaussianMap,
    u: Vec3,
    w: Vec3,
    cache: Optional[GaussianMap] = None,
) -> Tuple[bool, Witness, GaussianMap]:
    """Do P translated by u and Q translated by w intersect (closed-set
    convention: grazing contact counts, reported distinctly through the
    witness)?  Returns (collides, witness, M) so M can be reused."""
    M = cache if cache is not None else minkowski(P, reflect(Q))
    s = w - u
    wit = classify_point(M, s)
    return wit.classification in (INSIDE, ON_BOUNDARY), wit, M


def trace(
    P: GaussianMap, Q: GaussianMap, placements: Iterable[PlacementQuery]
) -> List[str]:
    """Simulation trace: one classification record per frame, reusing the
    Minkowski sum and the witness hint across frames.  Each frame is a
    PlacementQuery, whose query point s is the difference of the two
    bodies' translations."""
    M = minkowski(P, reflect(Q))
    lines = []
    hint = None
    for frame, query in enumerate(placements):
        wit = classify_point(M, query.s, hint)
        hint = wit.hint
        lines.append(f"frame {frame} {wit.classification}")
    return lines


def separation_sq(M: GaussianMap, s: Vec3) -> Rational:
    """Exact squared distance from s to the primal polytope of M (zero
    when s is inside or on the boundary).  The mesh lists its facets in
    the order of M's facet table, and every quantity below is unchanged
    when a plane (n, b) is scaled by a positive factor."""
    mesh = M.mesh
    planes = M.facet_planes.values()
    if all(dot(n, s) <= b for n, b in planes):
        return Fraction(0)
    best = None
    for v in mesh.vertices:
        d2 = (s - v).norm_sq()
        if best is None or d2 < best:
            best = d2
    seen = set()
    for cyc in mesh.facets:
        for a_i, b_i in zip(cyc, cyc[1:] + cyc[:1]):
            if (b_i, a_i) in seen:
                continue
            seen.add((a_i, b_i))
            a, b = mesh.vertices[a_i], mesh.vertices[b_i]
            e = b - a
            t = Fraction(dot(s - a, e), e.norm_sq())
            if 0 < t < 1:
                q = a + e.scale(t)
                d2 = (s - q).norm_sq()
                if d2 < best:
                    best = d2
    for (n, bo), cyc in zip(planes, mesh.facets):
        h = dot(n, s) - bo
        q = s - n.scale(Fraction(h, n.norm_sq()))
        ok = True
        m = len(cyc)
        for k in range(m):
            a = mesh.vertices[cyc[k]]
            b = mesh.vertices[cyc[(k + 1) % m]]
            if dot(n, cross(b - a, q - a)) < 0:
                ok = False
                break
        if ok:
            d2 = Fraction(h * h, n.norm_sq())
            if d2 < best:
                best = d2
    return best


def directional_penetration(
    M: GaussianMap, s: Vec3, r: Vec3
) -> Tuple[Rational, Vec3]:
    """Exact exit parameter: the smallest alpha >= 0 with s + alpha*r on
    the boundary of M's primal polytope, plus the exit point."""
    if r.is_zero():
        raise ZeroVector("penetration direction must be nonzero")
    alpha = None
    for n, b in M.facet_planes.values():
        if dot(n, s) > b:
            raise PointOutside(f"{s} is outside the polytope")
        t = _exit_parameter((n, b), s, r)
        if t is not None and (alpha is None or t < alpha):
            alpha = t
    assert alpha is not None  # bounded polytope: the ray must exit
    return alpha, s + r.scale(alpha)
