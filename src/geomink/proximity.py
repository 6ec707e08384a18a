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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .gaussian import GaussianMap, reflect
from .kernel import Rational, Vec3, ZeroVector, cross, dot
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
    starts at the facet whose normal best matches the ray."""
    planes = M.facet_planes
    c = M.centroid
    d = s - c
    if d.is_zero():
        w0 = next(iter(planes))
        n, b = planes[w0]
        return Witness(INSIDE, n, b, w0)

    def t_of(w):
        return _exit_parameter(planes[w], c, d)

    cur_t = t_of(hint) if hint in planes else None
    if cur_t is None:
        cur = max(planes, key=lambda w: _dot_score(w.point.dir, d))
        cur_t = t_of(cur)
    else:
        cur = hint
    improved = True
    while improved:
        improved = False
        for nb in M.facet_neighbors(cur):
            nt = t_of(nb)
            if nt is not None and nt < cur_t:
                cur, cur_t = nb, nt
                improved = True
                break
    n, b = planes[cur]
    side = dot(n, s) - b
    if side < 0:
        cls = INSIDE
    elif side == 0:
        cls = ON_BOUNDARY
    else:
        cls = OUTSIDE
    return Witness(cls, n, b, cur)


def _dot_score(n: Vec3, d: Vec3) -> Fraction:
    # scale-free ordering of <n/|n|, d>: its square, signed
    v = dot(n, d)
    return Fraction(v * abs(v), n.norm_sq())


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
